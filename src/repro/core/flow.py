"""The security-centric EDA flow the paper calls for.

:class:`SecureFlow` extends the classical flow of Fig. 1
(:func:`repro.flow.classical_pipeline`) with the paper's Sec. II-C / IV
program:

* explicit security *requirements* compiled into the flow,
* evaluation of security metrics at the stages where they are
  observable (TVLA after synthesis, proximity-attack CCR after PnR,
  scan-leakage checks at test insertion),
* the re-verification loop: after every design change (optimization or
  countermeasure), all requirements are re-checked, so nothing is
  "inadvertently compromised".

A requirement is the one way to state a security obligation: a name
and a ``check(ctx) -> PropertyCheck`` over the pass manager's
:class:`~repro.flow.manager.FlowContext`.  Each ``*_requirement``
factory binds the budget of one shared checker of
:mod:`repro.flow.properties`, where the measurement logic (TVLA and
per-net leakage confirmed on a second trace set, the fault campaign,
the two-copy no-flow proof) lives once.

Requirements compile into a run of :class:`repro.flow.PassManager`:
each check is a property checker handed to the manager as is, and its
name a goal.  :class:`SecureFlow` runs transforms, which are
registered passes; no pass declares an effect on a requirement, so
every held requirement is re-checked after each — exactly the
re-check-everything loop above.  :func:`compile_and_check` runs no
pass and measures each requirement once on the design as it stands.
Both return the manager's :class:`~repro.flow.manager.FlowRunResult`,
whose :class:`~repro.flow.manager.FlowTrace` is the one record of
either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Mapping, Optional,
                    Sequence)

from ..sca import TVLA_THRESHOLD
from ..flow.properties import (
    PropertyCheck,
    fault_detection_check,
    masking_check,
    no_flow_check,
    tvla_check,
)
from .composition import Design

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..flow.manager import FlowContext, FlowRunResult
    from ..flow.passes import Pass


@dataclass
class SecurityRequirement:
    """One security obligation, checked by the pass manager."""

    name: str
    #: ``check(ctx) -> PropertyCheck`` over the pass manager's
    #: :class:`~repro.flow.manager.FlowContext`; handed to
    #: :class:`~repro.flow.PassManager` as is.
    check: Callable[[FlowContext], PropertyCheck]


def tvla_requirement(n_traces: int = 4000, noise_sigma: float = 0.25,
                     threshold: float = TVLA_THRESHOLD,
                     seed: int = 0) -> SecurityRequirement:
    """Fixed-vs-random leakage must stay below the TVLA threshold."""

    def check(ctx: FlowContext) -> PropertyCheck:
        return tvla_check(ctx.design, n_traces=n_traces,
                          noise_sigma=noise_sigma, threshold=threshold,
                          seed=seed, cache=ctx.cache)

    return SecurityRequirement("tvla-first-order", check)


def no_leaky_net_requirement(n_traces: int = 3000,
                             threshold: float = TVLA_THRESHOLD,
                             seed: int = 0) -> SecurityRequirement:
    """No individual wire may pass the per-net leakage test — the
    observable definition of intact share encoding."""

    def check(ctx: FlowContext) -> PropertyCheck:
        return masking_check(ctx.design, n_traces=n_traces,
                             threshold=threshold, seed=seed,
                             cache=ctx.cache)

    return SecurityRequirement("no-leaky-wire", check)


def fault_detection_requirement(min_coverage: float = 0.99,
                                n_vectors: int = 64,
                                seed: int = 0) -> SecurityRequirement:
    """A fault campaign over the protected region must reach
    ``min_coverage`` against the design's alarm with zero silent
    corruptions."""

    def check(ctx: FlowContext) -> PropertyCheck:
        return fault_detection_check(ctx.design, min_coverage=min_coverage,
                                     n_vectors=n_vectors, seed=seed)

    return SecurityRequirement("fault-detection", check)


def no_flow_requirement(source: str, target: str,
                        when: Optional[Mapping[str, int]] = None
                        ) -> SecurityRequirement:
    """``source`` (a primary input) must not influence ``target`` while
    the environment pins the ``when`` values; proved by SAT on the
    design's netlist."""
    when = dict(when or {})

    def check(ctx: FlowContext) -> PropertyCheck:
        return no_flow_check(ctx.design, source, target, when=when)

    return SecurityRequirement(
        f"no-flow {source} -/-> {target}"
        + (f" when {when}" if when else ""), check)


def _requirement_checkers(requirements: Sequence[SecurityRequirement]
                          ) -> Dict[str, Callable]:
    """``name -> check`` for the pass manager, one per requirement.

    Raises :class:`ValueError` when two requirements share a name: the
    manager tracks a property by its name, so one of them would never
    be checked.
    """
    checkers: Dict[str, Callable] = {}
    for r in requirements:
        if r.name in checkers:
            raise ValueError(f"two requirements are named {r.name!r}")
        checkers[r.name] = r.check
    return checkers


def compile_and_check(design: Design,
                      requirements: Sequence[SecurityRequirement]
                      ) -> FlowRunResult:
    """Measure every requirement once on the design's current netlist.

    A pass manager run with no passes and the requirements as goals:
    each lands in the trace's ``final`` re-checks.
    """
    from ..flow import PassManager

    checkers = _requirement_checkers(requirements)
    return PassManager(checkers=checkers).run(design, [],
                                              goals=list(checkers))


class SecureFlow:
    """Classical stages + compiled security requirements + re-verify loop.

    ``transforms`` are design-mutating passes (countermeasures such as
    ``parity-detect`` or optimizations such as ``reassoc-timing``, see
    :func:`repro.flow.create_pass`) run in order after logic synthesis;
    after each, every requirement is re-checked (the paper's "re-run
    the security-centric flow" loop).  Requirements are custom
    properties that no pass's declared effects cover, so the manager
    re-checks them all after every transform.
    """

    def __init__(self, requirements: Sequence[SecurityRequirement],
                 transforms: Sequence[Pass] = (),
                 placement_iterations: int = 3000,
                 seed: int = 0) -> None:
        self.requirements = list(requirements)
        self.transforms = list(transforms)
        self.placement_iterations = placement_iterations
        self.seed = seed

    def run(self, design: Design) -> FlowRunResult:
        """Run stages + transforms, re-checking requirements after each."""
        from ..flow import PassManager, secure_pipeline

        checkers = _requirement_checkers(self.requirements)
        names = list(checkers)
        manager = PassManager(checkers=checkers, seed=self.seed)
        return manager.run(
            design,
            secure_pipeline(self.transforms, self.placement_iterations),
            goals=names, assume=names)
