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

This class compiles requirements into a run of
:class:`repro.flow.PassManager`: each requirement's ``check`` is a
property checker handed to the manager as is and its name a goal,
transforms run as effect-undeclared (conservative) passes — which is
exactly the re-check-everything loop above — and :meth:`SecureFlow.run`
returns the manager's :class:`~repro.flow.manager.FlowRunResult`, whose
:class:`~repro.flow.manager.FlowTrace` is the flow's one record.  The
measurement logic itself (TVLA and per-net leakage, confirmed on a
second trace set) lives once, in :mod:`repro.flow.properties`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..sca import TVLA_THRESHOLD
from ..flow.properties import PropertyCheck, masking_check, tvla_check
from .composition import Design
from .stages import DesignStage
from .threats import ThreatVector

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..flow.manager import FlowContext, FlowRunResult


@dataclass
class SecurityRequirement:
    """One compiled security constraint with its checking stage."""

    name: str
    threat: ThreatVector
    stage: DesignStage
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

    return SecurityRequirement(
        "tvla-first-order", ThreatVector.SIDE_CHANNEL,
        DesignStage.TIMING_POWER_VERIFICATION, check)


def no_leaky_net_requirement(n_traces: int = 3000,
                             threshold: float = TVLA_THRESHOLD,
                             seed: int = 0) -> SecurityRequirement:
    """No individual wire may pass the per-net leakage test."""

    def check(ctx: FlowContext) -> PropertyCheck:
        return masking_check(ctx.design, n_traces=n_traces,
                             threshold=threshold, seed=seed,
                             cache=ctx.cache)

    return SecurityRequirement(
        "no-leaky-wire", ThreatVector.SIDE_CHANNEL,
        DesignStage.LOGIC_SYNTHESIS, check)


class SecureFlow:
    """Classical stages + compiled security requirements + re-verify loop.

    ``transforms`` are design-mutating steps (countermeasures or
    optimizations) executed in order after logic synthesis; after each,
    every requirement is re-checked (the paper's "re-run the
    security-centric flow" loop).  Under the pass manager this is the
    *conservative* pipeline: legacy transforms declare no effects, so
    the manager schedules a full re-check after each — migrating a
    transform to a registered pass with real declarations is what makes
    its re-verification incremental.
    """

    def __init__(self, requirements: Sequence[SecurityRequirement],
                 transforms: Sequence = (),
                 placement_iterations: int = 3000,
                 seed: int = 0) -> None:
        self.requirements = list(requirements)
        self.transforms = list(transforms)
        self.placement_iterations = placement_iterations
        self.seed = seed

    def run(self, design: Design) -> FlowRunResult:
        """Run stages + transforms, re-checking requirements after each."""
        from ..flow import PassManager, secure_pipeline

        names = [r.name for r in self.requirements]
        manager = PassManager(
            checkers={r.name: r.check for r in self.requirements},
            seed=self.seed)
        return manager.run(
            design,
            secure_pipeline(self.transforms, self.placement_iterations),
            goals=names, assume=names)
