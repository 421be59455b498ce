"""Security properties and their shared checkers.

The paper's secure-composition thesis needs a vocabulary for *what a
transform may destroy*: masking-domain separation, the TVLA bound,
no-flow (GLIFT) obligations, fault-detection coverage, scan leakage,
and functional equivalence.  :class:`SecurityProperty` names them;
the ``*_check`` functions in this module are the **single**
implementation of each property's measurement, shared by

* the pass manager's re-verification loop (:mod:`repro.flow.manager`),
  through the checker factories below,
* the security requirements of :mod:`repro.core.flow`, which
  :class:`~repro.core.flow.SecureFlow` and
  :func:`~repro.core.flow.compile_and_check` hand to that manager, and
* the composition engine (:mod:`repro.core.composition`), whose
  snapshots the risk register grades,

so the leakage verdict exists exactly once.  :func:`tvla_check` and
:func:`masking_check` follow standard TVLA practice (Goodwill et al.,
2011): each TVLA class of a trace set is simulated once into a net bit
matrix in the :class:`~repro.flow.analysis.AnalysisCache`, both
statistics are computed from it, and a check whose first set crosses
the threshold draws a second set, reporting a leak only where both
sets cross — at the same sample (TVLA) or the same net (masking).

This module deliberately imports nothing from :mod:`repro.core` at
module level (only under ``TYPE_CHECKING``): ``repro.core`` submodules
import it at their own import time, and keeping this side of the edge
core-free is what makes that cycle-safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from ..netlist import get_compiled
from ..sca import (
    TVLA_THRESHOLD,
    assessed_nets,
    bits_to_traces,
    net_t_statistics,
    welch_t,
)
from ..sca.power_model import net_bit_matrix
from .analysis import AnalysisCache

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..core.composition import Design


class SecurityProperty(enum.Enum):
    """The security/functional properties the flow tracks (Table II).

    Every registered pass must classify each of these as preserved,
    established, or invalidated — ``scripts/check_passes.py`` enforces
    the totality of that declaration.
    """

    MASKING = "masking"
    TVLA_BOUND = "tvla-bound"
    NO_FLOW = "no-flow"
    FAULT_DETECTION = "fault-detection"
    SCAN_LEAKAGE = "scan-leakage"
    FUNCTIONAL_EQUIVALENCE = "functional-equivalence"
    #: Layout properties (physical-design stage; measured on a routed
    #: layout — ``ctx.routing`` — rather than on the netlist).  Each
    #: "holds" when its attack-surface metric is under threshold.
    PROBING_EXPOSURE = "probing-exposure"
    FIA_EXPOSURE = "fia-exposure"
    TROJAN_INSERTABILITY = "trojan-insertability"


#: All tracked properties, in declaration order.
ALL_PROPERTIES = tuple(SecurityProperty)


@dataclass
class PropertyCheck:
    """Outcome of one property measurement."""

    prop: object               # SecurityProperty or a custom string key
    passed: bool
    value: float
    message: str

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _class_bits(design: "Design", fixed: bool, n_traces: int, seed: int,
                cache: "AnalysisCache") -> np.ndarray:
    """``(nets, traces)`` bit matrix of one TVLA class, simulated once.

    The design draws the class as packed columns
    (:meth:`~repro.core.composition.Design.make_stimuli`), which the
    kernel simulates as they are.  Keyed on the stimulus parameters and
    validated against the design object and the netlist mutation
    epoch: the TVLA and per-net checks of one trace set share the
    simulation, and a re-check on an unmutated netlist simulates
    nothing.
    """
    return cache.get(
        "class-bits", design.netlist,
        lambda: net_bit_matrix(design.netlist,
                               design.make_stimuli(n_traces, fixed, seed),
                               n_traces),
        key=(design, fixed, n_traces, seed))


def _confirmed_leaks(design: "Design", statistic: Callable,
                     analysis: Tuple, n_traces: int, threshold: float,
                     seed: int, cache: Optional["AnalysisCache"]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """First-set ``|t|`` and the points where both trace sets cross
    ``threshold``.

    Trace set ``k`` draws its fixed and random classes from stimulus
    seeds ``seed + 2k`` and ``seed + 2k + 1``; ``statistic(fixed_bits,
    random_bits, set_seed)`` turns them into a t vector, cached per set
    as ``analysis`` (the analysis name, then any statistic parameters).
    The second set is drawn only when the first crosses somewhere, so a
    passing design costs one set.
    """
    cache = cache if cache is not None else AnalysisCache()

    def abs_t(set_seed: int) -> np.ndarray:
        def build():
            return np.abs(statistic(
                _class_bits(design, True, n_traces, set_seed, cache),
                _class_bits(design, False, n_traces, set_seed + 1, cache),
                set_seed))
        return cache.get(analysis[0], design.netlist, build,
                         key=(design, n_traces, set_seed) + analysis[1:])

    first = abs_t(seed)
    leaks = first > threshold
    if leaks.any():
        leaks = leaks & (abs_t(seed + 2) > threshold)
    return first, leaks


def tvla_check(design: "Design", n_traces: int = 3000,
               noise_sigma: float = 0.25,
               threshold: float = TVLA_THRESHOLD, seed: int = 0,
               cache: Optional["AnalysisCache"] = None) -> PropertyCheck:
    """Fixed-vs-random first-order TVLA against ``threshold``.

    The one shared implementation of the TVLA bound check.  ``value``
    is the first set's max|t| (bit-identical to :func:`~repro.sca.tvla`
    on :func:`~repro.sca.leakage_traces` of the same stimuli); the
    check fails only on a leak confirmed at the same sample by a second
    trace set.
    """
    def statistic(fixed_bits, random_bits, set_seed):
        compiled = get_compiled(design.netlist)
        return welch_t(
            bits_to_traces(compiled, fixed_bits, noise_sigma, set_seed),
            bits_to_traces(compiled, random_bits, noise_sigma,
                           set_seed + 1))

    abs_t, leaks = _confirmed_leaks(design, statistic,
                                    ("tvla-t", noise_sigma), n_traces,
                                    threshold, seed, cache)
    max_t = float(abs_t.max())
    note = ""
    if max_t > threshold:
        note = (f"; a second trace set confirms {int(leaks.sum())} "
                f"leaking sample(s)" if leaks.any() else
                "; not confirmed by a second trace set")
    return PropertyCheck(
        SecurityProperty.TVLA_BOUND, not leaks.any(), max_t,
        f"TVLA max|t| = {max_t:.2f} (threshold {threshold}{note}) at "
        f"{n_traces} traces/class")


def masking_check(design: "Design", n_traces: int = 2500,
                  threshold: float = TVLA_THRESHOLD, seed: int = 0,
                  cache: Optional["AnalysisCache"] = None) -> PropertyCheck:
    """Per-wire leakage test: no individual net may distinguish the
    fixed class from the random class — the observable definition of
    intact share encoding.

    ``value`` counts the nets whose leak a second trace set confirms;
    it reads the same class simulations as :func:`tvla_check` at equal
    ``n_traces`` and ``seed``.
    """
    def statistic(fixed_bits, random_bits, set_seed):
        return net_t_statistics(design.netlist, fixed_bits, random_bits,
                                seed=set_seed)

    abs_t, leaks = _confirmed_leaks(design, statistic, ("net-t",),
                                    n_traces, threshold, seed, cache)
    n_leaky = int(leaks.sum())
    if n_leaky:
        worst = int(np.argmax(np.where(leaks, abs_t, -1.0)))
        message = (f"{n_leaky} leaking nets, worst "
                   f"{assessed_nets(design.netlist)[worst]} "
                   f"|t|={abs_t[worst]:.1f}")
    else:
        message = (f"0 leaking nets (worst per-net |t| = "
                   f"{abs_t.max(initial=0.0):.2f})")
    return PropertyCheck(SecurityProperty.MASKING, not n_leaky,
                         float(n_leaky), message)


def no_flow_check(design: "Design", source: str, target: str,
                  when: Optional[Dict[str, int]] = None) -> PropertyCheck:
    """Two-copy SAT proof that ``source`` cannot influence ``target``.

    A query naming a port the netlist lacks (a misspelled net, or
    ``target=design.alarm`` on a design without an alarm) fails with
    the reason instead of raising.
    """
    from ..formal.glift import port_error, prove_no_flow

    fixed = dict(when or {})
    problem = port_error(design.netlist, source, target, fixed)
    if problem is not None:
        return PropertyCheck(
            SecurityProperty.NO_FLOW, False, 1.0,
            f"no-flow {source} -/-> {target} not checkable: {problem}")
    result = prove_no_flow(design.netlist, source, target, fixed=fixed)
    if result.isolated:
        return PropertyCheck(
            SecurityProperty.NO_FLOW, True, 0.0,
            f"SAT-proved non-interference {source} -/-> {target}")
    return PropertyCheck(
        SecurityProperty.NO_FLOW, False, 1.0,
        f"flow witness found for {source} -> {target}: {result.witness}")


def fault_detection_check(design: "Design", n_vectors: int = 64,
                          seed: int = 0) -> PropertyCheck:
    """Fault campaign over the protected region against a 99% coverage
    floor, with no silent corruption allowed."""
    from ..fia import fault_campaign

    if design.alarm is None:
        return PropertyCheck(SecurityProperty.FAULT_DETECTION, False, 0.0,
                             "design has no alarm output")
    faults = design.fault_sites()
    if not faults:
        return PropertyCheck(SecurityProperty.FAULT_DETECTION, True, 1.0,
                             "no fault sites in protected region")
    report = fault_campaign(
        design.netlist, faults, n_vectors=n_vectors, alarm=design.alarm,
        payload_outputs=design.payload_outputs, seed=seed)
    ok = report.coverage >= 0.99 and report.silent == 0
    return PropertyCheck(SecurityProperty.FAULT_DETECTION, ok,
                         report.coverage, report.summary())


def scan_leakage_check(design: "Design") -> PropertyCheck:
    """Scan access must not expose internal state to an attacker.

    Structural: a design with no scan chain trivially satisfies the
    property; one with a plain (non-secured) chain fails it, since the
    scan attack of :mod:`repro.dft.scan_attack` reads state directly.
    """
    if "scan_en" not in design.netlist:
        return PropertyCheck(SecurityProperty.SCAN_LEAKAGE, True, 0.0,
                             "no scan access present")
    return PropertyCheck(
        SecurityProperty.SCAN_LEAKAGE, False, 1.0,
        "plain scan chain exposes internal state (scan attack applies)")


# ----------------------------------------------------------------------
# Checker factories for the pass manager
# ----------------------------------------------------------------------
#
# A *checker* as the manager consumes it is ``checker(ctx) ->
# PropertyCheck`` where ``ctx`` is a :class:`repro.flow.manager.
# FlowContext` (``ctx.design``, ``ctx.cache``, ``ctx.seed``).  The
# factories below bind measurement budgets once and close over them.

def tvla_checker(n_traces: int = 3000) -> Callable:
    """Manager checker for :data:`SecurityProperty.TVLA_BOUND`."""
    def check(ctx) -> PropertyCheck:
        return tvla_check(ctx.design, n_traces=n_traces, seed=ctx.seed,
                          cache=ctx.cache)
    return check


def masking_checker(n_traces: int = 2500) -> Callable:
    """Manager checker for :data:`SecurityProperty.MASKING`."""
    def check(ctx) -> PropertyCheck:
        return masking_check(ctx.design, n_traces=n_traces, seed=ctx.seed,
                             cache=ctx.cache)
    return check


def fault_detection_checker() -> Callable:
    """Manager checker for :data:`SecurityProperty.FAULT_DETECTION`."""
    def check(ctx) -> PropertyCheck:
        return fault_detection_check(ctx.design, seed=ctx.seed)
    return check


def scan_leakage_checker() -> Callable:
    """Manager checker for :data:`SecurityProperty.SCAN_LEAKAGE`."""
    def check(ctx) -> PropertyCheck:
        return scan_leakage_check(ctx.design)
    return check


def _routing_of(ctx) -> Optional[object]:
    """The routed layout of a flow context (``None`` when not routed)."""
    return getattr(ctx, "routing", None)


def probing_exposure_checker(threshold: float = 0.05) -> Callable:
    """Manager checker for :data:`SecurityProperty.PROBING_EXPOSURE`
    (the top two metal layers probe-reachable).

    Reads the routed layout from ``ctx.routing`` and the critical-net
    list from ``ctx.notes['critical-nets']`` (published by the route /
    closure pipeline).
    """
    def check(ctx) -> PropertyCheck:
        from ..physical.attack_surface import probing_exposure

        layout = _routing_of(ctx)
        if layout is None:
            return PropertyCheck(
                SecurityProperty.PROBING_EXPOSURE, False, 1.0,
                "no routed layout (run the 'route' pass first)")
        report = probing_exposure(layout,
                                  ctx.notes.get("critical-nets", []))
        return PropertyCheck(
            SecurityProperty.PROBING_EXPOSURE,
            report.exposure <= threshold, report.exposure,
            f"{report.summary()} (threshold {threshold})")
    return check


def fia_exposure_checker(threshold: float = 0.30) -> Callable:
    """Manager checker for :data:`SecurityProperty.FIA_EXPOSURE`
    (laser spot radius 2)."""
    def check(ctx) -> PropertyCheck:
        from ..physical.attack_surface import fia_exposure

        layout = _routing_of(ctx)
        if layout is None:
            return PropertyCheck(
                SecurityProperty.FIA_EXPOSURE, False, 1.0,
                "no routed layout (run the 'route' pass first)")
        report = fia_exposure(layout, ctx.notes.get("critical-nets", []))
        return PropertyCheck(
            SecurityProperty.FIA_EXPOSURE,
            report.exposure <= threshold, report.exposure,
            f"{report.summary()} (threshold {threshold})")
    return check


def trojan_insertability_checker(threshold: float = 0.05) -> Callable:
    """Manager checker for :data:`SecurityProperty.TROJAN_INSERTABILITY`
    (regions of at least 4 free sites with at least 20% free routing
    capacity).

    Needs ``ctx.placement`` in addition to ``ctx.routing`` — occupied
    standard-cell sites bound the free regions a Trojan could claim.
    """
    def check(ctx) -> PropertyCheck:
        from ..physical.attack_surface import trojan_insertability

        layout = _routing_of(ctx)
        if layout is None or ctx.placement is None:
            return PropertyCheck(
                SecurityProperty.TROJAN_INSERTABILITY, False, 1.0,
                "no routed layout/placement (run placement + route)")
        report = trojan_insertability(layout,
                                      ctx.placement.positions.values())
        return PropertyCheck(
            SecurityProperty.TROJAN_INSERTABILITY,
            report.exposure <= threshold, report.exposure,
            f"{report.summary()} (threshold {threshold})")
    return check


def layout_checkers(probing_threshold: float = 0.05,
                    fia_threshold: float = 0.30,
                    trojan_threshold: float = 0.05
                    ) -> Dict[SecurityProperty, Callable]:
    """The stock checker set for the three layout properties."""
    return {
        SecurityProperty.PROBING_EXPOSURE:
            probing_exposure_checker(probing_threshold),
        SecurityProperty.FIA_EXPOSURE:
            fia_exposure_checker(fia_threshold),
        SecurityProperty.TROJAN_INSERTABILITY:
            trojan_insertability_checker(trojan_threshold),
    }


def default_checkers(n_traces: int = 3000) -> Dict[SecurityProperty,
                                                   Callable]:
    """The stock checker set for pipelines over masked designs."""
    return {
        SecurityProperty.TVLA_BOUND: tvla_checker(n_traces),
        SecurityProperty.MASKING: masking_checker(n_traces),
        SecurityProperty.FAULT_DETECTION: fault_detection_checker(),
        SecurityProperty.SCAN_LEAKAGE: scan_leakage_checker(),
    }
