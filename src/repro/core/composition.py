"""The secure-composition engine (paper Sec. IV).

    "not all types or implementations of countermeasures are
    composable, e.g., adding error-detecting logic can deteriorate
    resilience against SCAs [61]. Thus, tools for joint compilation of
    countermeasures and, even more importantly, for verifying their
    effectiveness are required."

:class:`CompositionEngine` is that tool: it holds a :class:`Design`
(netlist + security interface), applies countermeasures as registered
flow passes (:mod:`repro.flow.library`), and — after *every*
application — re-evaluates the metrics of **all** threat vectors,
flagging negative cross-effects.  The flagship instance this engine
catches: wrapping an ISW-masked gadget with parity-based error
detection physically computes the XOR of the shares — the unmasked
secret — on a wire, and TVLA lights up (ref [61] made executable).

Side-channel metrics are the flow's verdict
(:func:`~repro.flow.properties.tvla_check` and
:func:`~repro.flow.properties.masking_check`, one shared simulation per
TVLA class): a leak counts only when a second trace set confirms it, so
a chance threshold crossing on a masked baseline neither hides a real
break nor reads as one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from ..fia import Fault, FaultKind, fault_campaign
from ..netlist import Netlist, ppa_report
from ..sca import TVLA_THRESHOLD

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..flow.passes import Pass

#: A stimulus transformer: maps the columns of ``n`` base-circuit traces,
#: ``adapter(columns, n, rng)``, to columns of the current (possibly
#: wrapped/transformed) netlist's inputs.  Randomness it needs (fresh
#: mask shares) comes from the ``random.Random`` of the draw it serves,
#: so stimuli stay a function of their seed.
StimulusAdapter = Callable[[Dict[str, int], int, random.Random],
                           Dict[str, int]]


@dataclass
class Design:
    """A netlist plus its security evaluation interface.

    ``tvla_fixed(n, rng)`` / ``tvla_random(n, rng)`` draw a TVLA class
    of ``n`` traces for the *original* primary inputs as packed columns
    (input -> ``n``-bit word, bit ``p`` = trace ``p``) from the draw's
    ``random.Random``; ``stimulus_adapter`` maps those columns to the
    current netlist's inputs (identity until a transform like masking
    or WDDL replaces ports).  ``protected_region_prefix`` marks which
    gates the FIA campaign faults (the functional core, not the
    checker).
    """

    name: str
    netlist: Netlist
    tvla_fixed: Callable[[int, random.Random], Dict[str, int]]
    tvla_random: Callable[[int, random.Random], Dict[str, int]]
    #: Maps base-circuit columns to the current netlist's inputs.
    stimulus_adapter: StimulusAdapter = staticmethod(
        lambda columns, n, rng: columns)
    alarm: Optional[str] = None
    payload_outputs: Optional[List[str]] = None
    protected_region_prefix: str = ""
    key_bits: int = 0

    def fault_sites(self) -> List[Fault]:
        """Single stuck-at faults over the protected functional
        region."""
        sites = []
        for g in self.netlist.gates.values():
            if not g.gate_type.is_combinational or g.gate_type.is_source:
                continue
            if (self.protected_region_prefix
                    and not g.name.startswith(self.protected_region_prefix)):
                continue
            for kind in (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1):
                sites.append(Fault(g.name, kind))
        return sites

    def make_stimuli(self, n: int, fixed: bool,
                     seed: int) -> Dict[str, int]:
        """``n`` adapted traces of one TVLA class as packed columns.

        Returns one ``n``-bit word per input of the current netlist
        (bit ``p`` = trace ``p``), the form
        :func:`~repro.sca.power_model.net_bit_matrix` simulates.  One
        ``random.Random(seed)`` feeds the class generator and the
        stimulus adapter, so equal arguments give equal columns.
        """
        rng = random.Random(seed)
        generator = self.tvla_fixed if fixed else self.tvla_random
        return self.stimulus_adapter(generator(n, rng), n, rng)


@dataclass
class EvaluationSnapshot:
    """All-threat metric values for one design state."""

    #: First trace set's max|t| (the reported statistic).
    tvla_max_t: float
    #: Confirmed verdict: a second trace set crosses the threshold at
    #: a sample where the first did.
    tvla_leaks: bool
    #: Nets whose per-net leak a second trace set confirms.
    leaky_nets: int
    fia_coverage: float
    fia_silent: int
    area: float
    delay: float
    key_bits: int

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for tabular reports."""
        return {
            "tvla_max_t": self.tvla_max_t,
            "tvla_leaks": float(self.tvla_leaks),
            "leaky_nets": float(self.leaky_nets),
            "fia_coverage": self.fia_coverage,
            "fia_silent": float(self.fia_silent),
            "area": self.area,
            "delay": self.delay,
            "key_bits": float(self.key_bits),
        }


@dataclass
class CrossEffect:
    """One detected interaction of a countermeasure with a metric."""

    countermeasure: str
    metric: str
    before: float
    after: float
    harmful: bool
    note: str = ""


@dataclass
class CompositionReport:
    """Audit trail of one composition session."""

    steps: List[Tuple[str, EvaluationSnapshot]] = field(default_factory=list)
    cross_effects: List[CrossEffect] = field(default_factory=list)

    @property
    def harmful_effects(self) -> List[CrossEffect]:
        return [e for e in self.cross_effects if e.harmful]

    def render(self) -> str:
        """Human-readable audit table with cross-effect flags."""
        lines = ["=== composition audit ==="]
        header = f"{'step':<28}" + "".join(
            f"{k:>12}" for k in self.steps[0][1].as_dict()) if self.steps \
            else "(empty)"
        lines.append(header)
        for name, snap in self.steps:
            lines.append(f"{name:<28}" + "".join(
                f"{v:>12.2f}" for v in snap.as_dict().values()))
        for effect in self.cross_effects:
            marker = "!! " if effect.harmful else "   "
            lines.append(
                f"{marker}{effect.countermeasure} -> {effect.metric}: "
                f"{effect.before:.2f} -> {effect.after:.2f}  {effect.note}"
            )
        return "\n".join(lines)


class CompositionEngine:
    """Apply countermeasures one at a time; re-verify everything.

    ``n_traces`` / ``n_fault_vectors`` bound the evaluation effort.
    """

    def __init__(self, n_traces: int = 4000,
                 noise_sigma: float = 0.25,
                 n_fault_vectors: int = 64,
                 tvla_threshold: float = TVLA_THRESHOLD,
                 seed: int = 0) -> None:
        self.n_traces = n_traces
        self.noise_sigma = noise_sigma
        self.n_fault_vectors = n_fault_vectors
        self.tvla_threshold = tvla_threshold
        self.seed = seed

    # -- individual evaluations -----------------------------------------

    def evaluate_fia(self, design: Design) -> Tuple[float, int]:
        """(detection coverage, silent corruptions) over the region."""
        faults = design.fault_sites()
        if not faults:
            return 1.0, 0
        report = fault_campaign(
            design.netlist, faults, n_vectors=self.n_fault_vectors,
            alarm=design.alarm, payload_outputs=design.payload_outputs,
            seed=self.seed)
        return report.coverage, report.silent

    def evaluate(self, design: Design,
                 seed_offset: int = 0) -> EvaluationSnapshot:
        """All-threat snapshot: SCA, FIA, and PPA in one record.

        SCA is the flow's verdict (:func:`~repro.flow.properties.
        tvla_check` and :func:`~repro.flow.properties.masking_check`)
        on one shared simulation per TVLA class.
        """
        from ..flow.analysis import AnalysisCache
        from ..flow.properties import masking_check, tvla_check

        cache = AnalysisCache()
        seed = self.seed + seed_offset
        tvla = tvla_check(design, n_traces=self.n_traces,
                          noise_sigma=self.noise_sigma,
                          threshold=self.tvla_threshold, seed=seed,
                          cache=cache)
        masking = masking_check(design, n_traces=self.n_traces,
                                threshold=self.tvla_threshold, seed=seed,
                                cache=cache)
        coverage, silent = self.evaluate_fia(design)
        ppa = ppa_report(design.netlist)
        return EvaluationSnapshot(
            tvla_max_t=tvla.value,
            tvla_leaks=not tvla.passed,
            leaky_nets=int(masking.value),
            fia_coverage=coverage,
            fia_silent=silent,
            area=ppa.area,
            delay=ppa.delay,
            key_bits=design.key_bits,
        )

    # -- composition loop -------------------------------------------------

    def compose(self, design: Design, passes: Sequence["Pass"]
                ) -> Tuple[Design, CompositionReport]:
        """Apply each pass, re-verifying all threats after each.

        Each pass runs through :func:`~repro.flow.manager.run_pass` with
        no re-checks of its own: the all-threat snapshot is the
        verification.  The passes work on a copy of ``design``'s
        netlist, since in-place ones (re-association) would otherwise
        edit the caller's.

        Harmful cross-effects are flagged when a countermeasure for one
        threat makes another threat's metric materially worse: the
        confirmed TVLA verdict flipping from pass to leak, FIA coverage
        dropping, or more confirmed individually-leaking nets.
        """
        from ..flow.manager import FlowContext, FlowTrace, run_pass

        ctx = FlowContext(replace(design, netlist=design.netlist.copy()),
                          seed=self.seed)
        trace = FlowTrace(design.name)
        report = CompositionReport()
        snapshot = self.evaluate(ctx.design)
        report.steps.append(("baseline", snapshot))
        for index, p in enumerate(passes, start=1):
            run_pass(trace, p, ctx, {}, ())
            new_snapshot = self.evaluate(ctx.design, seed_offset=10 * index)
            report.steps.append((p.name, new_snapshot))
            self._diff(report, p.name, snapshot, new_snapshot)
            snapshot = new_snapshot
        return ctx.design, report

    def compose_named(self, design_name: str,
                      stack_names: Sequence[str]
                      ) -> Tuple[Design, CompositionReport]:
        """Compose a *named* design with a *named* countermeasure stack.

        The declarative twin of :meth:`compose`: the design is
        referenced by registry name
        (:data:`~repro.core.designs.DESIGN_FACTORIES`) and each stack
        entry by its name in :data:`~repro.core.designs.STACK_PASSES`,
        so the whole invocation is a picklable, hashable spec — this is
        the entry point the :mod:`repro.service` ``composition-stack``
        job calls inside worker processes.
        """
        from .designs import build_design, build_stack

        return self.compose(build_design(design_name),
                            build_stack(stack_names))

    def evaluate_stack_row(self, design_name: str,
                           stack_names: Sequence[str]) -> Dict[str, object]:
        """One JSON-able row of a cross-effect matrix.

        Captures the baseline and final snapshots plus the harmful
        cross-effect flags — the exact shape the composition benchmarks
        tabulate, now computable anywhere a (design name, stack names)
        pair can be shipped.
        """
        _, report = self.compose_named(design_name, stack_names)
        baseline = report.steps[0][1]
        final = report.steps[-1][1]
        return {
            "design": design_name,
            "stack": list(stack_names),
            "baseline": baseline.as_dict(),
            "final": final.as_dict(),
            "area_factor": (final.area / baseline.area
                            if baseline.area else float("inf")),
            "flagged": bool(report.harmful_effects),
            "notes": [e.note for e in report.harmful_effects],
            "cross_effects": [
                {"countermeasure": e.countermeasure, "metric": e.metric,
                 "before": e.before, "after": e.after,
                 "harmful": e.harmful, "note": e.note}
                for e in report.cross_effects
            ],
        }

    def _diff(self, report: CompositionReport, step: str,
              before: EvaluationSnapshot,
              after: EvaluationSnapshot) -> None:
        tvla_flipped = after.tvla_leaks and not before.tvla_leaks
        report.cross_effects.append(CrossEffect(
            step, "tvla_max_t", before.tvla_max_t, after.tvla_max_t,
            harmful=tvla_flipped,
            note="masking broken by composition" if tvla_flipped else "",
        ))
        if after.leaky_nets > before.leaky_nets:
            report.cross_effects.append(CrossEffect(
                step, "leaky_nets", before.leaky_nets,
                after.leaky_nets, harmful=True,
                note="new first-order-leaking wires introduced",
            ))
        if after.fia_coverage < before.fia_coverage - 1e-9:
            report.cross_effects.append(CrossEffect(
                step, "fia_coverage", before.fia_coverage,
                after.fia_coverage, harmful=True,
                note="fault-detection coverage regressed",
            ))
