"""Iterative security closure of routed layouts.

The "zero-overhead security closure" flow (PAPERS.md; ISPD contest):
measure the layout attack surface, apply targeted engineering change
orders (ECOs), re-route what the ECOs disturbed, and repeat until
every metric is under its threshold — without adding functional
logic.  This module provides the ECO *primitives* (shield insertion,
ECO filler fill, critical-net burying) and the :func:`security_closure`
loop, which applies them as the registered flow passes of
:mod:`repro.flow.layout_library` through the pass manager's per-pass
recorder (:func:`repro.flow.manager.run_pass`), so each iteration lands
in the :class:`~repro.flow.manager.FlowTrace`.  After each ECO it
re-checks every property the ECO's declared effects do not preserve,
with the declared action as the reason, and picks the next ECO from
the latest value measured for each metric: a metric is measured once
per ECO that can move it.

The three defenses map one-to-one onto the three metrics of
:mod:`repro.physical.attack_surface`:

* **burying** re-routes critical nets below the probe-reachable top
  metals (probing exposure);
* **shield cells** occupy the free node directly above every exposed
  critical wire, shadowing it from probes and front-side lasers
  (probing + FIA exposure);
* **ECO fillers** consume exploitable free placement regions (Trojan
  insertability).

None of them touch the netlist, so functional equivalence is trivially
preserved — and still *checked* (SAT CEC) at the end, because "trivially
preserved" is exactly the kind of claim the paper says flows must verify
rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..netlist import Netlist, ppa_report
from .attack_surface import (
    DEFAULT_MIN_FREE_CAPACITY,
    DEFAULT_MIN_TROJAN_SITES,
    DEFAULT_PROBE_LAYERS,
    trojan_insertability,
    uncovered_critical_nodes,
)
from .placement import Placement, annealing_placement
from .routing import Point, RoutedLayout, reroute_nets

__all__ = [
    "ClosureThresholds", "ClosureMetrics", "ClosureResult",
    "default_critical_nets", "insert_shields", "insert_fillers",
    "bury_critical_nets", "security_closure",
]


@dataclass(frozen=True)
class ClosureThresholds:
    """Closure targets: each metric must be at or below its bound."""

    probing: float = 0.05
    fia: float = 0.30
    trojan: float = 0.05


@dataclass(frozen=True)
class ClosureMetrics:
    """One joint measurement of the three attack-surface metrics."""

    probing: float
    fia: float
    trojan: float

    def as_dict(self) -> Dict[str, float]:
        """The three metrics as a plain JSON-able mapping."""
        return {"probing": self.probing, "fia": self.fia,
                "trojan": self.trojan}


def default_critical_nets(netlist: Netlist) -> List[str]:
    """The stock security-critical net set: every net feeding a primary
    output — the wires carrying the design's final secrets (key bytes,
    S-box outputs) that probing and fault attacks target first."""
    critical: List[str] = []
    seen: Set[str] = set()
    for out in netlist.outputs:
        for fanin in netlist.gates[out].fanins:
            if fanin not in seen and fanin in netlist.gates:
                seen.add(fanin)
                critical.append(fanin)
    return critical


# ----------------------------------------------------------------------
# ECO primitives (netlist-neutral layout edits)
# ----------------------------------------------------------------------


def insert_shields(layout: RoutedLayout,
                   critical_nets: Sequence[str]) -> int:
    """Place a shield cell directly above every exposed critical node.

    An uncovered node has *nothing* above it by definition, so the node
    one layer up is always free — except on the topmost layer, which
    only burying can fix.  Returns the number of shields added.
    """
    added = 0
    for x, y, l in uncovered_critical_nodes(layout, critical_nets):
        if l >= layout.num_layers:
            continue
        node = (x, y, l + 1)
        if node not in layout.shields:
            layout.shields.add(node)
            added += 1
    return added


def insert_fillers(layout: RoutedLayout, occupied_sites: Iterable[Point],
                   min_sites: int = DEFAULT_MIN_TROJAN_SITES,
                   min_free_capacity: float = DEFAULT_MIN_FREE_CAPACITY
                   ) -> int:
    """Fill every exploitable free region with ECO filler cells.

    Fillers are non-functional fill: they occupy placement sites (so a
    Trojan cannot) without entering the netlist.  Returns the number of
    filler sites added.
    """
    report = trojan_insertability(layout, occupied_sites,
                                  min_sites=min_sites,
                                  min_free_capacity=min_free_capacity)
    added = 0
    for region in report.regions:
        for site in region.sites:
            if site not in layout.fillers:
                layout.fillers.add(site)
                added += 1
    return added


def bury_critical_nets(layout: RoutedLayout, netlist: Netlist,
                       placement: Placement,
                       critical_nets: Sequence[str],
                       probe_depth: int = DEFAULT_PROBE_LAYERS
                       ) -> List[str]:
    """Re-route critical nets below the probe-reachable top metals.

    Every critical net whose tree touches the top ``probe_depth``
    layers is ripped up and re-routed with a per-net layer cap of
    ``num_layers - probe_depth``; the cap persists in
    ``layout.layer_limits`` so later re-routes stay buried.  Returns
    the re-routed net names.
    """
    max_layer = max(1, layout.num_layers - probe_depth)
    victims = [name for name in critical_nets
               if name in layout.nets
               and layout.nets[name].max_layer > max_layer]
    if not victims:
        return []
    return reroute_nets(layout, netlist, placement, victims,
                        max_layer=max_layer)


# ----------------------------------------------------------------------
# The closure driver
# ----------------------------------------------------------------------


@dataclass
class ClosureResult:
    """Outcome of one :func:`security_closure` run.

    ``trace`` is the full :class:`~repro.flow.manager.FlowTrace` with
    one provenance entry per applied pass (route + each ECO), baseline
    and final metric measurements included.  Everything in
    :meth:`to_dict` except the trace's wall times is a pure function of
    ``(netlist, parameters, seed)`` — the determinism contract the
    service-layer closure job relies on.
    """

    design_name: str
    converged: bool
    iterations: int
    initial_metrics: ClosureMetrics
    metrics: ClosureMetrics
    thresholds: ClosureThresholds
    equivalent: bool
    area_overhead: float
    shields_added: int
    filler_sites: int
    buried_nets: List[str]
    failed_nets: List[str]
    critical_nets: List[str]
    trace: object                      # FlowTrace (import kept lazy)
    layout: RoutedLayout
    placement: Placement

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary (includes the serialized trace)."""
        return {
            "design": self.design_name,
            "converged": self.converged,
            "iterations": self.iterations,
            "initial_metrics": self.initial_metrics.as_dict(),
            "metrics": self.metrics.as_dict(),
            "thresholds": {"probing": self.thresholds.probing,
                           "fia": self.thresholds.fia,
                           "trojan": self.thresholds.trojan},
            "equivalent": self.equivalent,
            "area_overhead": self.area_overhead,
            "shields_added": self.shields_added,
            "filler_sites": self.filler_sites,
            "buried_nets": list(self.buried_nets),
            "failed_nets": list(self.failed_nets),
            "critical_nets": list(self.critical_nets),
            "trace": self.trace.to_dict(),
        }


def security_closure(netlist: Netlist,
                     thresholds: ClosureThresholds = ClosureThresholds(),
                     num_layers: Optional[int] = None,
                     max_iterations: int = 4,
                     placement_iterations: int = 2000,
                     seed: int = 0) -> ClosureResult:
    """Iterate analyse -> ECO -> re-route until the layout closes.

    Places and routes the netlist, then repeatedly applies the
    registered ECO passes — bury, shield, fill, each only while its
    metric is violated.  After each pass the pass manager's own
    :func:`~repro.flow.manager.run_pass` re-checks every metric the
    pass does not declare preserved and writes the per-pass
    provenance; the loop reads the latest of those measurements.  The
    critical nets are :func:`default_critical_nets`, and the metrics
    use the :mod:`~repro.physical.attack_surface` defaults.  The
    result is ``converged`` when every metric is under its threshold
    and no net is left unrouted (``failed_nets`` is empty).
    """
    # Flow imports are deferred: repro.flow imports repro.physical at
    # module level (library.py, layout_library.py), so importing it
    # back here at module level would cycle.
    from ..flow import (FlowContext, FlowTrace, PropertyCheck,
                        SecurityProperty as P, create_pass, netlist_design)
    from ..flow.manager import declared_rechecks, recheck, run_pass
    from ..flow.properties import layout_checkers
    from ..formal import check_equivalence

    golden = netlist.copy(netlist.name + "_golden")
    area_before = ppa_report(netlist).area
    placement = annealing_placement(
        netlist, iterations=placement_iterations, seed=seed).placement
    critical = default_critical_nets(netlist)

    ctx = FlowContext(netlist_design(netlist, seed=seed), seed=seed)
    ctx.placement = placement
    ctx.notes["critical-nets"] = critical
    checkers = layout_checkers(
        probing_threshold=thresholds.probing,
        fia_threshold=thresholds.fia,
        trojan_threshold=thresholds.trojan)

    def equivalence_check(run_ctx: FlowContext) -> PropertyCheck:
        cec = check_equivalence(golden, run_ctx.design.netlist)
        return PropertyCheck(
            P.FUNCTIONAL_EQUIVALENCE, cec.equivalent,
            0.0 if cec.equivalent else 1.0,
            "SAT CEC against pre-closure netlist: "
            + ("equivalent" if cec.equivalent else
               f"MISMATCH on {cec.mismatched_output}"))

    checkers[P.FUNCTIONAL_EQUIVALENCE] = equivalence_check
    metric_of = {P.PROBING_EXPOSURE.value: "probing",
                 P.FIA_EXPOSURE.value: "fia",
                 P.TROJAN_INSERTABILITY.value: "trojan"}
    trace = FlowTrace(netlist.name)
    latest = {}                    # metric name -> its latest re-check

    def measured(rechecks) -> ClosureMetrics:
        latest.update((metric_of[r.key], r) for r in rechecks
                      if r.key in metric_of)
        return ClosureMetrics(**{m: r.value for m, r in latest.items()})

    def violated(metric: str) -> bool:
        return not latest[metric].passed

    def eco(name: str) -> Dict[str, object]:
        """Apply one ECO; re-check what its declaration does not
        preserve, with the declared action as the reason."""
        p = create_pass(name)
        prov = run_pass(trace, p, ctx, checkers,
                        declared_rechecks(p, checkers))
        measured(prov.rechecks)
        return prov.details

    # Route (nothing is measured yet, so nothing to re-check), then
    # take the metric baseline.
    run_pass(trace, create_pass("route", num_layers=num_layers), ctx,
             checkers, ())
    trace.baseline.extend(recheck(checkers, prop, ctx, "baseline",
                                  "baseline") for prop in
                          (P.PROBING_EXPOSURE, P.FIA_EXPOSURE,
                           P.TROJAN_INSERTABILITY))
    initial = measured(trace.baseline)

    shields_added = 0
    filler_sites = 0
    buried: List[str] = []
    iterations = 0
    for _ in range(max_iterations):
        if not any(violated(m) for m in metric_of.values()):
            break
        iterations += 1
        if violated("probing"):
            eco("bury-critical-nets")
            buried.extend(ctx.notes.get("buried-nets", []))
        if violated("probing") or violated("fia"):
            shields_added += int(eco("shield-insertion")["shields_added"])
        if violated("trojan"):
            filler_sites += int(eco("eco-filler")["filler_sites"])

    # Final verification: the three metrics plus CEC against the
    # pre-closure netlist (ECOs are layout-only; prove it anyway).
    area_after = ppa_report(ctx.design.netlist).area
    overhead = ((area_after - area_before) / area_before
                if area_before else 0.0)
    trace.final.extend(recheck(checkers, prop, ctx, "final", "baseline")
                       for prop in checkers)
    metrics = measured(trace.final)
    cec = trace.final[-1]          # functional equivalence, added last

    # The metrics only see wires that exist, so a layout with an
    # unrouted net is not closed (and no ECO can route it).
    failed = list(ctx.routing.failed)
    return ClosureResult(
        design_name=netlist.name,
        converged=(not failed
                   and not any(violated(m) for m in metric_of.values())),
        iterations=iterations,
        initial_metrics=initial,
        metrics=metrics,
        thresholds=thresholds,
        equivalent=cec.passed,
        area_overhead=overhead,
        shields_added=shields_added,
        filler_sites=filler_sites,
        buried_nets=buried,
        failed_nets=failed,
        critical_nets=critical,
        trace=trace,
        layout=ctx.routing,
        placement=placement)
