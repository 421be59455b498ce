"""X11 — Sec. III-D: security closure of routed layouts.

Routes benchmark designs through the multi-layer maze router, measures
the three layout attack-surface metrics (probing / FIA / Trojan), and
runs the iterative ECO closure loop.  Paper-shape expectations:

* a PPA-only layout ships with an open attack surface — critical nets
  reachable by probes or lasers, free sites for Trojan logic;
* the closure loop drives every metric under threshold with layout-only
  ECOs (bury / shield / fill): zero functional cells added, SAT CEC
  clean against the pre-closure netlist;
* the router itself stays the dominant cost, so closure is benchmarked
  as route time vs full-loop time.

``--check`` gates both benchmarks: the router's negotiated-congestion
search and the closure loop's re-measure cadence are the two knobs a
future change is most likely to regress.
"""

from repro.crypto import present_sbox_netlist
from repro.netlist import ripple_carry_adder
from repro.physical import (
    annealing_placement,
    default_critical_nets,
    fia_exposure,
    maze_route,
    probing_exposure,
    security_closure,
    trojan_insertability,
)


def _placed(netlist, seed=2, iterations=3000):
    return annealing_placement(netlist, seed=seed,
                               iterations=iterations).placement


def run_routing(netlist, placement):
    """Route one placed design; return the layout summary."""
    layout = maze_route(netlist, placement)
    critical = default_critical_nets(netlist)
    return {
        "nets": len(layout.nets),
        "failed": list(layout.failed),
        "wirelength": layout.total_wirelength,
        "vias": layout.total_vias,
        "initial": {
            "probing": probing_exposure(layout, critical).exposure,
            "fia": fia_exposure(layout, critical).exposure,
            "trojan": trojan_insertability(
                layout, placement.positions.values()).exposure},
    }


def run_closure(netlist):
    """Full place -> route -> analyse -> ECO loop on one design."""
    return security_closure(netlist, seed=2)


def test_maze_route_rca16(benchmark):
    design = ripple_carry_adder(16)
    placement = _placed(design)
    study = benchmark.pedantic(run_routing, args=(design, placement),
                               rounds=3, iterations=1)
    print(f"\n=== maze routing: rca16 ===")
    print(f"{study['nets']} nets routed, {len(study['failed'])} failed, "
          f"WL {study['wirelength']}, {study['vias']} vias")
    print(f"open attack surface: {study['initial']}")
    assert study["failed"] == []
    # A PPA-only layout ships open somewhere: at least one metric hot.
    assert max(study["initial"].values()) > 0.05


def test_security_closure_present_sbox(benchmark):
    design = present_sbox_netlist()
    result = benchmark.pedantic(run_closure, args=(design,),
                                rounds=5, iterations=1)
    print(f"\n=== security closure: present_sbox ===")
    print(f"converged in {result.iterations} iteration(s): "
          f"{result.initial_metrics.as_dict()} -> "
          f"{result.metrics.as_dict()}")
    print(f"ECOs: {result.shields_added} shields, "
          f"{result.filler_sites} fillers, "
          f"{len(result.buried_nets)} nets buried; "
          f"CEC {'clean' if result.equivalent else 'MISMATCH'}, "
          f"area overhead {result.area_overhead:.1%}")
    assert result.converged
    assert result.equivalent
    assert result.failed_nets == []
    assert result.area_overhead <= 0.01
