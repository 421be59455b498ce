"""Tests for layout attack-surface metrics and the security-closure loop."""

import pytest

from repro.flow import (
    EcoFillerPass,
    SecurityProperty as P,
    preserves_all,
    registered_passes,
    strip_wall_times,
)
from repro.crypto import present_sbox_netlist
from repro.netlist import array_multiplier, c17, ripple_carry_adder
from repro.physical import (
    ClosureThresholds,
    RoutedLayout,
    RoutedNet,
    annealing_placement,
    bury_critical_nets,
    default_critical_nets,
    fia_exposure,
    insert_fillers,
    insert_shields,
    maze_route,
    probing_exposure,
    security_closure,
    trojan_insertability,
    uncovered_critical_nodes,
)


def _line_layout(num_layers=4, layer=4, width=9, height=9):
    """A single 3-node critical net routed laterally on ``layer``."""
    layout = RoutedLayout(width=width, height=height,
                          num_layers=num_layers)
    routed = RoutedNet("crit", (0, 0), [])
    path = [(0, 0, 1)]
    path += [(0, 0, l) for l in range(2, layer + 1)]
    path += [(1, 0, layer), (2, 0, layer)]
    path += [(2, 0, l) for l in range(layer - 1, 0, -1)]
    routed.sink_pins = [(2, 0)]
    routed.branches[(2, 0)] = path
    layout.claim("crit", routed)
    return layout


class TestProbing:
    def test_top_layer_wire_is_exposed(self):
        layout = _line_layout(num_layers=4, layer=4)
        report = probing_exposure(layout, ["crit"], probe_layers=2)
        assert report.exposure > 0
        assert all(n[2] >= 3 for n in report.exposed_nodes)

    def test_buried_wire_is_closed(self):
        layout = _line_layout(num_layers=4, layer=1)
        report = probing_exposure(layout, ["crit"], probe_layers=2)
        assert report.exposure == 0.0

    def test_shield_covers_node(self):
        layout = _line_layout(num_layers=4, layer=3)
        before = probing_exposure(layout, ["crit"], probe_layers=2)
        assert before.exposure > 0
        added = insert_shields(layout, ["crit"])
        assert added > 0
        after = probing_exposure(layout, ["crit"], probe_layers=2)
        assert after.exposure == 0.0
        assert uncovered_critical_nodes(layout, ["crit"]) == []

    def test_topmost_layer_needs_burying_not_shields(self):
        layout = _line_layout(num_layers=4, layer=4)
        insert_shields(layout, ["crit"])
        # No room above the top layer: exposure remains.
        assert probing_exposure(layout, ["crit"],
                                probe_layers=2).exposure > 0


class TestFia:
    def test_uncovered_wire_reachable(self):
        layout = _line_layout(num_layers=4, layer=2)
        report = fia_exposure(layout, ["crit"], spot_radius=2)
        assert 0 < report.exposure <= 1
        assert report.vulnerable_sites > 0

    def test_spot_radius_grows_exposure(self):
        layout = _line_layout(num_layers=4, layer=2)
        small = fia_exposure(layout, ["crit"], spot_radius=1)
        large = fia_exposure(layout, ["crit"], spot_radius=3)
        assert large.exposure >= small.exposure

    def test_shielded_wire_is_shadowed(self):
        layout = _line_layout(num_layers=4, layer=2)
        insert_shields(layout, ["crit"])
        assert fia_exposure(layout, ["crit"]).exposure == 0.0


class TestTrojan:
    def test_empty_die_fully_exploitable(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        report = trojan_insertability(layout, [])
        assert report.exposure == 1.0

    def test_fillers_close_regions(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        added = insert_fillers(layout, [])
        assert added == 81
        assert trojan_insertability(layout, []).exposure == 0.0

    def test_occupied_sites_not_free(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        occupied = [(x, y) for x in range(9) for y in range(9)
                    if x != 4]
        report = trojan_insertability(layout, occupied, min_sites=4)
        assert report.exploitable_sites == 9  # the free column
        assert report.exposure == pytest.approx(9 / 81)

    def test_small_regions_not_exploitable(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        occupied = [(x, y) for x in range(9) for y in range(9)
                    if (x, y) not in ((0, 0), (0, 1))]
        report = trojan_insertability(layout, occupied, min_sites=4)
        assert report.exposure == 0.0

    def test_site_coordinates_with_scaled_grid(self):
        n = ripple_carry_adder(8)
        placement = annealing_placement(n, seed=2,
                                        iterations=500).placement
        layout = maze_route(n, placement)
        assert layout.scale == 2
        report = trojan_insertability(layout,
                                      placement.positions.values())
        assert report.total_sites == placement.width * placement.height
        for region in report.regions:
            for x, y in region.sites:
                assert 0 <= x < placement.width
                assert 0 <= y < placement.height


class TestBury:
    def test_bury_caps_critical_layers(self):
        n = ripple_carry_adder(8)
        placement = annealing_placement(n, seed=0,
                                        iterations=800).placement
        layout = maze_route(n, placement, num_layers=3)
        critical = [name for name in default_critical_nets(n)
                    if name in layout.nets]
        assert critical
        bury_critical_nets(layout, n, placement, critical,
                           probe_depth=2)
        cap = layout.num_layers - 2
        for name in critical:
            if name in layout.nets:
                assert layout.nets[name].max_layer <= cap, name


class TestSecurityClosure:
    @pytest.mark.parametrize("make", [c17,
                                      lambda: ripple_carry_adder(8)])
    def test_closes_benchmark_designs(self, make):
        netlist = make()
        result = security_closure(netlist, seed=2)
        thresholds = result.thresholds
        assert result.converged
        assert result.metrics.probing <= thresholds.probing
        assert result.metrics.fia <= thresholds.fia
        assert result.metrics.trojan <= thresholds.trojan
        assert result.equivalent          # SAT CEC vs golden
        assert result.area_overhead <= 0.01
        assert result.failed_nets == []

    def test_trace_has_per_iteration_provenance(self):
        result = security_closure(c17(), seed=2)
        names = [p.pass_name for p in result.trace.passes]
        assert names[0] == "route"
        assert len(names) >= 2             # at least one ECO applied
        for prov in result.trace.passes[1:]:
            assert prov.rechecks           # every ECO re-checked
        final_props = {r.key for r in result.trace.final}
        assert "functional-equivalence" in final_props
        assert "probing-exposure" in final_props
        assert all(r.passed for r in result.trace.final)

    def test_closure_is_deterministic(self):
        a = security_closure(c17(), seed=3).to_dict()
        b = security_closure(c17(), seed=3).to_dict()
        for d in (a, b):                   # wall times may differ
            d["trace"] = strip_wall_times(d["trace"])
        assert a == b

    def test_eco_rechecks_follow_declared_effects(self):
        # 3 layers: bury, shield and filler all run.
        result = security_closure(ripple_carry_adder(8), num_layers=3,
                                  seed=0)
        ecos = result.trace.passes[1:]
        assert [p.pass_name for p in ecos] == [
            "bury-critical-nets", "shield-insertion", "eco-filler"]
        for prov in ecos:
            declared = registered_passes()[prov.pass_name].effects
            expected = {prop.value: declared.classify(prop)
                        for prop in P if prop not in declared.preserves}
            assert {r.key: r.reason for r in prov.rechecks} == expected

    def test_eco_rechecks_track_a_changed_declaration(self, monkeypatch):
        monkeypatch.setattr(EcoFillerPass, "effects", preserves_all(
            establishes=[P.TROJAN_INSERTABILITY],
            invalidates=[P.FIA_EXPOSURE]))
        result = security_closure(c17(), seed=2)
        filler = result.trace.passes[-1]
        assert filler.pass_name == "eco-filler"
        assert [(r.key, r.reason) for r in filler.rechecks] == [
            ("fia-exposure", "invalidates"),
            ("trojan-insertability", "establishes")]

    def test_bury_loop_on_shallow_stack(self):
        # With only 3 layers, probe depth 2 reaches layer 2 — burying
        # (not just shielding) must participate to converge.
        n = ripple_carry_adder(8)
        result = security_closure(n, num_layers=3, seed=0)
        assert result.metrics.probing <= result.thresholds.probing
        assert result.equivalent

    def test_impossible_thresholds_do_not_loop_forever(self):
        thresholds = ClosureThresholds(probing=-1.0, fia=-1.0,
                                       trojan=-1.0)
        result = security_closure(c17(), thresholds=thresholds,
                                  max_iterations=2, seed=0)
        assert not result.converged
        assert result.iterations == 2

    def test_unrouted_net_is_not_converged(self):
        # The initial route spends its rip-up budget and drops a net;
        # the metrics only see wires that exist, so they all pass.
        result = security_closure(present_sbox_netlist(), seed=3)
        assert result.failed_nets == ["x0"]
        assert all(r.passed for r in result.trace.final)
        assert result.equivalent
        assert not result.converged


#: The closure verdict sweep: placement seeds and, per design, the
#: seeds whose layout keeps an unrouted net (the router's rip-up
#: budget runs out).  A change may route more nets, never fewer.
VERDICT_SEEDS = range(20)
VERDICT_DESIGNS = {
    "present-sbox": (present_sbox_netlist, {3, 9}),
    "rca8": (lambda: ripple_carry_adder(8), set()),
    "mult4": (lambda: array_multiplier(4), set()),
}


@pytest.mark.parametrize("design", sorted(VERDICT_DESIGNS))
def test_closure_verdicts_over_seeds(design):
    make, allowed_unrouted = VERDICT_DESIGNS[design]
    unrouted = set()
    for seed in VERDICT_SEEDS:
        result = security_closure(make(), seed=seed)
        assert result.equivalent, seed
        if result.failed_nets:
            unrouted.add(seed)
            assert not result.converged, seed
            continue
        thresholds = result.thresholds
        assert result.converged, seed
        assert result.metrics.probing <= thresholds.probing, seed
        assert result.metrics.fia <= thresholds.fia, seed
        assert result.metrics.trojan <= thresholds.trojan, seed
    assert unrouted <= allowed_unrouted
