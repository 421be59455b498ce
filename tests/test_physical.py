"""Tests for physical synthesis: placement, timing, layers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import c17, random_circuit, ripple_carry_adder
from repro.physical import (
    DEFAULT_THRESHOLDS,
    Placement,
    annealing_placement,
    arrival_times_placed,
    assign_layers,
    critical_path_placed,
    hpwl,
    layer_histogram,
    nets_for_wirelength,
    output_path_delays,
    power_density_map,
    random_placement,
    split_wires,
    wire_delay,
)


class TestPlacement:
    def test_random_placement_legal(self):
        n = c17()
        p = random_placement(n, seed=1)
        positions = list(p.positions.values())
        assert len(positions) == len(set(positions))  # one cell per site
        assert all(0 <= x < p.width and 0 <= y < p.height
                   for x, y in positions)

    def test_die_too_small_rejected(self):
        n = ripple_carry_adder(8)
        with pytest.raises(ValueError):
            random_placement(n, width=2, height=2)

    def test_annealing_improves(self):
        n = ripple_carry_adder(6)
        result = annealing_placement(n, iterations=5000, seed=0)
        assert result.final_hpwl < result.initial_hpwl
        assert result.improvement > 0.2

    def test_annealing_stays_legal(self):
        n = ripple_carry_adder(4)
        result = annealing_placement(n, iterations=3000, seed=3)
        positions = list(result.placement.positions.values())
        assert len(positions) == len(set(positions))

    def test_hpwl_zero_for_colocated(self):
        n = c17()
        p = random_placement(n, seed=0)
        for cell in p.positions:
            p.positions[cell] = (0, 0)
        # All cells at one site cannot happen physically, but HPWL is 0.
        assert hpwl(p, nets_for_wirelength(n)) == 0.0

    def test_distance(self):
        p = Placement({"a": (0, 0), "b": (3, 4)}, 10, 10)
        assert p.distance("a", "b") == 7

    def test_copy_independent(self):
        p = Placement({"a": (0, 0)}, 4, 4)
        q = p.copy()
        q.positions["a"] = (1, 1)
        assert p.positions["a"] == (0, 0)


class TestTiming:
    def test_wire_delay_scales_with_distance(self):
        p = Placement({"a": (0, 0), "b": (5, 0)}, 10, 10)
        assert wire_delay(p, "a", "b") == 5 * wire_delay(
            p, "a", "b") / 5

    def test_placed_arrival_monotone(self):
        n = c17()
        p = random_placement(n, seed=2)
        at = arrival_times_placed(n, p)
        for g in n.gates.values():
            for fi in g.fanins:
                assert at[g.name] > at[fi]

    def test_placed_critical_ge_unplaced(self):
        from repro.netlist import critical_path_delay
        n = ripple_carry_adder(6)
        p = random_placement(n, seed=4)
        assert critical_path_placed(n, p) >= critical_path_delay(n)

    def test_path_delay_noise_reproducible(self):
        n = c17()
        a = output_path_delays(n, delay_noise=0.05, seed=7).vector()
        b = output_path_delays(n, delay_noise=0.05, seed=7).vector()
        c = output_path_delays(n, delay_noise=0.05, seed=8).vector()
        assert (a == b).all()
        assert not (a == c).all()

    def test_power_density_total(self):
        from repro.netlist import leakage_power
        n = ripple_carry_adder(4)
        p = random_placement(n, seed=5)
        grid = power_density_map(n, p, bins=4)
        assert grid.sum() == pytest.approx(leakage_power(n), rel=0.01)


class TestLayers:
    def test_short_wires_low_layers(self):
        p = Placement({"a": (0, 0), "b": (1, 0)}, 10, 10)
        from repro.netlist import GateType, Netlist
        n = Netlist()
        n.add_input("a")
        n.add_gate("b", GateType.NOT, ["a"])
        n.add_output("b")
        wires = assign_layers(n, p)
        assert all(w.layer == 1 for w in wires)

    def test_long_wires_high_layers(self):
        from repro.netlist import GateType, Netlist
        n = Netlist()
        n.add_input("a")
        n.add_gate("b", GateType.NOT, ["a"])
        n.add_output("b")
        p = Placement({"a": (0, 0), "b": (40, 40)}, 64, 64)
        wires = assign_layers(n, p)
        assert all(w.layer == len(DEFAULT_THRESHOLDS) + 1 for w in wires)

    def test_lifting_forces_top_layer(self):
        n = ripple_carry_adder(4)
        p = random_placement(n, seed=6)
        lifted = {n.inputs[0]}
        wires = assign_layers(n, p, lifted=lifted)
        for w in wires:
            if w.driver in lifted:
                assert w.layer == len(DEFAULT_THRESHOLDS) + 1

    def test_split_partitions(self):
        n = ripple_carry_adder(4)
        p = random_placement(n, seed=7)
        wires = assign_layers(n, p)
        visible, hidden = split_wires(wires, 2)
        assert len(visible) + len(hidden) == len(wires)
        assert all(w.layer <= 2 for w in visible)
        assert all(w.layer > 2 for w in hidden)

    def test_histogram_counts(self):
        n = ripple_carry_adder(4)
        p = random_placement(n, seed=8)
        wires = assign_layers(n, p)
        hist = layer_histogram(wires)
        assert sum(hist.values()) == len(wires)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100))
def test_annealing_never_worse_property(seed):
    n = c17()
    result = annealing_placement(n, iterations=800, seed=seed)
    assert result.final_hpwl <= result.initial_hpwl
