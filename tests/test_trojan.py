"""Tests for Trojan insertion, MERO, fingerprinting, and monitors."""

import random

import pytest

from repro.formal import solve_circuit
from repro.netlist import output_values, random_circuit, simulate
from repro.physical import annealing_placement
from repro.trojan import (
    apply_test_set,
    bisa_fill,
    build_fingerprint,
    build_ro_network,
    calibrate_iddq,
    detection_rate,
    generate_mero_tests,
    golden_population_delays,
    insert_monitors,
    insert_rare_trigger_trojan,
    insertion_feasibility,
    measure_chip,
    pair_trigger_coverage,
    rare_nodes,
    random_test_set,
    regional_leakage,
    ro_detection,
    screen_iddq,
    screen_population,
    signal_probabilities,
)


@pytest.fixture(scope="module")
def host():
    return random_circuit(12, 150, 6, seed=8)


@pytest.fixture(scope="module")
def trojan(host):
    return insert_rare_trigger_trojan(host, trigger_width=3, seed=1)


class TestInsertion:
    def test_signal_probabilities_bounds(self, host):
        probs = signal_probabilities(host, n_vectors=512)
        assert all(0.0 <= p <= 1.0 for p in probs.values())

    def test_rare_nodes_sorted(self, host):
        rare = rare_nodes(host, 0.2)
        probs = [p for _, _, p in rare]
        assert probs == sorted(probs)

    def test_trojan_netlist_valid(self, trojan):
        trojan.netlist.validate()

    def test_function_preserved_when_dormant(self, host, trojan):
        rng = random.Random(0)
        for _ in range(40):
            stim = {name: rng.randint(0, 1) for name in host.inputs}
            values = simulate(trojan.netlist, stim)
            if not values[trojan.trigger_net] & 1:
                assert output_values(host, stim) == {
                    o: values[o] for o in host.outputs}

    def test_payload_flips_when_triggered(self, host, trojan):
        trigger_input = solve_circuit(trojan.netlist, {},
                                      {trojan.trigger_net: 1})
        assert trigger_input is not None
        values = simulate(trojan.netlist, trigger_input)
        clean = output_values(host, trigger_input)
        dirty = {o: values[o] for o in host.outputs}
        # The payload flips the victim; outputs may or may not change
        # depending on propagation, but the victim's consumers see it.
        fanout = trojan.netlist.fanout_map()
        assert any(c.startswith("tj_pay") for c
                   in fanout[trojan.victim_net])

    def test_trigger_probability_small(self, trojan):
        assert 0 < trojan.trigger_probability < 0.05

    def test_victim_outside_trigger_cone(self, trojan):
        cone = trojan.netlist.transitive_fanin(
            [net for net, _ in trojan.trigger_inputs])
        assert trojan.victim_net not in cone

    def test_reproducible(self, host):
        a = insert_rare_trigger_trojan(host, trigger_width=2, seed=4)
        b = insert_rare_trigger_trojan(host, trigger_width=2, seed=4)
        assert a.victim_net == b.victim_net
        assert a.trigger_inputs == b.trigger_inputs


class TestMero:
    def test_generation_meets_some_quota(self, host):
        tests = generate_mero_tests(host, n_detect=5, n_initial=100,
                                    seed=2)
        assert tests.vectors
        assert tests.quota_fraction > 0.3

    def test_pair_coverage_beats_random(self, host):
        mero = generate_mero_tests(host, n_detect=10, n_initial=200,
                                   seed=3)
        budget = len(mero.vectors)
        mero_cov = pair_trigger_coverage(host, mero.vectors, seed=1)
        rand_cov = pair_trigger_coverage(
            host, random_test_set(host, budget, seed=2), seed=1)
        assert mero_cov > rand_cov

    def test_apply_test_set_detects_or_not(self, host, trojan):
        outcome = apply_test_set(trojan, random_test_set(host, 20, seed=5))
        assert isinstance(outcome.triggered, bool)
        if outcome.triggered:
            assert outcome.triggering_vector is not None

    def test_detection_rate_bounds(self, host):
        vectors = random_test_set(host, 30, seed=6)
        rate = detection_rate(host, vectors, n_trojans=6, seed=7)
        assert 0.0 <= rate <= 1.0


class TestFingerprint:
    def test_population_shape(self, host):
        pop = golden_population_delays(host, n_chips=10, seed=1)
        assert pop.shape == (10, len(host.outputs))

    def test_golden_chips_pass(self, host):
        fingerprint = build_fingerprint(host, n_chips=25, seed=2)
        false_positives = sum(
            1 for i in range(10)
            if fingerprint.is_outlier(
                measure_chip(host, seed=5000 + i,
                             fingerprint=fingerprint)))
        assert false_positives <= 1

    def test_trojan_detected(self, host, trojan):
        fingerprint = build_fingerprint(host, n_chips=25, seed=3)
        fpr, detection = screen_population(
            fingerprint, host, trojan.netlist, n_chips=10)
        assert detection > 0.8
        assert fpr < 0.2


class TestSideChannelDetection:
    @pytest.fixture(scope="class")
    def placed(self, host):
        return annealing_placement(host, iterations=2000, seed=4).placement

    def test_iddq_clean_passes(self, host, placed):
        detector = calibrate_iddq(host, placed, n_chips=15)
        assert screen_iddq(detector, host, placed, n_chips=8) <= 0.2

    def test_iddq_flags_trojan(self, host, trojan, placed):
        detector = calibrate_iddq(host, placed, n_chips=15)
        compromised = placed.copy()
        occupied = set(compromised.positions.values())
        free = sorted(
            (x, y) for x in range(compromised.width)
            for y in range(compromised.height) if (x, y) not in occupied)
        cells = [g for g in trojan.netlist.gates if g.startswith("tj_")]
        for cell, site in zip(cells, free):
            compromised.positions[cell] = site
        assert screen_iddq(detector, trojan.netlist, compromised,
                           n_chips=8) > 0.8

    def test_ro_network_detects(self, host, trojan, placed):
        compromised = placed.copy()
        occupied = set(compromised.positions.values())
        free = sorted(
            (x, y) for x in range(compromised.width)
            for y in range(compromised.height) if (x, y) not in occupied)
        cells = [g for g in trojan.netlist.gates if g.startswith("tj_")]
        for cell, site in zip(cells, free):
            compromised.positions[cell] = site
        network = build_ro_network(placed)
        detected, max_z = ro_detection(network, host, placed,
                                       trojan.netlist, compromised, cells)
        assert detected and max_z > 4.0

    def test_ro_clean_not_flagged(self, host, placed):
        network = build_ro_network(placed)
        detected, _ = ro_detection(network, host, placed, host, placed,
                                   [], seed=60)
        assert not detected

    def test_regional_leakage_positive(self, host, placed):
        currents = regional_leakage(host, placed)
        assert (currents > 0).all()


class TestMonitorsBisa:
    def test_monitor_alarm_quiet_on_clean(self, host):
        monitored = insert_monitors(host)
        rng = random.Random(8)
        for _ in range(30):
            stim = {name: rng.randint(0, 1) for name in host.inputs}
            assert simulate(monitored.netlist, stim)["monitor_alarm"] == 0

    def test_monitor_proves_no_silent_payload(self, host):
        from repro.formal import CircuitEncoder
        monitored = insert_monitors(host)
        trojan = insert_rare_trigger_trojan(monitored.netlist,
                                            trigger_width=2, seed=9)
        enc = CircuitEncoder()
        clean_vars = enc.encode(host)
        shared = {name: clean_vars[name] for name in host.inputs}
        dirty_vars = enc.encode(trojan.netlist, bind=shared)
        diffs = [enc.xor_of(clean_vars[o], dirty_vars[o])
                 for o in host.outputs]
        enc.assert_equal(enc.or_of(diffs), 1)
        enc.assert_equal(dirty_vars["monitor_alarm"], 0)
        assert enc.solver.solve() is False

    def test_bisa_full_fill_blocks_insertion(self, host):
        placement = annealing_placement(host, iterations=1500,
                                        seed=10).placement
        fill = bisa_fill(placement, 1.0)
        assert fill.fill_rate == 1.0
        assert not insertion_feasibility(placement, fill, 3)

    def test_partial_fill_leaves_room(self, host):
        placement = annealing_placement(host, iterations=1500,
                                        seed=10).placement
        fill = bisa_fill(placement, 0.3, seed=1)
        assert insertion_feasibility(placement, fill, 3)
