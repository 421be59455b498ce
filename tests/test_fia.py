"""Tests for fault injection: models, campaigns, codes, DFA, sensors."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AES128
from repro.fia import (
    BIT_FAULTS,
    DetectAndSuppressAES,
    DfaAttacker,
    Fault,
    FaultDiscriminator,
    FaultKind,
    InfectiveAES,
    Response,
    Verdict,
    attack_fault_stream,
    dfa_on_unprotected,
    duplicate_and_compare,
    enumerate_faults,
    fault_campaign,
    formal_coverage,
    greedy_sensor_placement,
    inject_fault,
    injection_campaign,
    last_round_candidates,
    natural_fault_stream,
    parity_protect,
    residue_protect_adder,
    tmr_protect,
)
from repro.netlist import (
    GateType,
    Netlist,
    c17,
    decode_int,
    encode_int,
    output_values,
    ripple_carry_adder,
    simulate,
    step_sequential,
)


class TestInjection:
    def test_stuck_at_changes_behavior(self):
        n = c17()
        faulty = inject_fault(n, Fault("G10", FaultKind.STUCK_AT_1))
        stim = {k: 1 for k in n.inputs}
        # G10 = NAND(1,1) = 0 normally; stuck at 1 flips G22.
        assert simulate(faulty, stim)["G10"] == 1

    def test_bit_flip_inverts(self):
        n = c17()
        faulty = inject_fault(n, Fault("G16", FaultKind.BIT_FLIP))
        stim = {k: 0 for k in n.inputs}
        good = simulate(n, stim)
        bad = simulate(faulty, stim)
        flipped = [net for net in ("G22", "G23")
                   if good[net] != bad[net]]
        assert flipped  # the inversion must reach an output for this stim

    def test_stuck_input(self):
        n = c17()
        faulty = inject_fault(n, Fault("G1", FaultKind.STUCK_AT_0))
        v0 = output_values(faulty, {k: 1 for k in n.inputs})
        v1 = output_values(faulty, {**{k: 1 for k in n.inputs}, "G1": 0})
        assert v0 == v1  # input value no longer matters

    def test_enumerate_faults(self):
        n = c17()
        all_faults = enumerate_faults(n)
        assert len(all_faults) == 2 * len(n.gates)
        flips = enumerate_faults(n, kinds=(FaultKind.BIT_FLIP,))
        assert len(flips) == len(n.gates)
        assert {f.kind for f in flips} == {FaultKind.BIT_FLIP}
        assert {f.net for f in flips} == set(n.gates)


class TestCodes:
    def setup_method(self):
        self.payload = ripple_carry_adder(4)

    def _functional_check(self, protected, a, b):
        stim = {}
        stim.update(encode_int(a, [f"a{i}" for i in range(4)]))
        stim.update(encode_int(b, [f"b{i}" for i in range(4)]))
        values = simulate(protected.netlist, stim)
        got = decode_int(values, [f"o_s{i}" for i in range(4)] + ["o_cout"])
        assert got == a + b
        assert values["alarm"] == 0

    @pytest.mark.parametrize("factory", [
        duplicate_and_compare, parity_protect, tmr_protect,
    ])
    def test_protected_functional(self, factory):
        protected = factory(self.payload)
        protected.netlist.validate()
        for a, b in [(0, 0), (15, 15), (7, 9)]:
            self._functional_check(protected, a, b)

    def test_residue_functional(self):
        protected = residue_protect_adder(4)
        for a, b in [(0, 0), (15, 15), (5, 11)]:
            self._functional_check(protected, a, b)

    def test_duplication_full_coverage(self):
        protected = duplicate_and_compare(self.payload)
        faults = [Fault(g, FaultKind.STUCK_AT_0)
                  for g in protected.netlist.gates if g.startswith("m_")]
        report = fault_campaign(protected.netlist, faults, 64,
                                alarm="alarm")
        assert report.coverage == 1.0
        assert report.silent == 0

    def test_parity_misses_even_errors(self):
        protected = parity_protect(self.payload)
        faults = [Fault(g, FaultKind.STUCK_AT_0)
                  for g in protected.netlist.gates if g.startswith("m_")]
        report = fault_campaign(protected.netlist, faults, 128,
                                alarm="alarm")
        assert report.coverage < 1.0
        assert report.silent > 0

    def test_tmr_masks_single_faults(self):
        protected = tmr_protect(self.payload)
        faults = [Fault(g, FaultKind.STUCK_AT_1)
                  for g in protected.netlist.gates
                  if g.startswith("r1_")][:20]
        report = fault_campaign(protected.netlist, faults, 64,
                                alarm="alarm",
                                payload_outputs=protected.payload_outputs)
        assert report.propagating == 0  # corrected, not just detected

    def test_residue_catches_single_faults(self):
        protected = residue_protect_adder(4)
        faults = [Fault(g, FaultKind.STUCK_AT_1)
                  for g in protected.netlist.gates if g.startswith("m_")]
        report = fault_campaign(protected.netlist, faults, 128,
                                alarm="alarm")
        assert report.coverage > 0.9

    def test_overhead_ordering(self):
        dup = duplicate_and_compare(self.payload)
        tmr = tmr_protect(self.payload)
        assert tmr.overhead_cells > dup.overhead_cells


class TestFormalFaultAnalysis:
    def test_prove_duplication_fault(self):
        protected = duplicate_and_compare(ripple_carry_adder(3))
        fault = Fault(next(g for g in protected.netlist.gates
                           if g.startswith("m_fa0")),
                      FaultKind.STUCK_AT_0)
        assert formal_coverage(protected.netlist, [fault], "alarm") == \
            (1.0, [])

    def test_witness_is_real_silent_corruption(self):
        protected = parity_protect(ripple_carry_adder(3))
        faults = [Fault(g, FaultKind.STUCK_AT_1)
                  for g in protected.netlist.gates if g.startswith("m_")]
        _, missed = formal_coverage(protected.netlist, faults, "alarm")
        assert missed
        result = missed[0]
        faulty = inject_fault(protected.netlist, result.fault)
        good = output_values(protected.netlist, result.witness)
        bad = output_values(faulty, result.witness)
        corrupted = any(
            good[o] != bad[o] for o in protected.payload_outputs)
        assert corrupted and bad["alarm"] == 0

    def test_flop_outputs_are_shared_on_sequential_designs(self):
        """Duplicating ``q = DFF(a)``, ``y = q XOR a``: the shadow copy,
        the comparator and the alarm cannot reach the payload output
        ``o_y``, so their stuck-at-0 faults are harmless once the faulty
        copy reads the fault-free copy's flop state, instead of a free
        state of its own."""
        payload = Netlist("one_flop")
        payload.add_input("a")
        payload.add_gate("q", GateType.DFF, ["a"])
        payload.add_gate("y", GateType.XOR, ["q", "a"])
        payload.add_output("y")
        protected = duplicate_and_compare(payload)
        assert protected.payload_outputs == ["o_y"]
        harmless = ["s_q", "s_y", "cmp0", "alarm"]
        faults = [Fault(net, FaultKind.STUCK_AT_0) for net in harmless]
        assert formal_coverage(protected.netlist, faults, "alarm") == \
            (1.0, [])
        # A redundant fault whose cone reads a flop: ``g`` is constant
        # 1, so stuck-at-1 on it is harmless when both copies read one
        # state of ``q``.
        n = Netlist("flop_in_cone")
        n.add_input("a")
        n.add_gate("q", GateType.DFF, ["a"])
        n.add_gate("na", GateType.NOT, ["a"])
        n.add_gate("g", GateType.OR, ["a", "na"])
        n.add_gate("y", GateType.XOR, ["q", "g"])
        n.add_gate("alarm", GateType.AND, ["a", "na"])
        n.add_output("y")
        n.add_output("alarm")
        assert formal_coverage(n, [Fault("g", FaultKind.STUCK_AT_1)],
                               "alarm") == (1.0, [])

    def test_fault_that_only_corrupts_the_next_state_is_missed(self):
        """Duplicating ``q = DFF(a)``, ``y = BUF(q)``: stuck-at-0 on ``a``
        reaches no output in the cycle it strikes, only both copies'
        flops, so their shared outputs never disagree and the alarm
        stays low.  The miter must count the changed next state as a
        silent corruption: from reset, ``a = 1`` then leaves ``o_y``
        at 0 instead of 1 one cycle later, alarm still low."""
        payload = Netlist("one_flop_buf")
        payload.add_input("a")
        payload.add_gate("q", GateType.DFF, ["a"])
        payload.add_gate("y", GateType.BUF, ["q"])
        payload.add_output("y")
        protected = duplicate_and_compare(payload)
        fault = Fault("a", FaultKind.STUCK_AT_0)
        coverage, missed = formal_coverage(protected.netlist, [fault],
                                           "alarm")
        assert coverage == 0.0 and [m.fault for m in missed] == [fault]
        assert missed[0].witness == {"a": 1}
        runs = []
        for netlist in (protected.netlist,
                        inject_fault(protected.netlist, fault)):
            state = {ff: 0 for ff in netlist.flops}
            values = []
            for a in (1, 0):
                v, state = step_sequential(netlist, {"a": a}, state)
                values.append((v["o_y"], v["alarm"]))
            runs.append(values)
        good, bad = runs
        assert good == [(0, 0), (1, 0)] and bad == [(0, 0), (0, 0)]
        # The four faults that cannot reach the payload or the state
        # stay proved harmless.
        assert formal_coverage(protected.netlist, [
            Fault(net, FaultKind.STUCK_AT_0)
            for net in ("s_q", "s_y", "cmp0", "alarm")], "alarm") == \
            (1.0, [])

    def test_formal_coverage_matches_simulation(self):
        protected = duplicate_and_compare(ripple_carry_adder(2))
        faults = [Fault(g, FaultKind.STUCK_AT_0)
                  for g in protected.netlist.gates
                  if g.startswith("m_")][:6]
        coverage, missed = formal_coverage(protected.netlist, faults,
                                           "alarm")
        assert coverage == 1.0 and not missed


class TestDfa:
    def test_candidate_set_contains_true_key(self):
        rng = random.Random(0)
        key_byte = rng.randrange(256)
        state = rng.randrange(256)
        from repro.crypto import SBOX
        correct = SBOX[state] ^ key_byte
        fault = 0x04
        faulty = SBOX[state ^ fault] ^ key_byte
        candidates = last_round_candidates(correct, faulty)
        assert key_byte in candidates

    def test_full_attack_recovers_key(self):
        key = [random.Random(5).randrange(256) for _ in range(16)]
        result = dfa_on_unprotected(key, seed=1)
        assert result.success
        assert result.recovered_master_key == key

    def test_detect_and_suppress_blocks(self):
        key = [random.Random(6).randrange(256) for _ in range(16)]
        chip = DetectAndSuppressAES(key)
        attacker = DfaAttacker(
            chip.encrypt,
            lambda pt, b, f: chip.encrypt_with_fault(pt, b, f), seed=2)
        assert not attacker.attack(max_faults_per_byte=3).success
        assert chip.detected_faults > 0

    def test_infective_blocks(self):
        key = [random.Random(7).randrange(256) for _ in range(16)]
        chip = InfectiveAES(key, seed=3)
        attacker = DfaAttacker(
            chip.encrypt,
            lambda pt, b, f: chip.encrypt_with_fault(pt, b, f), seed=4)
        assert not attacker.attack(max_faults_per_byte=3).success
        assert chip.infections > 0

    def test_infective_output_unchanged_without_fault(self):
        key = list(range(16))
        chip = InfectiveAES(key)
        pt = list(range(16))
        assert chip.encrypt_with_fault(pt, 0, 0) == AES128(key).encrypt(pt)


class TestSensors:
    def test_full_coverage(self):
        rng = random.Random(1)
        cells = {f"g{i}": (rng.uniform(0, 50), rng.uniform(0, 50))
                 for i in range(25)}
        plan = greedy_sensor_placement(cells, radius=20)
        assert plan.coverage() == 1.0
        assert not plan.uncovered()

    def test_budget_limits_coverage(self):
        cells = {"a": (0, 0), "b": (100, 100), "c": (0, 100)}
        plan = greedy_sensor_placement(cells, radius=5, max_sensors=1)
        assert plan.coverage() < 1.0
        assert len(plan.sensors) == 1

    def test_injection_campaign(self):
        cells = {"a": (0, 0), "b": (10, 0)}
        plan = greedy_sensor_placement(cells, radius=3)
        result = injection_campaign(plan, [(0, 0), (50, 50)])
        assert result["detected"] == 1.0
        assert result["detection_rate"] == 0.5


class TestDiscrimination:
    def test_natural_stream_recovers(self):
        disc = FaultDiscriminator()
        last = None
        for event in natural_fault_stream(4, 50_000, ["a", "b", "c"],
                                          seed=3):
            last = disc.observe(event)
        assert last.verdict is Verdict.NATURAL
        assert last.response is Response.RECOVER_AND_RESUME

    def test_attack_stream_flagged(self):
        disc = FaultDiscriminator()
        last = None
        for event in attack_fault_stream(6, 0, "crypto", seed=1):
            last = disc.observe(event)
        assert last.verdict is Verdict.MALICIOUS
        assert last.response in (Response.REKEY, Response.DISCONTINUE)
        assert last.reasons

    def test_empty_window(self):
        disc = FaultDiscriminator()
        assessment = disc.assess(now=0.0)
        assert assessment.verdict is Verdict.NATURAL


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7))
def test_dfa_candidates_property(key_byte, state, fault_bit):
    """The true key always survives candidate filtering."""
    from repro.crypto import SBOX
    fault = 1 << fault_bit
    correct = SBOX[state] ^ key_byte
    faulty = SBOX[state ^ fault] ^ key_byte
    if correct != faulty:
        assert key_byte in last_round_candidates(correct, faulty)
