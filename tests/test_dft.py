"""Tests for the DFT substrate: scan, ATPG, BIST, scan attack, DFX."""

import random
from functools import partial

import pytest

from repro.crypto import aes_sbox_netlist
from repro.dft import (
    ChipState,
    DfxController,
    IncrementalAtpg,
    Lfsr,
    Misr,
    ScanChipModel,
    detection_words,
    grade_vectors,
    insert_scan,
    run_atpg,
    run_bist,
    scan_attack,
    scan_load,
    scan_unload,
)
from repro.dft import test_access_still_works as scan_test_access
from repro.dft.atpg import _reverse_greedy
from repro.fia import Fault, FaultKind, attack_fault_stream, \
    enumerate_faults, inject_fault, natural_fault_stream
from repro.netlist import (
    GateType,
    Netlist,
    c17,
    pack_patterns,
    random_circuit,
    random_stimulus,
    ripple_carry_adder,
    simulate_reference,
    step_sequential,
)

STUCK_AT = (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1)


def run_cycles(netlist, stimuli, state=None):
    """Per-cycle net values of a clocked run from ``state`` (reset)."""
    state, trace = dict(state or {}), []
    for stim in stimuli:
        values, state = step_sequential(netlist, stim, state)
        trace.append(values)
    return trace, state


def sequential_example():
    n = Netlist("seq")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("q0", GateType.DFF, ["d0"])
    n.add_gate("q1", GateType.DFF, ["d1"])
    n.add_gate("q2", GateType.DFF, ["d2"])
    n.add_gate("d0", GateType.XOR, ["a", "q2"])
    n.add_gate("d1", GateType.AND, ["q0", "b"])
    n.add_gate("d2", GateType.OR, ["q1", "a"])
    n.add_gate("y", GateType.XOR, ["q0", "q1"])
    n.add_output("y")
    return n


class TestScan:
    def test_insertion_requires_flops(self):
        with pytest.raises(ValueError):
            insert_scan(c17())

    def test_load_unload_roundtrip(self):
        design = insert_scan(sequential_example())
        for bits in ([0, 0, 0], [1, 1, 1], [1, 0, 1], [0, 1, 0]):
            state = scan_load(design, bits)
            out, _ = scan_unload(design, state)
            assert out == bits

    def test_wrong_length_rejected(self):
        design = insert_scan(sequential_example())
        with pytest.raises(ValueError):
            scan_load(design, [1, 0])

    def test_capture_computes_functional_state(self):
        design = insert_scan(sequential_example())
        state = scan_load(design, [1, 1, 0])
        # One functional (capture) cycle: scan_en = 0.
        _, captured = run_cycles(design.netlist, [
            {"a": 1, "b": 1, "scan_en": 0, "scan_in": 0}], state)
        # d0 = a ^ q2 = 1 ^ 0; d1 = q0 & b = 1 & 1; d2 = q1 | a = 1 | 1
        assert captured[design.chain[0]] == 1
        assert captured[design.chain[1]] == 1
        assert captured[design.chain[2]] == 1

    def test_functional_mode_unaffected(self):
        base = sequential_example()
        design = insert_scan(base)
        stim = [{"a": 1, "b": 1}, {"a": 0, "b": 1}, {"a": 1, "b": 0}]
        scan_stim = [dict(s, scan_en=0, scan_in=0) for s in stim]
        base_out, _ = run_cycles(base, stim)
        scan_out, _ = run_cycles(design.netlist, scan_stim)
        for bo, so in zip(base_out, scan_out):
            assert bo["y"] == so["y"]


class TestFaultGrading:
    def test_no_vectors_zero_coverage(self):
        report = grade_vectors(c17(), [])
        assert report.coverage == 0.0 if report.total_faults else 1.0

    def test_exhaustive_vectors_high_coverage(self):
        n = c17()
        vectors = [
            {name: (m >> i) & 1 for i, name in enumerate(n.inputs)}
            for m in range(32)
        ]
        report = grade_vectors(n, vectors)
        assert report.coverage == 1.0

    def test_coverage_monotone_in_vectors(self):
        n = random_circuit(8, 60, 4, seed=1)
        rng = random.Random(2)
        vectors = [
            {name: rng.randint(0, 1) for name in n.inputs}
            for _ in range(32)
        ]
        low = grade_vectors(n, vectors[:4]).coverage
        high = grade_vectors(n, vectors).coverage
        assert high >= low


class TestDetectionWords:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_inject_fault_reference(self, seed):
        n = random_circuit(6, 40, 4, seed=seed)
        width = 24
        columns = random_stimulus(n.inputs, width, random.Random(seed))
        faults = enumerate_faults(n, kinds=STUCK_AT)
        words = detection_words(n, columns, width, faults)
        patterns = [{name: (columns[name] >> p) & 1 for name in n.inputs}
                    for p in range(width)]
        good = [simulate_reference(n, pattern) for pattern in patterns]
        for fault, word in zip(faults, words):
            faulty = inject_fault(n, fault)
            for p, pattern in enumerate(patterns):
                bad = simulate_reference(faulty, pattern)
                flips = any(bad[o] != good[p][o] for o in n.outputs)
                assert (word >> p) & 1 == flips, (fault, p)

    def test_flags_and_coverage_derive_from_words(self):
        n = random_circuit(8, 60, 4, seed=1)
        rng = random.Random(3)
        vectors = [{name: rng.randint(0, 1) for name in n.inputs}
                   for _ in range(12)]
        faults = enumerate_faults(n, kinds=STUCK_AT)
        columns = {name: sum(v[name] << p for p, v in enumerate(vectors))
                   for name in n.inputs}
        words = detection_words(n, columns, len(vectors), faults)
        report = grade_vectors(n, vectors, faults)
        assert report.detected_faults == sum(1 for w in words if w)
        assert report.undetected == [f for f, w in zip(faults, words)
                                     if not w]


def _compact_by_regrading(netlist, vectors, faults=None):
    """The per-vector re-grading loop static compaction used to run."""
    kept = [dict(v) for v in vectors]
    baseline = grade_vectors(netlist, kept, faults).coverage
    index = len(kept) - 1
    while index >= 0:
        trial = kept[:index] + kept[index + 1:]
        if grade_vectors(netlist, trial, faults).coverage >= baseline:
            kept = trial
        index -= 1
    return kept


def _and_tree(width):
    """``y = AND`` of ``width`` inputs as a balanced 2-input tree."""
    n = Netlist(f"and{width}")
    level = [n.add_input(f"x{i}") for i in range(width)]
    while len(level) > 2:
        level = [n.add(GateType.AND, list(pair), prefix="t")
                 for pair in zip(level[::2], level[1::2])]
    n.add_gate("y", GateType.AND, level)
    n.add_output("y")
    return n


def compact(netlist, vectors, faults=None):
    """Static compaction through ``run_atpg``'s kernel: one
    :func:`detection_words` pass, then the reverse-order greedy."""
    fault_list = (list(faults) if faults is not None
                  else enumerate_faults(netlist, kinds=STUCK_AT))
    width = len(vectors)
    words = detection_words(netlist,
                            pack_patterns(vectors, netlist.inputs),
                            width, fault_list)
    kept = _reverse_greedy([w for w in words if w], (1 << width) - 1)
    return [dict(v) for p, v in enumerate(vectors) if kept >> p & 1]


class TestCompaction:
    @pytest.mark.parametrize("make", [
        c17, partial(ripple_carry_adder, 8), aes_sbox_netlist,
        *(partial(random_circuit, 8, 60, 4, seed=s) for s in range(4)),
    ], ids=["c17", "rca8", "aes_sbox",
            *(f"random{s}" for s in range(4))])
    def test_matches_regrading_loop(self, make):
        n = make()
        rng = random.Random(11)
        vectors = [{name: rng.randint(0, 1) for name in n.inputs}
                   for _ in range(48)]
        assert compact(n, vectors) == \
            _compact_by_regrading(n, vectors)

    def test_matches_regrading_loop_on_fault_subset(self):
        n = ripple_carry_adder(8)
        faults = enumerate_faults(n, kinds=STUCK_AT)[::3]
        vectors = run_atpg(n, random_budget=64, seed=2).vectors
        assert compact(n, vectors, faults) == \
            _compact_by_regrading(n, vectors, faults)

    def test_empty_and_faultless(self):
        assert compact(c17(), []) == []
        vectors = [{name: 1 for name in c17().inputs}]
        assert compact(c17(), vectors, faults=[]) == []


class TestAtpg:
    def test_full_coverage_on_c17(self):
        result = run_atpg(c17(), random_budget=8, seed=1)
        assert result.coverage == 1.0
        assert not result.aborted

    def test_redundant_fault_classified(self):
        n = Netlist()
        n.add_input("x")
        n.add_gate("inv", GateType.NOT, ["x"])
        n.add_gate("o", GateType.OR, ["x", "inv"])   # constant 1
        n.add_gate("y", GateType.AND, ["o", "x"])
        n.add_output("y")
        test, status = IncrementalAtpg(n).test_for_fault(
            Fault("o", FaultKind.STUCK_AT_1))
        assert status == "untestable" and test is None

    def test_generated_test_detects(self):
        n = random_circuit(8, 50, 3, seed=3)
        fault = Fault(sorted(n.gates)[10], FaultKind.STUCK_AT_0)
        test, status = IncrementalAtpg(n).test_for_fault(fault)
        if status == "detected":
            report = grade_vectors(n, [test], [fault])
            assert report.coverage == 1.0

    def test_random_resistant_faults_go_through_sat(self, monkeypatch):
        # Exciting stuck-at-0 at the root of a 16-input AND tree (or
        # stuck-at-1 on one leaf) needs one pattern in 2**16: a
        # 1024-pattern block almost never holds it, so SAT must.
        n = _and_tree(16)
        engines = []
        init = IncrementalAtpg.__init__

        def spy(self, netlist):
            init(self, netlist)
            engines.append(self)

        monkeypatch.setattr(IncrementalAtpg, "__init__", spy)
        root = Fault("y", FaultKind.STUCK_AT_0)
        block = random_stimulus(n.inputs, 1024, random.Random(0))
        assert detection_words(n, block, 1024, [root]) == [0]
        result = run_atpg(n, seed=0)
        assert result.coverage == 1.0
        assert not result.aborted and not result.untestable
        assert root in result.detected
        assert {name: 1 for name in n.inputs} in result.vectors
        assert len(engines) == 1
        assert engines[0].encoder.encode_calls == 1
        assert grade_vectors(n, result.vectors).coverage == 1.0

    def test_redundant_fault_lands_in_untestable(self):
        n = Netlist()
        n.add_input("x")
        n.add_gate("inv", GateType.NOT, ["x"])
        n.add_gate("o", GateType.OR, ["x", "inv"])   # constant 1
        n.add_gate("y", GateType.AND, ["o", "x"])
        n.add_output("y")
        result = run_atpg(n, seed=0)
        assert Fault("o", FaultKind.STUCK_AT_1) in result.untestable
        assert not result.aborted
        assert result.coverage == 1.0

    def test_budget_counts_patterns_graded_not_kept(self):
        n = aes_sbox_netlist()
        result = run_atpg(n, seed=0)
        assert result.coverage == 1.0 and not result.aborted
        # Only first detectors survive: far fewer than the 1024 graded.
        assert len(result.vectors) < 128
        assert grade_vectors(n, result.vectors).coverage == 1.0
        assert compact(n, result.vectors) == result.vectors

    def test_compaction_keeps_coverage(self):
        n = c17()
        result = run_atpg(n, random_budget=16, seed=4)
        compacted = compact(n, result.vectors)
        assert len(compacted) <= len(result.vectors)
        assert grade_vectors(n, compacted).coverage == \
            grade_vectors(n, result.vectors).coverage


class TestBist:
    def test_lfsr_cycles_nonzero(self):
        lfsr = Lfsr(8, seed=1)
        seen = {lfsr.step() for _ in range(255)}
        assert 0 not in seen
        assert len(seen) > 100  # long period

    def test_lfsr_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            Lfsr(8, seed=0)

    def test_misr_order_sensitive(self):
        a = Misr(8)
        for w in (1, 2, 3):
            a.absorb(w)
        b = Misr(8)
        for w in (3, 2, 1):
            b.absorb(w)
        assert a.signature != b.signature

    def test_bist_self_consistent(self):
        result = run_bist(c17(), 64)
        assert result.passed

    def test_bist_detects_stuck_fault(self):
        n = c17()
        faulty = inject_fault(n, Fault("G16", FaultKind.STUCK_AT_0))
        golden = run_bist(n, 128)
        assert not run_bist(faulty, 128,
                            golden_signature=golden.signature).passed

    def test_bist_golden_signature_reuse(self):
        n = random_circuit(8, 50, 4, seed=5)
        golden = run_bist(n, 128)
        again = run_bist(n, 128, golden_signature=golden.signature)
        assert again.passed


class TestScanAttack:
    KEY = [random.Random(9).randrange(256) for _ in range(16)]

    def test_insecure_chip_leaks_key(self):
        result = scan_attack(ScanChipModel(self.KEY, secure=False))
        assert result.success
        assert result.recovered_key == self.KEY

    def test_secure_scan_blocks(self):
        chip = ScanChipModel(self.KEY, secure=True)
        assert not scan_attack(chip).success

    def test_secure_scan_preserves_testability(self):
        chip = ScanChipModel(self.KEY, secure=True)
        assert scan_test_access(chip)

    def test_mission_mode_guard(self):
        chip = ScanChipModel(self.KEY)
        with pytest.raises(RuntimeError):
            chip.scan_out()  # not in test mode
        chip.enter_test_mode()
        with pytest.raises(RuntimeError):
            chip.run_round([0] * 16)  # not in mission mode


class TestDfx:
    def test_key_provisioning_once(self):
        controller = DfxController()
        controller.provision_key(1)
        with pytest.raises(RuntimeError):
            controller.provision_key(2)

    def test_natural_faults_keep_mission(self):
        controller = DfxController()
        controller.provision_key(5)
        for event in natural_fault_stream(3, 100_000, ["m"], seed=2):
            controller.handle_alarm(event)
        assert controller.state is ChipState.MISSION
        assert controller.key_epoch == 0

    def test_attack_triggers_rekey_then_disable(self):
        controller = DfxController(max_rekey_events=2)
        controller.provision_key(5)
        for event in attack_fault_stream(10, 0, "aes"):
            controller.handle_alarm(event)
        assert controller.state is ChipState.DISABLED
        assert controller.unlock_key(controller.key_epoch) is None

    def test_epoch_diversifies_key(self):
        controller = DfxController(max_rekey_events=10)
        controller.provision_key(0xAB)
        k0 = controller.unlock_key(0)
        for event in attack_fault_stream(3, 0, "aes"):
            controller.handle_alarm(event)
        if controller.operational and controller.key_epoch > 0:
            assert controller.unlock_key(controller.key_epoch) != k0
            assert controller.unlock_key(0) is None

    def test_log_records_everything(self):
        controller = DfxController()
        events = natural_fault_stream(4, 1000, ["a"], seed=3)
        for event in events:
            controller.handle_alarm(event)
        assert len(controller.log) == 4
