"""Tests for Anti-SAT locking, sequential leakage, and the risk register."""

import random

import numpy as np
import pytest

from repro.core import (
    CompositionEngine,
    RiskRegister,
    RiskEntry,
    Severity,
    ThreatVector,
    masked_and_design,
    register_from_composition,
)
from repro.flow import DuplicationDetectPass, ParityDetectPass
from repro.formal import check_equivalence
from repro.ip import (
    antisat_lock,
    apply_key,
    attack_locked_circuit,
    lock_xor,
    verify_recovered_key,
)
from repro.netlist import GateType, Netlist, random_circuit, step_sequential
from repro.sca import sequential_leakage_traces

from key_oracle import key_is_correct


class TestAntiSat:
    def test_correct_key_restores_function(self):
        base = random_circuit(8, 60, 3, seed=4)
        locked = antisat_lock(base, width=4, seed=4)
        assert check_equivalence(apply_key(locked), base).equivalent

    def test_any_equal_key_pair_works(self):
        base = random_circuit(8, 60, 3, seed=5)
        locked = antisat_lock(base, width=3, seed=5)
        # K1 == K2 == arbitrary value is also functionally correct.
        other = {}
        for i in range(3):
            other[f"keyin{i}"] = 1
            other[f"keyin{3 + i}"] = 1
        assert check_equivalence(apply_key(locked, other),
                                 base).equivalent

    def test_unequal_keys_corrupt(self):
        base = random_circuit(8, 60, 3, seed=6)
        locked = antisat_lock(base, width=3, seed=6)
        wrong = dict(locked.key)
        wrong["keyin0"] ^= 1  # K1 != K2 now
        assert not check_equivalence(apply_key(locked, wrong),
                                     base).equivalent

    def test_sat_attack_effort_scales_exponentially(self):
        base = random_circuit(8, 60, 3, seed=4)
        iterations = {}
        for width in (3, 4, 5):
            locked = antisat_lock(base, width=width, seed=4)
            result = attack_locked_circuit(locked, max_iterations=200)
            iterations[width] = result.iterations
            if result.success:
                assert verify_recovered_key(locked, result.recovered_key)
                assert key_is_correct(locked, result.recovered_key)
        # ~2^width growth: each step roughly doubles
        assert iterations[4] >= 1.5 * iterations[3]
        assert iterations[5] >= 1.5 * iterations[4]

    def test_more_resilient_than_epic_at_equal_bits(self):
        base = random_circuit(8, 60, 3, seed=7)
        antisat = antisat_lock(base, width=5, seed=7)   # 10 key bits
        epic = lock_xor(base, 10, seed=7)
        anti_iters = attack_locked_circuit(antisat,
                                           max_iterations=200).iterations
        epic_iters = attack_locked_circuit(epic).iterations
        assert anti_iters > epic_iters

    def test_needs_enough_inputs(self):
        small = Netlist()
        small.add_input("a")
        small.add_gate("y", GateType.BUF, ["a"])
        small.add_output("y")
        with pytest.raises(ValueError):
            antisat_lock(small, width=4)


class TestSequentialLeakage:
    def build_register(self):
        n = Netlist("reg4")
        for i in range(4):
            n.add_input(f"d{i}")
            n.add_gate(f"q{i}", GateType.DFF, [f"d{i}"])
            n.add_output(f"q{i}")
        return n

    def test_hd_counting(self):
        n = self.build_register()
        seq = [
            {f"d{i}": 1 for i in range(4)},   # 0000 -> 1111: HD 4
            {f"d{i}": 1 for i in range(4)},   # 1111 -> 1111: HD 0
            {f"d{i}": 0 for i in range(4)},   # 1111 -> 0000: HD 4
        ]
        trace = sequential_leakage_traces(n, [seq], noise_sigma=0.0,
                                          hd_weight=1.0, hw_weight=0.0)
        assert list(trace[0]) == [4.0, 0.0, 4.0]

    def test_hw_term(self):
        n = self.build_register()
        seq = [{f"d{i}": 1 for i in range(4)}]
        trace = sequential_leakage_traces(n, [seq], noise_sigma=0.0,
                                          hd_weight=0.0, hw_weight=1.0)
        assert list(trace[0]) == [4.0]

    def test_batch_shape_and_noise(self):
        n = self.build_register()
        runs = [[{f"d{i}": 1 for i in range(4)}] * 3] * 5
        traces = sequential_leakage_traces(n, runs, noise_sigma=0.5,
                                           seed=1)
        assert traces.shape == (5, 3)
        clean = sequential_leakage_traces(n, runs, noise_sigma=0.0)
        assert not np.allclose(traces, clean)
        assert np.allclose(clean[0], clean[1])

    @staticmethod
    def random_sequential(seed):
        """Random logic over inputs and four flops whose D pins close
        the feedback loop."""
        rng = random.Random(seed)
        n = random_circuit(5, 30, 4, seed=seed)
        nets = [g for g in n.gates if g not in n.inputs]
        flops = [n.add_gate(f"ff{k}", GateType.DFF, [f"d{k}"])
                 for k in range(4)]
        for k, ff in enumerate(flops):
            mixed = n.add_gate(f"mix{k}", GateType.XOR,
                               [ff, rng.choice(nets)])
            n.add_gate(f"d{k}", GateType.XNOR, [mixed, rng.choice(nets)])
            n.add_output(mixed)
        return n

    @staticmethod
    def reference_traces(netlist, runs, hd_weight, hw_weight):
        """One ``step_sequential`` walk per run: low bit of each value,
        a missing input at 0, samples past the run's length at 0."""
        flops = netlist.flops
        out = np.zeros((len(runs), max(len(run) for run in runs)))
        for r, run in enumerate(runs):
            state = {ff: 0 for ff in flops}
            for t, stim in enumerate(run):
                inputs = {name: stim.get(name, 0) & 1
                          for name in netlist.inputs}
                _, nxt = step_sequential(netlist, inputs, state)
                hd = sum(state[ff] != nxt[ff] for ff in flops)
                hw = sum(nxt[ff] for ff in flops)
                out[r, t] = hd_weight * hd + hw_weight * hw
                state = nxt
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_packed_runs_match_per_run_reference(self, seed):
        netlist = self.random_sequential(seed)
        rng = random.Random(100 + seed)
        runs = [[{name: rng.randrange(4) for name in netlist.inputs
                  if rng.random() < 0.8}
                 for _ in range(rng.randint(1, 7))]
                for _ in range(37)]
        assert len({len(run) for run in runs}) > 1
        got = sequential_leakage_traces(netlist, runs, noise_sigma=0.0,
                                        hd_weight=1.0, hw_weight=0.2)
        want = self.reference_traces(netlist, runs, 1.0, 0.2)
        assert np.array_equal(got, want)

    def test_distinguishes_data(self):
        """HW of loaded data is visible in the first sample."""
        n = self.build_register()
        low = sequential_leakage_traces(
            n, [[{f"d{i}": 0 for i in range(4)}]] * 50,
            noise_sigma=0.1, seed=2)
        high = sequential_leakage_traces(
            n, [[{f"d{i}": 1 for i in range(4)}]] * 50,
            noise_sigma=0.1, seed=3)
        assert high[:, 0].mean() > low[:, 0].mean() + 2.0


class TestRiskRegister:
    def test_parity_composition_is_critical(self):
        engine = CompositionEngine(n_traces=2500, seed=1)
        _, report = engine.compose(masked_and_design(),
                                   [ParityDetectPass()])
        register = register_from_composition("demo", report)
        assert register.worst is Severity.CRITICAL
        sca_entries = register.by_threat(ThreatVector.SIDE_CHANNEL)
        assert any("parity-detect" in e.title for e in sca_entries)
        text = register.render()
        assert "CRITICAL" in text and "residual:" in text

    def test_safe_composition_is_clean(self):
        engine = CompositionEngine(n_traces=2500, seed=2)
        _, report = engine.compose(masked_and_design(),
                                   [DuplicationDetectPass()])
        register = register_from_composition("demo", report)
        assert register.worst in (Severity.INFO, Severity.LOW)

    def test_manual_entries(self):
        register = RiskRegister("manual")
        register.add(RiskEntry(
            threat=ThreatVector.TROJAN,
            title="unscreened die area",
            severity=Severity.MEDIUM,
            measured="12 free sites in a 3x3 window",
            residual="sub-variation Trojans unmodeled",
        ))
        assert register.worst is Severity.MEDIUM
        assert "unscreened" in register.render()

    def test_empty_register(self):
        assert RiskRegister("empty").worst is Severity.INFO
