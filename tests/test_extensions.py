"""Tests for extension modules: Verilog I/O, MIA, structural attack,
clock-glitch fault modeling."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import sbox_with_key_netlist
from repro.fia import (
    clock_glitch_capture,
)
from repro.ip import (
    lock_xor,
    resynthesis_resistance,
    structural_key_attack,
)
from repro.netlist import (
    GateType,
    Netlist,
    NetlistError,
    c17,
    dumps_verilog,
    encode_int,
    exhaustive_truth_table,
    loads_verilog,
    random_circuit,
    ripple_carry_adder,
)
from repro.netlist.metrics import critical_path_delay
from repro.sca import (
    leakage_traces,
    mia_attack,
    mutual_information,
)


class TestVerilog:
    @pytest.mark.parametrize("factory", [
        c17,
        lambda: ripple_carry_adder(4),
        lambda: random_circuit(6, 40, 3, seed=7),
    ])
    def test_roundtrip_preserves_function(self, factory):
        n = factory()
        m = loads_verilog(dumps_verilog(n))
        for o in n.outputs:
            assert exhaustive_truth_table(m, o) == \
                exhaustive_truth_table(n, o)

    def test_mux_const_dff_roundtrip(self):
        n = Netlist("mix")
        n.add_input("s")
        n.add_input("a")
        n.add_input("b")
        n.add_gate("one", GateType.CONST1)
        n.add_gate("m", GateType.MUX, ["s", "a", "b"])
        n.add_gate("q", GateType.DFF, ["m"])
        n.add_gate("y", GateType.AND, ["m", "one"])
        n.add_output("y")
        n.add_output("q")
        m = loads_verilog(dumps_verilog(n))
        assert m.is_sequential
        assert set(m.outputs) == {"y", "q"}

    def test_emits_module_header(self):
        text = dumps_verilog(c17())
        assert text.startswith("module c17")
        assert text.rstrip().endswith("endmodule")

    def test_sanitizes_names(self):
        n = Netlist("weird")
        n.add_input("in")  # legal
        n.add_gate("a.b[3]", GateType.NOT, ["in"])
        n.add_output("a.b[3]")
        text = dumps_verilog(n)
        assert "a.b[3]" not in text
        m = loads_verilog(text)
        assert exhaustive_truth_table(m) == [1, 0]

    def test_unknown_primitive_rejected(self):
        with pytest.raises(NetlistError):
            loads_verilog("module t (a);\n  input a;\n"
                          "  frobnicate u0 (a, a);\nendmodule\n")


class TestMia:
    def test_mutual_information_basics(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 4000)
        independent = rng.normal(0, 1, 4000)
        dependent = labels * 2.0 + rng.normal(0, 0.3, 4000)
        assert mutual_information(dependent, labels) > \
            mutual_information(independent, labels) + 0.3

    def test_mi_nonnegative(self):
        rng = np.random.default_rng(1)
        mi = mutual_information(rng.normal(0, 1, 500),
                                rng.integers(0, 4, 500))
        assert mi >= 0.0

    def test_mia_recovers_key(self):
        net = sbox_with_key_netlist()
        rng = random.Random(2)
        true_key = 0x4D
        pts = [rng.randrange(256) for _ in range(1500)]
        stims = []
        for pt in pts:
            s = encode_int(pt, [f"p{i}" for i in range(8)])
            s.update(encode_int(true_key, [f"k{i}" for i in range(8)]))
            stims.append(s)
        traces = leakage_traces(net, stims, noise_sigma=1.5, seed=3)
        result = mia_attack(traces, pts)
        assert result.rank_of(true_key) <= 3

    def test_information_gap_positive_on_leaky_target(self):
        net = sbox_with_key_netlist()
        rng = random.Random(4)
        true_key = 0x91
        pts = [rng.randrange(256) for _ in range(1200)]
        stims = []
        for pt in pts:
            s = encode_int(pt, [f"p{i}" for i in range(8)])
            s.update(encode_int(true_key, [f"k{i}" for i in range(8)]))
            stims.append(s)
        traces = leakage_traces(net, stims, noise_sigma=1.5, seed=5)
        # The true key carries more information than the average guess.
        scores = mia_attack(traces, pts).scores
        assert scores[true_key] > np.delete(scores, true_key).mean()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mia_attack(np.zeros((5, 2)), [1, 2, 3])
        traces = np.random.default_rng(0).normal(0, 1, (4, 2))
        # the default AES model takes byte plaintexts and <= 256 guesses
        for pts in ([1, 2, -1, 3], [1, -200, 2, 3], [1, 2, 3, 256]):
            with pytest.raises(ValueError):
                mia_attack(traces, pts)
        with pytest.raises(ValueError):
            mia_attack(traces, [1, 2, 3, 4], n_keys=257)
        with pytest.raises(ValueError):
            mia_attack(np.empty((0, 2)), [])


class TestStructuralAttack:
    def test_reads_key_from_gate_types(self):
        base = random_circuit(8, 80, 4, seed=3)
        locked = lock_xor(base, 12, seed=3)
        result = structural_key_attack(locked.netlist,
                                       locked.key_inputs)
        assert result.accuracy(locked.key) == 1.0
        assert result.resolved == 12

    def test_resynthesis_does_not_hide_keys(self):
        # The SAIL observation: resynthesis alone is insufficient.
        base = random_circuit(8, 80, 4, seed=5)
        locked = lock_xor(base, 10, seed=5)
        plain, after = resynthesis_resistance(locked)
        assert plain == 1.0
        assert after >= 0.7

    def test_structural_beats_random_guessing(self):
        base = random_circuit(8, 80, 4, seed=6)
        locked = lock_xor(base, 16, seed=6)
        result = structural_key_attack(locked.netlist,
                                       locked.key_inputs)
        assert result.accuracy(locked.key) > 0.75


class TestClockGlitch:
    def setup_method(self):
        self.adder = ripple_carry_adder(8)
        self.prev = {}
        self.prev.update(encode_int(0, [f"a{i}" for i in range(8)]))
        self.prev.update(encode_int(0, [f"b{i}" for i in range(8)]))
        self.cur = {}
        self.cur.update(encode_int(255, [f"a{i}" for i in range(8)]))
        self.cur.update(encode_int(1, [f"b{i}" for i in range(8)]))
        self.critical = critical_path_delay(self.adder)

    def test_full_period_is_safe(self):
        out = clock_glitch_capture(self.adder, self.prev, self.cur,
                                   period=1.05 * self.critical)
        assert out.fault_count == 0
        assert out.captured == out.correct

    def test_short_period_faults_late_outputs(self):
        out = clock_glitch_capture(self.adder, self.prev, self.cur,
                                   period=0.4 * self.critical)
        assert out.fault_count > 0
        for name in out.faulted_outputs:
            assert out.captured[name] != out.correct[name]

    def test_glitch_feeds_dfa_model(self):
        # A captured stale byte is exactly the XOR-differential DFA
        # consumes: differential = stale ^ fresh on the faulted bits.
        out = clock_glitch_capture(self.adder, self.prev, self.cur,
                                   period=0.5 * self.critical)
        differential = {
            o: out.captured[o] ^ out.correct[o]
            for o in out.faulted_outputs
        }
        assert all(v == 1 for v in differential.values())


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2000))
def test_verilog_roundtrip_property(seed):
    n = random_circuit(5, 30, 3, seed=seed)
    m = loads_verilog(dumps_verilog(n))
    for o in n.outputs:
        assert exhaustive_truth_table(m, o) == exhaustive_truth_table(n, o)
