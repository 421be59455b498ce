"""Tests for automated masking synthesis (netlist-level ISW transform)."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import SBOX4, present_sbox_netlist
from repro.netlist import (
    GateType,
    Netlist,
    c17,
    output_values,
    random_circuit,
    simulate,
)
from repro.sca import TVLA_THRESHOLD, leakage_traces, mask_netlist, tvla
from repro.synth import reassociate_for_timing


def check_functional(base, masked, n_trials=40, seed=0):
    rng = random.Random(seed)
    for _ in range(n_trials):
        plain = {name: rng.randint(0, 1) for name in base.inputs}
        stim = masked.stimulus(plain, rng)
        got = masked.decode_outputs(simulate(masked.netlist, stim))
        assert got == output_values(base, plain)


class TestMaskNetlist:
    def test_c17(self):
        base = c17()
        masked = mask_netlist(base)
        masked.netlist.validate()
        check_functional(base, masked)

    def test_present_sbox_exhaustive(self):
        base = present_sbox_netlist()
        masked = mask_netlist(base)
        rng = random.Random(1)
        for x in range(16):
            plain = {f"x{i}": (x >> i) & 1 for i in range(4)}
            got = masked.decode_outputs(
                simulate(masked.netlist, masked.stimulus(plain, rng)))
            assert got == {f"y{i}": (SBOX4[x] >> i) & 1
                           for i in range(4)}

    def test_every_gate_family(self):
        base = Netlist("allgates")
        for name in ("a", "b", "c"):
            base.add_input(name)
        base.add_gate("g_and", GateType.AND, ["a", "b"])
        base.add_gate("g_or", GateType.OR, ["b", "c"])
        base.add_gate("g_xor", GateType.XOR, ["g_and", "g_or"])
        base.add_gate("g_nand", GateType.NAND, ["a", "c"])
        base.add_gate("g_nor", GateType.NOR, ["g_xor", "g_nand"])
        base.add_gate("g_xnor", GateType.XNOR, ["g_nor", "a"])
        base.add_gate("g_mux", GateType.MUX, ["a", "g_xnor", "b"])
        base.add_gate("y", GateType.NOT, ["g_mux"])
        base.add_output("y")
        masked = mask_netlist(base)
        check_functional(base, masked, n_trials=64)

    def test_constants(self):
        base = Netlist("consts")
        base.add_input("a")
        base.add_gate("one", GateType.CONST1)
        base.add_gate("y", GateType.AND, ["a", "one"])
        base.add_output("y")
        masked = mask_netlist(base)
        check_functional(base, masked, n_trials=10)

    def test_randomness_one_bit_per_nonlinear_gadget(self):
        base = present_sbox_netlist()
        masked = mask_netlist(base)
        assert masked.randomness_bits > 0
        # all randomness inputs are primary inputs
        assert set(masked.random_inputs) <= set(masked.netlist.inputs)

    def test_interface_maps_every_port(self):
        base = c17()
        masked = mask_netlist(base)
        assert set(masked.input_shares) == set(base.inputs)
        assert set(masked.output_shares) == set(base.outputs)


class CountingRandom(random.Random):
    """``random.Random`` that counts its primitive draws."""

    def __init__(self, seed):
        self.calls = Counter()
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls["getrandbits"] += 1
        return super().getrandbits(k)

    def random(self):
        self.calls["random"] += 1
        return super().random()


class TestStimulus:
    def test_one_word_per_trace_and_valid_shares(self):
        masked = mask_netlist(present_sbox_netlist())
        names = sorted(masked.netlist.inputs)
        plain_rng = random.Random(7)
        rng = CountingRandom(3)
        rows = []
        for trace in range(4000):
            plain = {f"x{i}": plain_rng.randint(0, 1) for i in range(4)}
            stim = masked.stimulus(plain, rng)
            assert rng.calls == {"getrandbits": trace + 1}
            assert sorted(stim) == names
            assert set(stim.values()) <= {0, 1}
            for name, (s0, s1) in masked.input_shares.items():
                assert stim[s0] ^ stim[s1] == plain[name]
            rows.append([stim[name] for name in names])
        means = np.asarray(rows).mean(axis=0)
        # 0.5 +- 0.05 is over six standard errors at 4000 draws.
        assert np.all(np.abs(means - 0.5) < 0.05), means

    def test_columns_draw_one_word_per_first_share_and_random_input(self):
        masked = mask_netlist(present_sbox_netlist())
        n = 4000
        plain_rng = random.Random(7)
        plain = {f"x{i}": plain_rng.getrandbits(n) for i in range(4)}
        rng = CountingRandom(3)
        columns = masked.stimulus_columns(plain, n, rng)
        assert rng.calls == {"getrandbits": len(masked.input_shares)
                             + masked.randomness_bits}
        assert sorted(columns) == sorted(masked.netlist.inputs)
        for name, (s0, s1) in masked.input_shares.items():
            assert columns[s0] ^ columns[s1] == plain[name]
        means = np.array([word.bit_count() for word in columns.values()]) / n
        # 0.5 +- 0.05 is over six standard errors at 4000 traces.
        assert np.all(np.abs(means - 0.5) < 0.05), means

    def test_missing_plain_inputs_read_as_zero(self):
        masked = mask_netlist(c17())
        stim = masked.stimulus({}, random.Random(0))
        for s0, s1 in masked.input_shares.values():
            assert stim[s0] == stim[s1]


class TestMaskedLeakage:
    def _classes(self, masked, n, fixed, seed):
        rng = random.Random(seed)
        stims = []
        for _ in range(n):
            x = 0xB if fixed else rng.randrange(16)
            plain = {f"x{i}": (x >> i) & 1 for i in range(4)}
            stims.append(masked.stimulus(plain, rng))
        return stims

    def test_masked_sbox_passes_tvla(self):
        masked = mask_netlist(present_sbox_netlist())
        fixed = leakage_traces(
            masked.netlist, self._classes(masked, 3000, True, 1),
            noise_sigma=0.3, seed=1)
        rand = leakage_traces(
            masked.netlist, self._classes(masked, 3000, False, 2),
            noise_sigma=0.3, seed=2)
        assert not tvla(fixed, rand).leaks

    def test_reassociation_breaks_masked_netlist(self):
        masked = mask_netlist(present_sbox_netlist())
        broken = masked.netlist.copy()
        late = {r: 1e5 for r in masked.random_inputs}
        rebuilt = reassociate_for_timing(broken, input_arrivals=late)
        assert rebuilt > 0
        # still functionally correct
        rng = random.Random(3)
        for x in range(16):
            plain = {f"x{i}": (x >> i) & 1 for i in range(4)}
            vals = simulate(broken, masked.stimulus(plain, rng))
            got = {
                name: vals[s0] ^ vals[s1]
                for name, (s0, s1) in masked.output_shares.items()
            }
            assert got == {f"y{i}": (SBOX4[x] >> i) & 1
                           for i in range(4)}
        # but now leaky
        fixed = leakage_traces(
            broken, self._classes(masked, 4000, True, 4),
            noise_sigma=0.3, seed=4)
        rand = leakage_traces(
            broken, self._classes(masked, 4000, False, 5),
            noise_sigma=0.3, seed=5)
        assert tvla(fixed, rand).leaks


class TestFig2VerdictSlice:
    """Fig. 2 at circuit scale over seeds 0-19 (fixed in advance): the
    masked PRESENT S-box always passes TVLA and its timing-driven
    re-association always fails, at 2000 traces per class and noise
    0.3 (the ``signoff`` benchmark's recipe)."""

    PLAIN = [{f"x{i}": (x >> i) & 1 for i in range(4)} for x in range(16)]

    def _max_t(self, masked, netlist, seed):
        rng = random.Random(seed)
        fixed = [masked.stimulus(self.PLAIN[0xB], rng)
                 for _ in range(2000)]
        rand = [masked.stimulus(self.PLAIN[rng.randrange(16)], rng)
                for _ in range(2000)]
        return tvla(
            leakage_traces(netlist, fixed, noise_sigma=0.3, seed=seed),
            leakage_traces(netlist, rand, noise_sigma=0.3, seed=seed + 1),
        ).max_abs_t

    def test_verdicts_hold_on_every_seed(self):
        masked = mask_netlist(present_sbox_netlist())
        broken = masked.netlist.copy()
        reassociate_for_timing(
            broken, input_arrivals={r: 1e5 for r in masked.random_inputs})
        for seed in range(20):
            secure_t = self._max_t(masked, masked.netlist, seed)
            broken_t = self._max_t(masked, broken, seed)
            assert secure_t < TVLA_THRESHOLD, (seed, secure_t)
            assert broken_t > TVLA_THRESHOLD, (seed, broken_t)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 300))
def test_mask_netlist_property(seed):
    base = random_circuit(5, 25, 2, seed=seed)
    masked = mask_netlist(base)
    check_functional(base, masked, n_trials=12, seed=seed)
