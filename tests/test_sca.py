"""Tests for side-channel analysis: TVLA, CPA, masking, WDDL, glitches."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import SBOX, aes_sbox_netlist, sbox_with_key_netlist
from repro.netlist import encode_int, parity_tree, simulate
from repro.sca import (
    cpa_attack,
    decode_shares,
    dual_rail_stimulus,
    encode_shares,
    glitch_simulate,
    hamming_weight,
    intermediate_value_trace,
    isw_and,
    isw_and_netlist,
    leakage_traces,
    leaking_gate_report,
    locate_leaking_nets,
    masked_xor,
    probing_security_first_order,
    random_share_stimulus,
    signal_to_noise_ratio,
    traces_to_disclosure,
    tvla,
    tvla_sweep,
    welch_t,
    wddl_transform,
)
from repro.synth import reassociate_for_timing


def make_share_classes(netlist, n_traces, fixed, seed):
    """Stimuli for fixed (a=1,b=1) vs random secret classes."""
    rng = random.Random(seed)
    stims = []
    for _ in range(n_traces):
        if fixed:
            a, b = 1, 1
        else:
            a, b = rng.randint(0, 1), rng.randint(0, 1)
        stims.append(random_share_stimulus(a, b, 3, rng))
    return stims


class TestPowerModel:
    def test_hamming_weight(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(0xFF) == 8
        assert hamming_weight(1 << 100) == 1

    def test_leakage_trace_shape(self):
        net = parity_tree(4, balanced=True)
        stims = [{f"x{i}": (j >> i) & 1 for i in range(4)} for j in range(16)]
        traces = leakage_traces(net, stims, noise_sigma=0.0)
        assert traces.shape == (16, net.depth() + 1)

    def test_noiseless_value_model_counts_ones(self):
        net = parity_tree(2, balanced=True)
        stims = [{"x0": 1, "x1": 1}]
        traces = leakage_traces(net, stims, noise_sigma=0.0)
        # level 0: x0, x1 both 1 -> sample 2
        assert traces[0, 0] == 2.0

    def test_toggle_model(self):
        net = parity_tree(2, balanced=True)
        stims = [{"x0": 0, "x1": 0}, {"x0": 1, "x1": 0}]
        traces = leakage_traces(net, stims, model="toggle", noise_sigma=0.0)
        # second trace: x0 toggles (level 0) and the XOR output toggles
        assert traces[1, 0] == 1.0
        assert traces[1].sum() >= 2.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            leakage_traces(parity_tree(2), [{}], model="quantum")

    def test_snr_flags_dependent_sample(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 2000)
        traces = rng.normal(0, 1, (2000, 3))
        traces[:, 1] += labels * 2.0
        snr = signal_to_noise_ratio(traces, labels)
        assert snr[1] > 10 * max(snr[0], snr[2])

    def test_snr_noise_free_samples(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 500)
        traces = np.stack([rng.normal(0, 1, 500), np.full(500, 3.0),
                           labels * 2.0], axis=1)
        snr = signal_to_noise_ratio(traces, labels)
        # constant sample: no signal, no noise -> 0, never NaN
        assert np.isfinite(snr[0]) and snr[1] == 0.0
        # noise-free sample whose group means differ -> inf
        assert snr[2] == np.inf and np.argmax(snr) == 2


class TestTvla:
    def test_welch_t_zero_for_identical_stats(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1, (4000, 4))
        b = rng.normal(0, 1, (4000, 4))
        t = welch_t(a, b)
        assert np.all(np.abs(t) < 4.5)

    def test_welch_t_detects_shift(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, (2000, 2))
        b = rng.normal(0, 1, (2000, 2))
        b[:, 1] += 0.5
        res = tvla(a, b)
        assert res.leaks and res.leaking_sample == 1

    def test_second_order(self):
        rng = np.random.default_rng(3)
        # same mean, different variance: first order passes, second fails
        a = rng.normal(0, 1.0, (4000, 1))
        b = rng.normal(0, 2.0, (4000, 1))
        assert not tvla(a, b, order=1).leaks
        assert tvla(a, b, order=2).leaks

    def test_order_validation(self):
        a = np.zeros((10, 2))
        with pytest.raises(ValueError):
            tvla(a, a, order=3)

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            welch_t(np.zeros((1, 2)), np.zeros((5, 2)))

    def test_sweep_monotone_under_leak(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, (4000, 1))
        b = rng.normal(0.3, 1, (4000, 1))
        sweep = tvla_sweep(a, b, (250, 1000, 4000))
        assert sweep[-1] > sweep[0]


class TestCpa:
    def build_traces(self, n, sigma, seed=0):
        net = sbox_with_key_netlist()
        rng = random.Random(seed)
        pts = [rng.randrange(256) for _ in range(n)]
        stims = []
        for pt in pts:
            s = encode_int(pt, [f"p{i}" for i in range(8)])
            s.update(encode_int(0xC3, [f"k{i}" for i in range(8)]))
            stims.append(s)
        traces = leakage_traces(net, stims, noise_sigma=sigma, seed=seed)
        return traces, pts

    def test_key_recovery(self):
        traces, pts = self.build_traces(600, sigma=2.0)
        res = cpa_attack(traces, pts)
        assert res.best_key == 0xC3
        assert res.rank_of(0xC3) == 0

    def test_more_noise_needs_more_traces(self):
        traces, pts = self.build_traces(1500, sigma=6.0, seed=1)
        low = traces_to_disclosure(traces[:400], pts[:400], 0xC3)
        high = traces_to_disclosure(traces, pts, 0xC3)
        assert high != -1
        # with the full set the attack succeeds at some finite count
        assert high > 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            cpa_attack(np.zeros((4, 2)), [1, 2, 3])
        traces = np.random.default_rng(0).normal(0, 1, (4, 2))
        # the default AES model takes byte plaintexts and <= 256 guesses
        for pts in ([1, 2, -1, 3], [1, -200, 2, 3], [1, 2, 3, 256]):
            with pytest.raises(ValueError):
                cpa_attack(traces, pts)
        with pytest.raises(ValueError):
            cpa_attack(traces, [1, 2, 3, 4], n_keys=257)
        with pytest.raises(ValueError):
            cpa_attack(np.empty((0, 2)), [])
        # a custom model defines its own plaintext domain
        res = cpa_attack(traces, [-1, 300, 2, 3],
                         hypothesis=lambda p, k: p * (k + 1), n_keys=2)
        assert res.correlations.shape == (2, 2)


class TestMaskingSoftware:
    def test_share_roundtrip(self):
        rng = random.Random(0)
        for bit in (0, 1):
            for n in (2, 3, 4):
                assert decode_shares(encode_shares(bit, n, rng)) == bit

    def test_masked_xor_correct(self):
        rng = random.Random(1)
        for _ in range(30):
            a, b = rng.randint(0, 1), rng.randint(0, 1)
            at = encode_shares(a, 3, rng)
            bt = encode_shares(b, 3, rng)
            assert decode_shares(masked_xor(at, bt).shares) == a ^ b

    @pytest.mark.parametrize("order", ["secure", "reassociated"])
    def test_isw_and_correct(self, order):
        rng = random.Random(2)
        for _ in range(40):
            a, b = rng.randint(0, 1), rng.randint(0, 1)
            at = encode_shares(a, 3, rng)
            bt = encode_shares(b, 3, rng)
            r = [rng.randint(0, 1) for _ in range(3)]
            out = isw_and(at, bt, r, order=order)
            assert decode_shares(out.shares) == (a & b)

    def test_randomness_count_validated(self):
        with pytest.raises(ValueError):
            isw_and([0, 0, 0], [0, 0, 0], [0, 0])

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            isw_and([0, 0, 0], [0, 0, 0], [0, 0, 0], order="fastest")

    def test_secure_order_probing_secure(self):
        ok, _ = probing_security_first_order(
            lambda a, b, r: isw_and(a, b, r, "secure"))
        assert ok

    def test_reassociated_order_leaks(self):
        ok, leaky = probing_security_first_order(
            lambda a, b, r: isw_and(a, b, r, "reassociated"))
        assert not ok
        assert leaky is not None

    def test_intermediate_trace(self):
        trace = intermediate_value_trace([0, 1, 3])
        assert list(trace) == [0, 1, 2]


class TestMaskingNetlist:
    def test_netlist_computes_and(self):
        nl = isw_and_netlist()
        rng = random.Random(3)
        for _ in range(40):
            a, b = rng.randint(0, 1), rng.randint(0, 1)
            vals = simulate(nl, random_share_stimulus(a, b, 3, rng))
            assert vals["c0"] ^ vals["c1"] ^ vals["c2"] == (a & b)

    def test_secure_netlist_passes_tvla(self):
        nl = isw_and_netlist()
        fixed = leakage_traces(nl, make_share_classes(nl, 4000, True, 1),
                               noise_sigma=0.25, seed=1)
        rand = leakage_traces(nl, make_share_classes(nl, 4000, False, 2),
                              noise_sigma=0.25, seed=2)
        assert not tvla(fixed, rand).leaks

    def test_reassociated_netlist_fails_tvla(self):
        nl = isw_and_netlist()
        late = {f"r_{i}_{j}": 1e5 for i in range(3) for j in range(i + 1, 3)}
        reassociate_for_timing(nl, input_arrivals=late)
        fixed = leakage_traces(nl, make_share_classes(nl, 4000, True, 3),
                               noise_sigma=0.25, seed=3)
        rand = leakage_traces(nl, make_share_classes(nl, 4000, False, 4),
                              noise_sigma=0.25, seed=4)
        assert tvla(fixed, rand).leaks

    def test_localization_finds_reassociated_net(self):
        nl = isw_and_netlist()
        late = {f"r_{i}_{j}": 1e5 for i in range(3) for j in range(i + 1, 3)}
        reassociate_for_timing(nl, input_arrivals=late)
        leaks = locate_leaking_nets(
            nl,
            make_share_classes(nl, 3000, True, 5),
            make_share_classes(nl, 3000, False, 6),
        )
        assert leaks[0].leaks
        report = leaking_gate_report(leaks)
        assert "LEAKS" in report

    def test_secure_netlist_has_no_leaky_net(self):
        nl = isw_and_netlist()
        leaks = locate_leaking_nets(
            nl,
            make_share_classes(nl, 3000, True, 7),
            make_share_classes(nl, 3000, False, 8),
        )
        assert not leaks[0].leaks


class TestWddl:
    def test_functional_equivalence(self):
        sb = aes_sbox_netlist()
        dual, rails = wddl_transform(sb)
        for x in (0, 1, 0x53, 0x9E, 0xFF):
            stim = dual_rail_stimulus(
                encode_int(x, [f"x{i}" for i in range(8)]))
            vals = simulate(dual, stim)
            got = 0
            for bit in range(8):
                t_rail, f_rail = rails[f"y{bit}"]
                assert vals[t_rail] == 1 - vals[f_rail]
                got |= vals[t_rail] << bit
            assert got == SBOX[x]

    def test_constant_total_weight(self):
        sb = aes_sbox_netlist()
        dual, _ = wddl_transform(sb)
        weights = set()
        for x in range(0, 256, 13):
            stim = dual_rail_stimulus(
                encode_int(x, [f"x{i}" for i in range(8)]))
            weights.add(sum(simulate(dual, stim).values()))
        assert len(weights) == 1

    def test_wddl_passes_tvla_where_plain_fails(self):
        sb = aes_sbox_netlist()
        xs = [f"x{i}" for i in range(8)]
        rng = random.Random(9)
        fixed_stims = [encode_int(0xAB, xs) for _ in range(1500)]
        rand_stims = [encode_int(rng.randrange(256), xs) for _ in range(1500)]
        plain_fixed = leakage_traces(sb, fixed_stims, noise_sigma=1.0, seed=1)
        plain_rand = leakage_traces(sb, rand_stims, noise_sigma=1.0, seed=2)
        assert tvla(plain_fixed, plain_rand).leaks

        dual, _ = wddl_transform(sb)
        dual_fixed = leakage_traces(
            dual, [dual_rail_stimulus(s) for s in fixed_stims],
            noise_sigma=1.0, seed=3)
        dual_rand = leakage_traces(
            dual, [dual_rail_stimulus(s) for s in rand_stims],
            noise_sigma=1.0, seed=4)
        assert not tvla(dual_fixed, dual_rand).leaks

    def test_sequential_rejected(self):
        from repro.netlist import GateType, Netlist
        n = Netlist()
        n.add_input("a")
        n.add_gate("q", GateType.DFF, ["a"])
        n.add_output("q")
        with pytest.raises(ValueError):
            wddl_transform(n)


class TestGlitch:
    def test_settles_to_static_values(self):
        net = parity_tree(5, balanced=False)
        before = {f"x{i}": 0 for i in range(5)}
        after = {f"x{i}": 1 for i in range(5)}
        rep = glitch_simulate(net, before, after)
        assert rep.final_values[net.outputs[0]] == 1  # parity of 5 ones

    def test_no_transition_when_inputs_static(self):
        net = parity_tree(3, balanced=True)
        stim = {f"x{i}": 1 for i in range(3)}
        rep = glitch_simulate(net, stim, stim)
        assert rep.total_transitions == 0
        assert rep.glitch_count() == 0

    def test_chain_produces_glitches(self):
        net = parity_tree(8, balanced=False)
        before = {f"x{i}": 0 for i in range(8)}
        after = {f"x{i}": 1 for i in range(8)}
        rep = glitch_simulate(net, before, after)
        assert rep.glitch_count() > 0

    def test_waveform_total_matches_events(self):
        net = parity_tree(4, balanced=False)
        rep = glitch_simulate(net, {f"x{i}": 0 for i in range(4)},
                              {f"x{i}": 1 for i in range(4)})
        wave = rep.power_waveform(bin_width=5.0)
        assert wave.sum() == len(rep.events)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1),
       st.lists(st.integers(0, 1), min_size=3, max_size=3),
       st.integers(0, 10_000))
def test_isw_and_property(a, b, randomness, seed):
    rng = random.Random(seed)
    at = encode_shares(a, 3, rng)
    bt = encode_shares(b, 3, rng)
    for order in ("secure", "reassociated"):
        out = isw_and(at, bt, randomness, order=order)
        assert decode_shares(out.shares) == (a & b)
