"""Tests for HLS: DFG, scheduling, binding, IFT/QIF, secure passes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import SBOX
from repro.hls import (
    Dfg,
    Label,
    OpType,
    aes_first_round_dfg,
    alap_schedule,
    asap_schedule,
    bind,
    dfg_output_leakage,
    evaluate_hls_cpa,
    flushed_exposure,
    insert_register_flushes,
    list_schedule,
    mask_sbox_kernel,
    multi_byte_kernel,
    qif_channel_capacity,
    taint_analysis,
    value_lifetimes,
)

RESOURCES = {"alu": 1, "sbox": 1, "mul": 1, "rng": 1}


class TestDfg:
    def test_duplicate_rejected(self):
        g = Dfg()
        g.add("a", OpType.INPUT)
        with pytest.raises(ValueError):
            g.add("a", OpType.INPUT)

    def test_arity_checked(self):
        g = Dfg()
        g.add("a", OpType.INPUT)
        with pytest.raises(ValueError):
            g.add("x", OpType.XOR, ["a"])

    def test_unknown_operand_rejected(self):
        g = Dfg()
        with pytest.raises(ValueError):
            g.add("x", OpType.NOT, ["nope"])

    def test_evaluate_kernel(self):
        g = aes_first_round_dfg()
        values = g.evaluate({"pt": 0x12, "key": 0x34})
        assert values["ct"] == SBOX[0x12 ^ 0x34]

    def test_evaluate_arith(self):
        g = Dfg()
        g.add("a", OpType.INPUT)
        g.add("b", OpType.INPUT)
        g.add("s", OpType.ADD, ["a", "b"])
        g.add("p", OpType.MUL, ["a", "b"])
        g.add("n", OpType.NOT, ["a"])
        values = g.evaluate({"a": 200, "b": 100})
        assert values["s"] == (300 & 0xFF)
        assert values["p"] == (20000 & 0xFF)
        assert values["n"] == (~200) & 0xFF

    def test_msbox_semantics(self):
        g = Dfg()
        g.add("x", OpType.INPUT)
        g.add("mi", OpType.RAND)
        g.add("mo", OpType.RAND)
        g.add("y", OpType.MSBOX, ["x", "mi", "mo"])
        values = g.evaluate({"x": 0x40}, {"mi": 0x0F, "mo": 0xF0})
        assert values["y"] == SBOX[0x40 ^ 0x0F] ^ 0xF0

    def test_masked_kernel_correct(self):
        g = mask_sbox_kernel()
        values = g.evaluate({"pt": 0x21, "key": 0x43},
                            {"m_in": 0x99, "m_out": 0x77})
        assert values["ct_m"] ^ values["mask_out"] == SBOX[0x21 ^ 0x43]

    def test_multi_byte_kernel(self):
        g = multi_byte_kernel(3)
        stim = {"pt": 1, "key": 2, "pt1": 3, "key1": 4,
                "pt2": 5, "key2": 6}
        values = g.evaluate(stim)
        assert values["ct"] == SBOX[3]
        assert values["ct2"] == SBOX[3]


class TestScheduling:
    def test_asap_respects_dependencies(self):
        g = aes_first_round_dfg()
        schedule = asap_schedule(g)
        assert schedule.start["ark"] >= schedule.start["pt"]
        assert schedule.start["sb"] > schedule.start["ark"]

    def test_alap_not_before_asap(self):
        g = multi_byte_kernel(3)
        asap = asap_schedule(g)
        alap = alap_schedule(g)
        for name in g.ops:
            assert alap.start[name] >= asap.start[name]

    def test_list_schedule_resource_limits(self):
        g = multi_byte_kernel(4)
        schedule = list_schedule(g, RESOURCES)
        # single sbox unit: no two SBOX ops in the same cycle
        sbox_ops = [n for n, op in g.ops.items()
                    if op.op is OpType.SBOX]
        starts = [schedule.start[n] for n in sbox_ops]
        assert len(starts) == len(set(starts))

    def test_more_resources_shorter_latency(self):
        g = multi_byte_kernel(4)
        slow = list_schedule(g, {"alu": 1, "sbox": 1})
        fast = list_schedule(g, {"alu": 4, "sbox": 4})
        assert fast.latency <= slow.latency

    def test_shuffle_changes_order(self):
        g = multi_byte_kernel(4)
        a = list_schedule(g, RESOURCES, shuffle_seed=1)
        b = list_schedule(g, RESOURCES, shuffle_seed=2)
        assert a.start != b.start  # different tie-breaks


class TestBinding:
    def test_register_count_positive(self):
        g = aes_first_round_dfg()
        binding = bind(list_schedule(g, RESOURCES))
        assert binding.n_registers >= 1

    def test_unit_sharing(self):
        g = multi_byte_kernel(4)
        binding = bind(list_schedule(g, RESOURCES))
        # one sbox instance serves all four lanes
        sbox_instances = {
            inst for (cls, inst) in binding.unit_of.values()
            if cls == "sbox"
        }
        assert len(sbox_instances) == 1

    def test_lifetimes_nonnegative(self):
        g = multi_byte_kernel(3)
        for lt in value_lifetimes(list_schedule(g, RESOURCES)):
            assert lt.death >= lt.birth


class TestIft:
    def test_unmasked_kernel_tainted(self):
        report = taint_analysis(aes_first_round_dfg())
        assert report.tainted_outputs == ["ct"]

    def test_masked_kernel_healed(self):
        report = taint_analysis(mask_sbox_kernel())
        assert not report.tainted_outputs
        assert report.healed_by_masking

    def test_masking_unaware_mode_conservative(self):
        report = taint_analysis(mask_sbox_kernel(), masking_aware=False)
        assert report.tainted_outputs  # without healing, taint flows

    def test_reused_random_does_not_heal(self):
        g = Dfg()
        g.add("s", OpType.INPUT, label=Label.SECRET)
        g.add("r", OpType.RAND)
        g.add("m1", OpType.XOR, ["s", "r"])
        g.add("m2", OpType.XOR, ["s", "r"])   # same mask reused!
        g.add("o1", OpType.OUTPUT, ["m1"])
        g.add("o2", OpType.OUTPUT, ["m2"])
        report = taint_analysis(g)
        # reuse means m1 ^ m2 = 0 reveals equality; must not be healed
        assert report.tainted_outputs

    def test_qif_identity_channel(self):
        assert qif_channel_capacity(lambda s, p: s, 4, 2) == 4.0

    def test_qif_constant_channel(self):
        assert qif_channel_capacity(lambda s, p: 7, 4, 2) == 0.0

    def test_qif_parity_channel(self):
        leak = qif_channel_capacity(lambda s, p: bin(s).count("1") & 1,
                                    4, 1)
        assert leak == 1.0

    def test_qif_enumeration_bound(self):
        with pytest.raises(ValueError):
            qif_channel_capacity(lambda s, p: 0, 30, 30)

    def test_frozen_rng_collapses_masking(self):
        # The verification flow must flag that masking with a frozen RNG
        # leaks everything (paper Sec. II-C: weak spots of schemes).
        leak = dfg_output_leakage(mask_sbox_kernel(), "ct_m", "key", "pt")
        assert leak == 8.0


class TestSecurePasses:
    def test_flush_reduces_exposure(self):
        g = mask_sbox_kernel()
        labels = taint_analysis(g).labels
        before = flushed_exposure(list_schedule(g, RESOURCES), labels)
        flushed, inserted = insert_register_flushes(g, labels)
        after = flushed_exposure(list_schedule(flushed, RESOURCES), labels)
        assert inserted
        assert after < before

    def test_flush_preserves_function(self):
        g = mask_sbox_kernel()
        flushed, _ = insert_register_flushes(g)
        values = flushed.evaluate({"pt": 5, "key": 9},
                                  {"m_in": 3, "m_out": 8})
        assert values["ct_m"] ^ values["mask_out"] == SBOX[5 ^ 9]

    def test_cpa_breaks_unmasked(self):
        result = evaluate_hls_cpa(aes_first_round_dfg(), true_key=0x3C,
                                  n_traces=800, noise_sigma=0.8, seed=1)
        assert result.cpa_rank_of_true_key == 0

    def test_cpa_fails_on_masked(self):
        result = evaluate_hls_cpa(mask_sbox_kernel(), true_key=0x3C,
                                  n_traces=800, noise_sigma=0.8, seed=2)
        assert result.cpa_rank_of_true_key > 3

    def test_shuffling_reduces_correlation(self):
        kernel = multi_byte_kernel(4)
        plain = evaluate_hls_cpa(kernel, 0x3C, n_traces=600,
                                 noise_sigma=0.8, seed=3)
        shuffled = evaluate_hls_cpa(kernel, 0x3C, n_traces=600,
                                    noise_sigma=0.8, shuffle=True, seed=3)
        assert shuffled.max_correlation < plain.max_correlation


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255),
       st.integers(0, 255), st.integers(0, 255))
def test_masked_kernel_property(pt, key, m_in, m_out):
    g = mask_sbox_kernel()
    values = g.evaluate({"pt": pt, "key": key},
                        {"m_in": m_in, "m_out": m_out})
    assert values["ct_m"] ^ values["mask_out"] == SBOX[pt ^ key]
