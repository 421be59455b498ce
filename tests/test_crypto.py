"""Tests for the cryptographic substrate: AES-128, S-boxes, GF(2^8)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    AES128,
    INV_SBOX,
    SBOX,
    SBOX4,
    aes_sbox_netlist,
    expand_key,
    gf_inv,
    gf_mul,
    gf_pow,
    present_sbox_netlist,
    recover_master_key,
    sbox_with_key_netlist,
    xtime,
)
from repro.netlist import decode_int, encode_int, simulate


class TestGF:
    def test_xtime_known(self):
        assert xtime(0x57) == 0xAE
        assert xtime(0xAE) == 0x47  # wraps modulo the AES polynomial

    def test_mul_known(self):
        # FIPS-197 example: {57} * {83} = {c1}
        assert gf_mul(0x57, 0x83) == 0xC1
        assert gf_mul(0x57, 0x13) == 0xFE

    def test_mul_identity_and_zero(self):
        for x in range(256):
            assert gf_mul(x, 1) == x
            assert gf_mul(x, 0) == 0

    def test_mul_commutative(self):
        rng = random.Random(0)
        for _ in range(50):
            a, b = rng.randrange(256), rng.randrange(256)
            assert gf_mul(a, b) == gf_mul(b, a)

    def test_inverse(self):
        assert gf_inv(0) == 0
        for x in range(1, 256):
            assert gf_mul(x, gf_inv(x)) == 1

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(3, 1) == 3
        assert gf_pow(2, 8) == gf_mul(gf_pow(2, 4), gf_pow(2, 4))


class TestAes:
    KEY = list(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    PT = list(bytes.fromhex("00112233445566778899aabbccddeeff"))
    CT = "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_fips197_vector(self):
        aes = AES128(self.KEY)
        assert bytes(aes.encrypt(self.PT)).hex() == self.CT

    def test_fips197_appendix_b(self):
        key = list(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        pt = list(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        ct = AES128(key).encrypt(pt)
        assert bytes(ct).hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_decrypt_inverts(self):
        rng = random.Random(1)
        key = [rng.randrange(256) for _ in range(16)]
        aes = AES128(key)
        for _ in range(10):
            pt = [rng.randrange(256) for _ in range(16)]
            assert aes.decrypt(aes.encrypt(pt)) == pt

    def test_sbox_involution_pair(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        for x in range(256):
            assert INV_SBOX[SBOX[x]] == x

    def test_key_schedule_first_word(self):
        rks = expand_key(list(bytes.fromhex(
            "2b7e151628aed2a6abf7158809cf4f3c")))
        # FIPS-197 A.1: w4 = a0fafe17
        assert bytes(rks[1][:4]).hex() == "a0fafe17"

    def test_recover_master_key(self):
        rng = random.Random(3)
        key = [rng.randrange(256) for _ in range(16)]
        rks = expand_key(key)
        assert recover_master_key(rks[10]) == key

    def test_traced_round_count(self):
        aes = AES128(self.KEY)
        trace = aes.encrypt_traced(self.PT)
        assert len(trace.round_states) == 11
        assert len(trace.sbox_outputs) == 10
        assert trace.ciphertext == trace.round_states[-1]

    def test_fault_injection_changes_ct(self):
        aes = AES128(self.KEY)
        good = aes.encrypt(self.PT)
        bad = aes.encrypt_with_fault(self.PT, round_index=10,
                                     byte_index=0, fault_value=0x41)
        assert good != bad
        # zero fault value is a no-op
        same = aes.encrypt_with_fault(self.PT, round_index=10,
                                      byte_index=0, fault_value=0)
        assert same == good

    def test_fault_round_bounds(self):
        aes = AES128(self.KEY)
        with pytest.raises(ValueError):
            aes.encrypt_with_fault(self.PT, round_index=0, byte_index=0,
                                   fault_value=1)

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            AES128([0] * 15)
        with pytest.raises(ValueError):
            AES128(self.KEY).encrypt([0] * 3)


class TestPresent:
    def test_sbox_is_permutation(self):
        assert sorted(SBOX4) == list(range(16))


class TestSboxNetlists:
    def test_aes_sbox_netlist_exhaustive(self):
        net = aes_sbox_netlist()
        xs = [f"x{i}" for i in range(8)]
        ys = [f"y{i}" for i in range(8)]
        # bit-parallel over all 256 inputs
        stim = {name: 0 for name in xs}
        for v in range(256):
            for i in range(8):
                if (v >> i) & 1:
                    stim[xs[i]] |= 1 << v
        vals = simulate(net, stim, width=256)
        for v in range(256):
            got = 0
            for i in range(8):
                got |= ((vals[ys[i]] >> v) & 1) << i
            assert got == SBOX[v]

    def test_present_sbox_netlist(self):
        net = present_sbox_netlist()
        for v in range(16):
            vals = simulate(net, encode_int(v, [f"x{i}" for i in range(4)]))
            assert decode_int(vals, [f"y{i}" for i in range(4)]) == SBOX4[v]

    def test_keyed_sbox(self):
        net = sbox_with_key_netlist()
        rng = random.Random(4)
        for _ in range(20):
            p, k = rng.randrange(256), rng.randrange(256)
            stim = encode_int(p, [f"p{i}" for i in range(8)])
            stim.update(encode_int(k, [f"k{i}" for i in range(8)]))
            vals = simulate(net, stim)
            assert decode_int(vals, [f"y{i}" for i in range(8)]) == SBOX[p ^ k]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf_mul_distributive(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=16, max_size=16),
       st.lists(st.integers(0, 255), min_size=16, max_size=16))
def test_aes_roundtrip_property(key, pt):
    aes = AES128(key)
    assert aes.decrypt(aes.encrypt(pt)) == pt
