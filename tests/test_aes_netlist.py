"""Tests for the gate-level AES-128: datapath and scan attack."""

import random

import pytest

from repro.crypto import (
    AES128,
    aes_datapath_netlist,
    expand_key,
    run_aes_datapath,
)
from repro.dft import insert_scan, netlist_scan_attack


@pytest.fixture(scope="module")
def datapath():
    return aes_datapath_netlist()


class TestDatapath:
    def test_fips197_vector(self, datapath):
        key = list(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        pt = list(bytes.fromhex("00112233445566778899aabbccddeeff"))
        ct = run_aes_datapath(datapath, pt, key)
        assert bytes(ct).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_matches_software_randomized(self, datapath):
        rng = random.Random(4)
        key = [rng.randrange(256) for _ in range(16)]
        pt = [rng.randrange(256) for _ in range(16)]
        assert run_aes_datapath(datapath, pt, key) == \
            AES128(key).encrypt(pt)

    def test_flop_count(self, datapath):
        assert len(datapath.flops) == 128


class TestNetlistScanAttack:
    def test_recovers_master_key(self):
        key = [random.Random(5).randrange(256) for _ in range(16)]
        result = netlist_scan_attack(key, seed=6)
        assert result.success
        assert result.recovered_key == key
        assert result.scanned_words == 128

    def test_scan_insertion_on_datapath(self, datapath):
        design = insert_scan(datapath)
        assert design.length == 128
        design.netlist.validate()
