"""Tests for extension modules: MIA and the structural key attack."""

import random

import numpy as np
import pytest

from repro.crypto import sbox_with_key_netlist
from repro.ip import (
    lock_xor,
    resynthesis_resistance,
    structural_key_attack,
)
from repro.netlist import encode_int, random_circuit
from repro.sca import (
    leakage_traces,
    mia_attack,
    mutual_information,
)


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
