"""Differential oracle for the key-recovery distinguishers.

``cpa_attack`` and ``mia_attack`` score all key guesses at once: one
(keys x traces) hypothesis matrix, and for MIA one joint histogram over
(key, class, bin) per sample column.  The per-key loops below are the
reference they must reproduce: CPA correlations bit for bit (same
hypothesis integers, same Pearson arithmetic); MIA scores within 1e-12
bits (same per-cell arithmetic summed in another order: at most 81
terms of at most log2(9) bits at float64 eps), with identical rankings.
"""

import random

import numpy as np
import pytest

from repro.crypto import SBOX, sbox_with_key_netlist
from repro.netlist import encode_int
from repro.sca import (
    cpa_attack,
    leakage_traces,
    mia_attack,
    mutual_information,
)

MI_TOLERANCE = 1e-12
TRUE_KEY = 0x4D

_SBOX = np.asarray(SBOX)
_HW = np.array([bin(x).count("1") for x in range(256)])


def loop_aes_hypothesis(pts, key):
    """HW(SBOX[pt ^ k]) for one guess, tables built independently."""
    return _HW[_SBOX[pts ^ key]]


def top_bits_hypothesis(pts, key):
    """Custom integer model: the top six S-box output bits (64 classes).

    Not the whole byte: a bijective model partitions the traces the same
    way under every guess, so all MI scores would tie."""
    return _SBOX[pts ^ key] >> 2


def wide_hypothesis(pts, key):
    return _HW[_SBOX[pts ^ key]] * 1000


def negative_hypothesis(pts, key):
    return _HW[_SBOX[pts ^ key]] - 4


def float_hypothesis(pts, key):
    return _HW[_SBOX[pts ^ key]] / 2.0


def loop_mutual_information(samples, labels, n_bins):
    """Plug-in MI of one sample column and one key's labels: ``np.unique``
    classes and one count per (class, bin) cell."""
    edges = np.histogram_bin_edges(samples, bins=n_bins)
    binned = np.clip(np.digitize(samples, edges[1:-1]), 0, n_bins - 1)
    classes = np.unique(labels)
    joint = np.zeros((len(classes), n_bins))
    for i, c in enumerate(classes):
        joint[i] = np.bincount(binned[labels == c], minlength=n_bins)
    joint /= len(samples)
    p_label = joint.sum(axis=1, keepdims=True)
    p_bin = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = joint / (p_label @ p_bin)
        terms = np.where(joint > 0, joint * np.log2(ratio), 0.0)
    return float(terms.sum())


def loop_mia_scores(traces, pts, hypothesis, n_bins):
    """Per-key MIA: peak MI over samples, floored at 0, for each guess."""
    scores = np.zeros(256)
    for key in range(256):
        labels = hypothesis(pts, key)
        scores[key] = max([0.0] + [
            loop_mutual_information(traces[:, s], labels, n_bins)
            for s in range(traces.shape[1])])
    return scores


@pytest.fixture(scope="module")
def recorded():
    """1500 keyed S-box traces (12 samples) and their plaintexts."""
    rng = random.Random(2)
    pts = [rng.randrange(256) for _ in range(1500)]
    key_bits = encode_int(TRUE_KEY, [f"k{i}" for i in range(8)])
    stims = [{**encode_int(pt, [f"p{i}" for i in range(8)]), **key_bits}
             for pt in pts]
    traces = leakage_traces(sbox_with_key_netlist(), stims,
                            noise_sigma=1.5, seed=3)
    assert traces.shape == (1500, 12)
    return traces, np.asarray(pts)


def select(recorded, view):
    """``poi``: the CPA point-of-interest column of all 1500 traces;
    ``all``: all 12 samples of all traces; ``small``: all 12 samples of
    the first 50 traces."""
    traces, pts = recorded
    if view == "poi":
        poi = cpa_attack(traces, pts).best_sample
        return traces[:, [poi]], pts
    if view == "small":
        return traces[:50], pts[:50]
    return traces, pts


@pytest.mark.parametrize("view", ["poi", "all", "small"])
def test_cpa_matches_per_key_hypotheses(recorded, view):
    traces, pts = select(recorded, view)
    fast = cpa_attack(traces, pts)
    loop = cpa_attack(traces, pts, hypothesis=loop_aes_hypothesis)
    assert np.array_equal(fast.correlations, loop.correlations)
    assert fast.ranking == loop.ranking


@pytest.mark.parametrize("view,n_bins,hypothesis", [
    ("poi", 9, None),
    ("all", 9, None),
    ("small", 9, None),
    ("poi", 2, None),
    ("poi", 16, None),
    ("small", 16, None),
    ("poi", 9, top_bits_hypothesis),   # labels index classes directly
    ("poi", 16, wide_hypothesis),      # labels >= trace count: ranked
    ("small", 2, wide_hypothesis),
    ("poi", 16, negative_hypothesis),
    ("small", 9, negative_hypothesis),
    ("poi", 2, float_hypothesis),
    ("small", 16, float_hypothesis),
])
def test_mia_matches_per_key_loop(recorded, view, n_bins, hypothesis):
    traces, pts = select(recorded, view)
    result = mia_attack(traces, pts, hypothesis=hypothesis, n_bins=n_bins)
    reference = loop_mia_scores(traces, pts,
                                hypothesis or loop_aes_hypothesis, n_bins)
    assert np.max(np.abs(result.scores - reference)) <= MI_TOLERANCE
    assert result.ranking == [int(k) for k in np.argsort(-reference)]
    if view != "small":
        assert result.rank_of(TRUE_KEY) == 0


@pytest.mark.parametrize("hypothesis", [
    loop_aes_hypothesis, top_bits_hypothesis, wide_hypothesis,
    negative_hypothesis, float_hypothesis])
@pytest.mark.parametrize("n_bins", [2, 16])
def test_mutual_information_matches_loop(recorded, hypothesis, n_bins):
    traces, pts = recorded
    for key in (0, TRUE_KEY):
        labels = hypothesis(pts, key)
        for sample in range(traces.shape[1]):
            column = traces[:, sample]
            assert abs(mutual_information(column, labels, n_bins)
                       - loop_mutual_information(column, labels, n_bins)
                       ) <= MI_TOLERANCE
