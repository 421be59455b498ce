"""Physically unclonable functions: arbiter and ring-oscillator models.

PUFs appear throughout Table II: HLS allocates them for metering [19],
physical synthesis optimizes their entropy via layout (asymmetry
enhancement, [30]), and timing verification characterizes entropy /
reliability / uniqueness (Sec. III-E).  Silicon randomness is modeled
as per-element Gaussian process variation; measurement noise as
per-evaluation jitter — the standard Monte-Carlo abstraction.

The module also includes the classical *modeling attack* on arbiter
PUFs (the additive delay model is linearly separable), which is the
red-team evaluation a security-aware EDA flow should run before
trusting a PUF-based scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass
class PufMetrics:
    """The three standard PUF quality numbers (ideal: 0.5, ~1.0, 0.5)."""

    uniformity: float     # fraction of 1-responses per chip (ideal 0.5)
    reliability: float    # 1 - intra-chip error rate (ideal 1.0)
    uniqueness: float     # mean inter-chip response HD (ideal 0.5)


class ArbiterPuf:
    """Additive-delay arbiter PUF.

    Each of ``n_stages`` switch stages contributes a delay difference
    depending on its challenge bit; the arbiter outputs the sign of the
    accumulated difference.  The linear model: response =
    sign(w . phi(challenge)) with parity-transformed features phi.
    """

    def __init__(self, n_stages: int = 64, seed: int = 0,
                 asymmetry: float = 0.0) -> None:
        rng = np.random.default_rng(seed)
        # Per-stage delay-difference weights of unit process variation;
        # layout asymmetry ([30]) deliberately enlarges element
        # mismatch, increasing entropy.
        sigma = 1.0 + asymmetry
        self.weights = rng.normal(0.0, sigma, n_stages + 1)
        self.n_stages = n_stages
        self.noise_sigma = 0.05

    def _features(self, challenges: np.ndarray) -> np.ndarray:
        """Parity transform: phi_i = prod_{j>=i} (1 - 2 c_j)."""
        signs = 1 - 2 * challenges  # 0/1 -> +1/-1
        # cumulative product from the right
        phi = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
        ones = np.ones((challenges.shape[0], 1))
        return np.hstack([phi, ones])

    def respond(self, challenges: np.ndarray,
                noisy: bool = False, seed: int = 0) -> np.ndarray:
        """Responses (0/1) for a (n, n_stages) challenge matrix."""
        challenges = np.asarray(challenges)
        if challenges.ndim == 1:
            challenges = challenges[None, :]
        phi = self._features(challenges)
        raw = phi @ self.weights
        if noisy:
            rng = np.random.default_rng(seed)
            raw = raw + rng.normal(0.0, self.noise_sigma, raw.shape)
        return (raw > 0).astype(np.int64)


class RingOscillatorPuf:
    """RO-pair PUF: response bit = which of two ROs oscillates faster."""

    def __init__(self, n_rings: int = 64, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        # Unit process variation around a nominal frequency of 100.
        self.frequencies = 100.0 + rng.normal(0.0, 1.0, n_rings)
        self.noise_sigma = 0.05
        self.n_rings = n_rings

    def respond_pairs(self, pairs: Sequence[Tuple[int, int]],
                      noisy: bool = False, seed: int = 0) -> np.ndarray:
        """Response bit per RO pair (1 = first ring faster)."""
        rng = np.random.default_rng(seed)
        out = []
        for a, b in pairs:
            fa, fb = self.frequencies[a], self.frequencies[b]
            if noisy:
                fa += rng.normal(0.0, self.noise_sigma)
                fb += rng.normal(0.0, self.noise_sigma)
            out.append(1 if fa > fb else 0)
        return np.array(out, dtype=np.int64)


def evaluate_arbiter_population(n_chips: int = 20,
                                n_challenges: int = 500,
                                n_repeats: int = 11,
                                asymmetry: float = 0.0,
                                seed: int = 0) -> PufMetrics:
    """Monte-Carlo fab run of 64-stage arbiter PUFs: uniformity /
    reliability / uniqueness."""
    n_stages = 64
    rng = np.random.default_rng(seed)
    challenges = rng.integers(0, 2, (n_challenges, n_stages))
    chips = [
        ArbiterPuf(n_stages, seed=seed + 1000 + i, asymmetry=asymmetry)
        for i in range(n_chips)
    ]
    responses = np.stack([c.respond(challenges) for c in chips])
    uniformity = float(responses.mean())
    # Reliability: repeated noisy evaluations vs the golden response.
    flips = 0
    for i, chip in enumerate(chips):
        golden = responses[i]
        for rep in range(n_repeats):
            noisy = chip.respond(challenges, noisy=True, seed=rep)
            flips += int(np.sum(noisy != golden))
    reliability = 1.0 - flips / (n_chips * n_repeats * n_challenges)
    # Uniqueness: mean pairwise inter-chip hamming distance.
    distances = []
    for i in range(n_chips):
        for j in range(i + 1, n_chips):
            distances.append(float(np.mean(responses[i] != responses[j])))
    uniqueness = float(np.mean(distances)) if distances else 0.0
    return PufMetrics(uniformity, reliability, uniqueness)


def model_attack_arbiter(puf: ArbiterPuf, n_train: int = 2000,
                         seed: int = 0) -> float:
    """Logistic-regression modeling attack; returns the accuracy on 500
    held-out CRPs after 200 epochs of gradient descent.

    The additive arbiter PUF is linearly separable in the parity
    features, so a software clone reaches ~99% accuracy from a few
    thousand CRPs — the reason bare arbiter PUFs fail authentication
    threat models and EDA must report it.
    """
    rng = np.random.default_rng(seed)
    train_c = rng.integers(0, 2, (n_train, puf.n_stages))
    test_c = rng.integers(0, 2, (500, puf.n_stages))
    train_r = puf.respond(train_c)
    test_r = puf.respond(test_c)
    phi_train = puf._features(train_c)
    phi_test = puf._features(test_c)
    w = np.zeros(phi_train.shape[1])
    y = train_r.astype(float)
    for _ in range(200):
        p = 1.0 / (1.0 + np.exp(-(phi_train @ w)))
        gradient = phi_train.T @ (p - y) / len(y)
        w -= 0.05 * gradient * 10.0
    predictions = (phi_test @ w > 0).astype(np.int64)
    return float(np.mean(predictions == test_r))


def evaluate_ro_population(n_chips: int = 20, n_rings: int = 32,
                           n_repeats: int = 11,
                           seed: int = 0) -> PufMetrics:
    """Population metrics for RO PUFs over disjoint ring pairs."""
    pairs = [(2 * i, 2 * i + 1) for i in range(n_rings // 2)]
    chips = [RingOscillatorPuf(n_rings, seed=seed + i)
             for i in range(n_chips)]
    responses = np.stack([c.respond_pairs(pairs) for c in chips])
    uniformity = float(responses.mean())
    flips = 0
    for i, chip in enumerate(chips):
        golden = responses[i]
        for rep in range(n_repeats):
            noisy = chip.respond_pairs(pairs, noisy=True, seed=rep)
            flips += int(np.sum(noisy != golden))
    reliability = 1.0 - flips / (n_chips * n_repeats * len(pairs))
    distances = []
    for i in range(n_chips):
        for j in range(i + 1, n_chips):
            distances.append(float(np.mean(responses[i] != responses[j])))
    return PufMetrics(uniformity, reliability,
                      float(np.mean(distances)) if distances else 0.0)
