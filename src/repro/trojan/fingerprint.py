"""Path-delay fingerprinting for Trojan detection [35].

Timing-verification-stage scheme from Table II: characterize a golden
population's output path delays (under process variation), then flag
chips whose delay vector falls outside the population envelope.  A
fabrication-time Trojan necessarily loads some path, shifting its delay
beyond mere process noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..netlist import Netlist
from ..physical import output_path_delays

#: Sigma of the per-gate multiplicative process variation of every
#: simulated chip.
DELAY_NOISE = 0.04


@dataclass
class DelayFingerprint:
    """Statistical envelope of a golden chip population."""

    output_order: List[str]
    mean: np.ndarray
    std: np.ndarray
    z_threshold: float = 4.0

    def z_scores(self, delays: np.ndarray) -> np.ndarray:
        """Per-output deviation from the golden population (in sigmas)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.std > 0,
                            (delays - self.mean) / self.std, 0.0)

    def is_outlier(self, delays: np.ndarray) -> bool:
        """Does any output exceed the z-score threshold?"""
        return bool(np.any(np.abs(self.z_scores(delays)) > self.z_threshold))


def golden_population_delays(netlist: Netlist, n_chips: int = 30,
                             seed: int = 0) -> np.ndarray:
    """Simulate a fab lot of golden chips; returns (n_chips, n_outputs)."""
    order = sorted(netlist.outputs)
    rows = [
        output_path_delays(netlist, delay_noise=DELAY_NOISE,
                           seed=seed + i).vector(order)
        for i in range(n_chips)
    ]
    return np.stack(rows)


def build_fingerprint(netlist: Netlist, n_chips: int = 30,
                      seed: int = 0) -> DelayFingerprint:
    """Characterize the golden population envelope."""
    order = sorted(netlist.outputs)
    population = golden_population_delays(netlist, n_chips, seed)
    return DelayFingerprint(
        output_order=order,
        mean=population.mean(axis=0),
        std=population.std(axis=0) + 1e-9,
    )


def measure_chip(netlist: Netlist, seed: int = 0,
                 fingerprint: Optional[DelayFingerprint] = None
                 ) -> np.ndarray:
    """One chip's delay vector in the fingerprint's output order."""
    order = (fingerprint.output_order if fingerprint
             else sorted(netlist.outputs))
    return output_path_delays(netlist, delay_noise=DELAY_NOISE,
                              seed=seed).vector(order)


def screen_population(fingerprint: DelayFingerprint,
                      golden_netlist: Netlist,
                      suspect_netlist: Netlist,
                      n_chips: int = 20) -> Tuple[float, float]:
    """Screen golden and suspect lots (chip seeds from 1000); returns
    (false-positive rate, detection rate) — the fingerprinting ROC
    point."""
    seed = 1000
    false_positives = 0
    for i in range(n_chips):
        delays = measure_chip(golden_netlist, seed + i, fingerprint)
        if fingerprint.is_outlier(delays):
            false_positives += 1
    detections = 0
    for i in range(n_chips):
        delays = measure_chip(suspect_netlist, seed + 5000 + i,
                              fingerprint)
        if fingerprint.is_outlier(delays):
            detections += 1
    return false_positives / n_chips, detections / n_chips
