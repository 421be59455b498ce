"""Parametric (side-channel) Trojan detection: IDDQ and RO networks.

Table II's post-silicon parametric tests: [60] measures quiescent
supply current per power pad and flags regional anomalies; [28] embeds
a ring-oscillator network whose frequencies sag when parasitic logic
loads the local supply.  Both compare against a golden population, so
process variation sets the detection floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netlist import Netlist
from ..netlist.metrics import DEFAULT_COSTS
from ..physical import Placement


def regional_leakage(netlist: Netlist, placement: Placement,
                     seed: int = 0) -> np.ndarray:
    """Per-pad quiescent current: leakage of cells nearest each pad.

    Four pads sit at the die corners; each cell's leakage (with 5%
    process variation) is drawn to its nearest pad — the
    multiple-supply-pad IDDQ model of [60].
    """
    rng = np.random.default_rng(seed)
    w, h = placement.width, placement.height
    pad_positions = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)]
    currents = np.zeros(len(pad_positions))
    for cell, (x, y) in placement.positions.items():
        g = netlist.gates.get(cell)
        if g is None:
            continue
        base = DEFAULT_COSTS[g.gate_type].leakage
        leak = base * max(0.0, 1.0 + rng.normal(0.0, 0.05))
        distances = [abs(x - px) + abs(y - py) for px, py in pad_positions]
        currents[int(np.argmin(distances))] += leak
    return currents


@dataclass
class IddqDetector:
    """Golden-population envelope over per-pad current vectors."""

    mean: np.ndarray
    std: np.ndarray
    z_threshold: float = 4.0

    def is_anomalous(self, currents: np.ndarray) -> bool:
        """Does any pad current exceed the z-score threshold?"""
        z = np.abs((currents - self.mean) / (self.std + 1e-9))
        return bool(np.any(z > self.z_threshold))


def calibrate_iddq(netlist: Netlist, placement: Placement,
                   n_chips: int = 30) -> IddqDetector:
    """Characterize the golden population's per-pad current envelope
    (chip seeds from 0)."""
    rows = np.stack([
        regional_leakage(netlist, placement, i)
        for i in range(n_chips)
    ])
    return IddqDetector(rows.mean(axis=0), rows.std(axis=0) + 1e-9)


def screen_iddq(detector: IddqDetector, netlist: Netlist,
                placement: Placement, n_chips: int = 20) -> float:
    """Fraction of measured chips (seeds from 500) flagged anomalous."""
    flagged = 0
    for i in range(n_chips):
        currents = regional_leakage(netlist, placement, 500 + i)
        if detector.is_anomalous(currents):
            flagged += 1
    return flagged / n_chips


# ----------------------------------------------------------------------
# Ring-oscillator network [28]
# ----------------------------------------------------------------------

@dataclass
class RoNetwork:
    """Grid of on-die ring oscillators sensing local supply droop."""

    positions: List[Tuple[float, float]]
    base_frequency: float = 500.0      # MHz
    droop_coefficient: float = 3.0     # MHz per leakage unit nearby
    sensing_radius: float = 6.0

    def frequencies(self, netlist: Netlist, placement: Placement,
                    extra_cells: Optional[Sequence[str]] = None,
                    seed: int = 0) -> np.ndarray:
        """RO frequencies given the local activity around each RO.

        ``extra_cells`` names cells (e.g. Trojan gates) whose load
        counts double — dormant parasitics still draw leakage.  The
        0.15 MHz measurement noise models frequencies averaged over
        repeated measurements, the usual practice for RO-based
        detection.
        """
        rng = np.random.default_rng(seed)
        extra = set(extra_cells or ())
        freqs = []
        for (rx, ry) in self.positions:
            local = 0.0
            for cell, (x, y) in placement.positions.items():
                if abs(x - rx) + abs(y - ry) > self.sensing_radius:
                    continue
                g = netlist.gates.get(cell)
                if g is None:
                    continue
                weight = 2.0 if cell in extra else 1.0
                local += weight * DEFAULT_COSTS[g.gate_type].leakage
            freqs.append(self.base_frequency
                         - self.droop_coefficient * local * 0.1
                         + rng.normal(0.0, 0.15))
        return np.array(freqs)


def build_ro_network(placement: Placement) -> RoNetwork:
    """Place an evenly spaced 3 x 3 RO network on the die."""
    xs = np.linspace(0, placement.width - 1, 3)
    ys = np.linspace(0, placement.height - 1, 3)
    return RoNetwork([(float(x), float(y)) for x in xs for y in ys])


def ro_detection(network: RoNetwork, netlist: Netlist,
                 placement: Placement,
                 trojan_netlist: Netlist,
                 trojan_placement: Placement,
                 trojan_cells: Sequence[str],
                 seed: int = 0) -> Tuple[bool, float]:
    """Compare a suspect chip's RO vector to a golden population of 20
    chips.

    Returns (detected, max |z| over ROs); detected when any |z|
    exceeds 4.
    """
    golden = np.stack([
        network.frequencies(netlist, placement, seed=seed + i)
        for i in range(20)
    ])
    mean, std = golden.mean(axis=0), golden.std(axis=0) + 1e-9
    suspect = network.frequencies(trojan_netlist, trojan_placement,
                                  extra_cells=trojan_cells,
                                  seed=seed + 999)
    z = np.abs((suspect - mean) / std)
    return bool(np.any(z > 4.0)), float(z.max())
