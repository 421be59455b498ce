"""Wire-aware static timing and power-density analysis.

Extends the purely structural delay model of
:mod:`repro.netlist.metrics` with placement-dependent wire delay and a
coarse power-density (IR-drop proxy) map — the "timing and power
verification" stage of Table II, whose simulation outputs feed the
side-channel and fingerprinting analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..netlist import GateType, Netlist
from ..netlist.metrics import DEFAULT_COSTS, gate_delay
from .placement import Placement

#: Wire delay per unit Manhattan distance (ps/site).
WIRE_DELAY_PER_UNIT = 8.0


def wire_delay(placement: Placement, driver: str, sink: str) -> float:
    """Wire delay (ps) between two placed cells (Manhattan metric,
    :data:`WIRE_DELAY_PER_UNIT` per site)."""
    if driver not in placement.positions or sink not in placement.positions:
        return 0.0
    return WIRE_DELAY_PER_UNIT * placement.distance(driver, sink)


def arrival_times_placed(netlist: Netlist,
                         placement: Placement) -> Dict[str, float]:
    """Per-net arrival including gate and wire delay; inputs and flop
    outputs arrive at t=0."""
    at: Dict[str, float] = {}
    for net in netlist.topological_order():
        g = netlist.gates[net]
        if g.gate_type.is_source or g.gate_type is GateType.DFF:
            at[net] = 0.0
            continue
        worst = 0.0
        for fi in g.fanins:
            worst = max(worst, at[fi] + wire_delay(placement, fi, net))
        at[net] = worst + gate_delay(g.gate_type, len(g.fanins))
    return at


def critical_path_placed(netlist: Netlist, placement: Placement) -> float:
    """Wire-aware critical-path delay over outputs and flop D-pins."""
    at = arrival_times_placed(netlist, placement)
    endpoints = list(netlist.outputs)
    endpoints.extend(netlist.gates[ff].fanins[0] for ff in netlist.flops)
    return max((at[e] for e in endpoints), default=0.0)


@dataclass
class PathDelayReport:
    """Per-output path delays — the raw material of delay fingerprints."""

    delays: Dict[str, float]

    def vector(self, order: Optional[List[str]] = None) -> np.ndarray:
        """Delays as an array in a fixed output order (default: sorted)."""
        keys = order or sorted(self.delays)
        return np.array([self.delays[k] for k in keys])


def output_path_delays(netlist: Netlist, delay_noise: float = 0.0,
                       seed: int = 0) -> PathDelayReport:
    """Arrival time of each primary output (gate delays only),
    optionally with process variation modeled as multiplicative
    Gaussian noise per gate."""
    if delay_noise <= 0:
        from ..netlist.metrics import arrival_times
        at = arrival_times(netlist)
        return PathDelayReport({o: at[o] for o in netlist.outputs})
    rng = np.random.default_rng(seed)
    at: Dict[str, float] = {}
    for net in netlist.topological_order():
        g = netlist.gates[net]
        if g.gate_type.is_source or g.gate_type is GateType.DFF:
            at[net] = 0.0
            continue
        base = gate_delay(g.gate_type, len(g.fanins))
        jitter = max(0.1, 1.0 + rng.normal(0.0, delay_noise))
        worst = 0.0
        for fi in g.fanins:
            worst = max(worst, at[fi])
        at[net] = worst + base * jitter
    return PathDelayReport({o: at[o] for o in netlist.outputs})


def power_density_map(netlist: Netlist, placement: Placement,
                      bins: int = 8) -> np.ndarray:
    """Leakage power binned over the die — a vectorless IR-drop proxy.

    Hot bins indicate where supply noise (and hence exploitable or
    masking-degrading variation) concentrates.
    """
    grid = np.zeros((bins, bins))
    for cell, (x, y) in placement.positions.items():
        g = netlist.gates.get(cell)
        if g is None:
            continue
        bx = min(bins - 1, int(x * bins / max(1, placement.width)))
        by = min(bins - 1, int(y * bins / max(1, placement.height)))
        grid[by, bx] += DEFAULT_COSTS[g.gate_type].leakage
    return grid
