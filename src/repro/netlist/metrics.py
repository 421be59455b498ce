"""PPA (power, performance, area) estimation for netlists.

Classical EDA is driven by these metrics (paper Sec. II-B); the secure
flow in :mod:`repro.core` reports them side by side with security
metrics.  Costs are in normalized units of a generic standard-cell
library (area in NAND2-equivalents, delay in ps, leakage in nW,
switching energy in fJ per output toggle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .gates import GateType
from .netlist import Netlist


@dataclass(frozen=True)
class CellCost:
    """Per-cell cost record of the generic library."""

    area: float        # NAND2-equivalent units
    delay: float       # intrinsic delay, ps
    leakage: float     # static leakage, nW
    switch_energy: float  # dynamic energy per output transition, fJ


#: Generic technology cost table (roughly NanGate45-shaped ratios).
DEFAULT_COSTS: Dict[GateType, CellCost] = {
    GateType.INPUT: CellCost(0.0, 0.0, 0.0, 0.0),
    GateType.CONST0: CellCost(0.0, 0.0, 0.0, 0.0),
    GateType.CONST1: CellCost(0.0, 0.0, 0.0, 0.0),
    GateType.BUF: CellCost(1.0, 35.0, 0.5, 0.6),
    GateType.NOT: CellCost(0.7, 20.0, 0.4, 0.5),
    GateType.AND: CellCost(1.3, 45.0, 0.9, 1.0),
    GateType.NAND: CellCost(1.0, 30.0, 0.8, 0.9),
    GateType.OR: CellCost(1.3, 50.0, 0.9, 1.0),
    GateType.NOR: CellCost(1.0, 35.0, 0.8, 0.9),
    GateType.XOR: CellCost(2.2, 65.0, 1.6, 1.8),
    GateType.XNOR: CellCost(2.2, 65.0, 1.6, 1.8),
    GateType.MUX: CellCost(2.5, 60.0, 1.5, 1.7),
    GateType.DFF: CellCost(4.5, 90.0, 2.5, 3.0),
}

#: Extra area/delay per fanin beyond the second, for variadic cells.
_EXTRA_FANIN_AREA = 0.35
_EXTRA_FANIN_DELAY = 12.0


@dataclass
class PPAReport:
    """Aggregate PPA summary of one netlist."""

    area: float
    delay: float
    leakage_power: float
    switch_energy: float
    cell_count: int
    flop_count: int
    depth: int

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for reports and DSE objectives."""
        return {
            "area": self.area,
            "delay": self.delay,
            "leakage_power": self.leakage_power,
            "switch_energy": self.switch_energy,
            "cell_count": float(self.cell_count),
            "flop_count": float(self.flop_count),
            "depth": float(self.depth),
        }


def gate_area(gate_type: GateType, n_fanins: int) -> float:
    base = DEFAULT_COSTS[gate_type].area
    extra = max(0, n_fanins - 2) * _EXTRA_FANIN_AREA
    return base + (extra if gate_type.is_combinational else 0.0)


def gate_delay(gate_type: GateType, n_fanins: int) -> float:
    base = DEFAULT_COSTS[gate_type].delay
    extra = max(0, n_fanins - 2) * _EXTRA_FANIN_DELAY
    return base + (extra if gate_type.is_combinational else 0.0)


def area(netlist: Netlist) -> float:
    """Total cell area in NAND2-equivalents."""
    return sum(
        gate_area(g.gate_type, len(g.fanins))
        for g in netlist.gates.values()
    )


def arrival_times(netlist: Netlist,
                  input_arrivals: Optional[Mapping[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-net worst arrival time (ps).

    Inputs and DFF outputs arrive at t=0 unless ``input_arrivals``
    overrides them — e.g. random-number-generator outputs that reach the
    logic late, the scenario of the paper's Fig. 2.
    """
    input_arrivals = input_arrivals or {}
    at: Dict[str, float] = {}
    for net in netlist.topological_order():
        g = netlist.gates[net]
        if g.gate_type.is_source or g.gate_type is GateType.DFF:
            at[net] = float(input_arrivals.get(net, 0.0))
        else:
            at[net] = (max(at[fi] for fi in g.fanins)
                       + gate_delay(g.gate_type, len(g.fanins)))
    return at


def critical_path_delay(netlist: Netlist) -> float:
    """Worst arrival over primary outputs and DFF D-pins (ps)."""
    at = arrival_times(netlist)
    endpoints = list(netlist.outputs)
    endpoints.extend(netlist.gates[ff].fanins[0] for ff in netlist.flops)
    if not endpoints:
        return 0.0
    return max(at[e] for e in endpoints)


def leakage_power(netlist: Netlist) -> float:
    """Total static leakage (nW) over all cells."""
    return sum(DEFAULT_COSTS[g.gate_type].leakage
               for g in netlist.gates.values())


def ppa_report(netlist: Netlist) -> PPAReport:
    """Full PPA summary used by the flow and DSE engines."""
    return PPAReport(
        area=area(netlist),
        delay=critical_path_delay(netlist),
        leakage_power=leakage_power(netlist),
        switch_energy=sum(
            DEFAULT_COSTS[g.gate_type].switch_energy
            for g in netlist.gates.values()
        ),
        cell_count=netlist.num_cells(),
        flop_count=len(netlist.flops),
        depth=netlist.depth(),
    )
