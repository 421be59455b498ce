"""IC camouflaging and the de-camouflaging attack [23].

Camouflaged cells look identical under imaging but implement one of
several functions (here: NAND / NOR / XNOR).  The designer knows the
assignment; a reverse engineer recovers only the candidate set per
cell.  Security therefore reduces to key-guessing — which is made
precise by :func:`decamouflage_to_locked`: each camouflaged cell
becomes a 2-bit key-controlled function selector, and the SAT attack of
:mod:`repro.ip.sat_attack` resolves the assignment from oracle access.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from ..netlist import GateType, Netlist
from .locking import LockedCircuit

#: Functions the camouflaged primitive can implement.
CAMO_CANDIDATES: Tuple[GateType, ...] = (
    GateType.NAND, GateType.NOR, GateType.XNOR,
)


@dataclass
class CamouflagedCircuit:
    """The attacker's view plus the designer's secret assignment."""

    netlist: Netlist                  # true netlist (designer view)
    camo_cells: Dict[str, GateType]   # cell -> actual function
    candidates: Tuple[GateType, ...] = CAMO_CANDIDATES

    @property
    def n_cells(self) -> int:
        return len(self.camo_cells)

    def attacker_view(self) -> Netlist:
        """Netlist with camouflaged cells replaced by placeholders.

        Placeholder cells keep NAND type (arbitrary) — the attacker
        knows connectivity and the candidate set, not the function.
        """
        view = self.netlist.copy(self.netlist.name + "_reveng")
        for cell in self.camo_cells:
            view.gates[cell].gate_type = GateType.NAND
        view.invalidate()
        return view


def camouflage(netlist: Netlist, n_cells: int,
               seed: int = 0) -> CamouflagedCircuit:
    """Camouflage ``n_cells`` two-input cells of candidate-compatible type.

    Cells whose current function is in the candidate set are eligible
    (real flows would constrain synthesis to produce such cells).
    """
    rng = random.Random(seed)
    eligible = [
        g.name for g in netlist.gates.values()
        if g.gate_type in CAMO_CANDIDATES and len(g.fanins) == 2
    ]
    if n_cells > len(eligible):
        raise ValueError(
            f"only {len(eligible)} candidate-compatible cells available"
        )
    chosen = rng.sample(eligible, n_cells)
    return CamouflagedCircuit(
        netlist.copy(netlist.name + "_camo"),
        {cell: netlist.gates[cell].gate_type for cell in chosen},
    )


def decamouflage_to_locked(camo: CamouflagedCircuit) -> LockedCircuit:
    """Reduce de-camouflaging to logic locking.

    Each camouflaged cell ``g(a, b)`` becomes a selector over the three
    candidates driven by two fresh key bits::

        00 -> NAND, 01 -> NOR, 1x -> XNOR

    The correct key encodes the designer's assignment, so breaking the
    resulting locked circuit (e.g. with the SAT attack) *is* the
    de-camouflaging attack.
    """
    locked = camo.netlist.copy(camo.netlist.name + "_dec")
    key: Dict[str, int] = {}
    for index, (cell, actual) in enumerate(sorted(camo.camo_cells.items())):
        g = locked.gates[cell]
        a, b = g.fanins
        k0 = f"keyin{2 * index}"
        k1 = f"keyin{2 * index + 1}"
        locked.add_input(k0)
        locked.add_input(k1)
        nand = locked.add(GateType.NAND, [a, b], prefix=f"cm{index}_")
        nor = locked.add(GateType.NOR, [a, b], prefix=f"cm{index}_")
        xnor = locked.add(GateType.XNOR, [a, b], prefix=f"cm{index}_")
        low = locked.add(GateType.MUX, [k0, nand, nor], prefix=f"cm{index}_")
        sel = locked.add(GateType.MUX, [k1, low, xnor], prefix=f"cm{index}_")
        g.gate_type = GateType.BUF
        g.fanins = [sel]
        if actual is GateType.NAND:
            key[k0], key[k1] = 0, 0
        elif actual is GateType.NOR:
            key[k0], key[k1] = 1, 0
        else:
            key[k0], key[k1] = 0, 1
    locked.invalidate()
    return LockedCircuit(locked, key, scheme="camouflage")
