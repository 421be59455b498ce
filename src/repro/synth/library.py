"""Standard-cell libraries for technology mapping.

A :class:`CellLibrary` states which gate functions (and fanin widths)
exist as physical cells.  Camouflaging (:mod:`repro.ip.camouflage`)
constrains synthesis to the functions covered by the obfuscated
primitives — exactly the "regular but constrained synthesis" the paper
describes in Sec. III-B — which is modeled here as mapping to a reduced
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from ..netlist import GateType


@dataclass(frozen=True)
class Cell:
    """One library cell: a gate function at a specific fanin count."""

    name: str
    gate_type: GateType
    fanin: int
    area: float
    delay: float


class CellLibrary:
    """A set of available cells, queried by (gate_type, fanin)."""

    def __init__(self, name: str, cells: Iterable[Cell]) -> None:
        self.name = name
        self.cells: Dict[Tuple[GateType, int], Cell] = {}
        for cell in cells:
            self.cells[(cell.gate_type, cell.fanin)] = cell

    def supports(self, gate_type: GateType, fanin: int) -> bool:
        """Is there a cell implementing this function at this arity?"""
        if gate_type in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            return True
        return (gate_type, fanin) in self.cells

    @property
    def gate_types(self) -> FrozenSet[GateType]:
        return frozenset(t for t, _ in self.cells)

    def __repr__(self) -> str:
        return f"CellLibrary({self.name!r}, {len(self.cells)} cells)"


def standard_library() -> CellLibrary:
    """A conventional 2-input standard-cell library plus DFF and MUX."""
    return CellLibrary("std", [
        Cell("BUF", GateType.BUF, 1, 1.0, 35.0),
        Cell("INV", GateType.NOT, 1, 0.7, 20.0),
        Cell("AND2", GateType.AND, 2, 1.3, 45.0),
        Cell("NAND2", GateType.NAND, 2, 1.0, 30.0),
        Cell("OR2", GateType.OR, 2, 1.3, 50.0),
        Cell("NOR2", GateType.NOR, 2, 1.0, 35.0),
        Cell("XOR2", GateType.XOR, 2, 2.2, 65.0),
        Cell("XNOR2", GateType.XNOR, 2, 2.2, 65.0),
        Cell("MUX2", GateType.MUX, 3, 2.5, 60.0),
        Cell("DFF", GateType.DFF, 1, 4.5, 90.0),
    ])


def nand_inv_library() -> CellLibrary:
    """The minimal NAND2+INV library (universal)."""
    return CellLibrary("nand_inv", [
        Cell("INV", GateType.NOT, 1, 0.7, 20.0),
        Cell("NAND2", GateType.NAND, 2, 1.0, 30.0),
        Cell("BUF", GateType.BUF, 1, 1.0, 35.0),
        Cell("DFF", GateType.DFF, 1, 4.5, 90.0),
    ])


def camouflage_library() -> CellLibrary:
    """Cells realizable by the multi-functional camouflaged primitive.

    The camouflaged cell of :mod:`repro.ip.camouflage` can implement
    NAND/NOR/XNOR (looking identical under imaging), so constrained
    synthesis may use only those plus inverters and buffers.
    """
    return CellLibrary("camo", [
        Cell("INV", GateType.NOT, 1, 0.7, 20.0),
        Cell("BUF", GateType.BUF, 1, 1.0, 35.0),
        Cell("CAMO_NAND", GateType.NAND, 2, 4.0, 80.0),
        Cell("CAMO_NOR", GateType.NOR, 2, 4.0, 80.0),
        Cell("CAMO_XNOR", GateType.XNOR, 2, 4.0, 80.0),
        Cell("DFF", GateType.DFF, 1, 4.5, 90.0),
    ])
