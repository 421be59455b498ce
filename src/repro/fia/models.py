"""Fault models for injection campaigns.

The paper (Sec. II-A.2, III-B) distinguishes direct physical injection
(laser, EM) from architectural faults, and stresses that security
analysis must consider the *attacker-chosen* fault, not only random
ones.  A :class:`Fault` names a net and an effect; campaigns enumerate
or sample these over a netlist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

from ..netlist import GateType, Netlist


class FaultKind(enum.Enum):
    """Supported netlist-level fault effects."""

    STUCK_AT_0 = "sa0"
    STUCK_AT_1 = "sa1"
    BIT_FLIP = "flip"      # transient inversion of the net value


@dataclass(frozen=True)
class Fault:
    """One fault site: an effect applied to the named net."""

    net: str
    kind: FaultKind

    def describe(self) -> str:
        """Short human-readable fault label (e.g. ``sa0@G16``)."""
        return f"{self.kind.value}@{self.net}"


def enumerate_faults(netlist: Netlist,
                     kinds: Sequence[FaultKind] = (
                         FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1)
                     ) -> List[Fault]:
    """All single faults of the given kinds over the netlist's nets,
    primary inputs included."""
    faults: List[Fault] = []
    for g in netlist.gates.values():
        if g.gate_type in (GateType.CONST0, GateType.CONST1):
            continue
        for kind in kinds:
            faults.append(Fault(g.name, kind))
    return faults
