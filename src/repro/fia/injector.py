"""Netlist-level fault injection.

Faults can be *baked in* (a faulty netlist copy, for equivalence-based
analysis) or made *controllable* (an added ``fault_en`` input arms the
fault, so one netlist serves a whole campaign and formal queries can
quantify over fault activation — the "automatic fault analysis" support
of Table II's logic-synthesis row).
"""

from __future__ import annotations

from ..netlist import GateType, Netlist
from .models import Fault, FaultKind


def inject_fault(netlist: Netlist, fault: Fault) -> Netlist:
    """Return a copy of ``netlist`` with ``fault`` permanently applied,
    named ``<netlist>_<fault>``."""
    faulty = netlist.copy(f"{netlist.name}_{fault.describe()}")
    victim = faulty.gate(fault.net)
    if fault.kind in (FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1):
        const = (GateType.CONST0 if fault.kind is FaultKind.STUCK_AT_0
                 else GateType.CONST1)
        if victim.gate_type is GateType.INPUT:
            # Keep the port; stuck value overrides it downstream.
            stuck = faulty.add(const, [], prefix="stuck")
            faulty.rewire_consumers(fault.net, stuck, keep_outputs=False)
        else:
            victim.gate_type = const
            victim.fanins = []
        faulty.invalidate()
        faulty.sweep_dangling()
    elif fault.kind is FaultKind.BIT_FLIP:
        healthy = fault.net
        flipped = faulty.add(GateType.NOT, [healthy], prefix="flip")
        faulty.rewire_consumers(healthy, flipped, keep_outputs=False)
        # rewire_consumers also redirected the NOT gate's own fanin; fix it.
        faulty.gate(flipped).fanins = [healthy]
        faulty.invalidate()
    else:
        raise ValueError(f"unsupported fault kind {fault.kind}")
    return faulty
