"""Property checking: combinational proofs.

Supports the paper's Sec. III-D use cases: proving security properties
(e.g. "the alarm output cannot be silenced while a fault is present"),
validating error-detection architectures with formal fault analysis
(ref [32]), and the proof-carrying-hardware style of embedding checkable
properties next to the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..netlist import Netlist
from .cnf import CircuitEncoder


@dataclass
class PropertyResult:
    """Outcome of a property check.

    ``holds`` is True when no violating assignment exists.  Otherwise
    ``witness`` gives violating input values.
    """

    holds: bool
    witness: Optional[List[Dict[str, int]]] = None
    frames_checked: int = 0


def prove_output_constant(netlist: Netlist, output: str, value: int
                          ) -> PropertyResult:
    """Prove a combinational output equals ``value`` for all inputs."""
    enc = CircuitEncoder()
    varmap = enc.encode(netlist)
    enc.assert_equal(varmap[output], 1 - value)
    if not enc.solver.solve():
        return PropertyResult(True, frames_checked=1)
    witness = {
        name: enc.solver.model_value(varmap[name]) for name in netlist.inputs
    }
    return PropertyResult(False, witness=[witness], frames_checked=1)
