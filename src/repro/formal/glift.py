"""Gate-level information-flow tracking (GLIFT).

The netlist-level counterpart of the HLS taint analysis in
:mod:`repro.hls.ift` (paper Table II: information-flow tracking [14];
Sec. III-D: identification of architectural channels [31]).
:func:`prove_no_flow` is a SAT proof that *no* input assignment in an
environment lets a source input influence a target — the formal "no
information flow" guarantee a security sign-off needs.  It is precise,
not conservative: a source that a controlling value masks
(``AND(a=0, b=source)`` with ``a`` pinned to 0) does not flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..netlist import Netlist


@dataclass
class FlowResult:
    """Outcome of a no-flow proof."""

    flows: bool
    witness: Optional[Dict[str, int]] = None   # inputs exhibiting flow

    @property
    def isolated(self) -> bool:
        return not self.flows


def prove_no_flow(netlist: Netlist, source: str, target: str,
                  fixed: Optional[Mapping[str, int]] = None
                  ) -> FlowResult:
    """SAT proof that ``source`` cannot influence ``target``.

    Encodes two copies differing only in the ``source`` input (all
    other inputs shared, ``fixed`` pins control inputs) and asks for an
    assignment where ``target`` differs.  UNSAT = non-interference
    holds in that environment.
    """
    from .cnf import CircuitEncoder

    fixed = dict(fixed or {})
    if source not in netlist.inputs:
        raise ValueError(f"{source!r} is not a primary input")
    enc = CircuitEncoder()
    left = enc.encode(netlist)
    for net, value in fixed.items():
        enc.assert_equal(left[net], value)
    shared = {
        name: left[name] for name in netlist.inputs if name != source
    }
    right = enc.encode(netlist, bind=shared)
    # The two source copies must differ.
    diff_src = enc.xor_of(left[source], right[source])
    enc.assert_equal(diff_src, 1)
    diff_target = enc.xor_of(left[target], right[target])
    enc.assert_equal(diff_target, 1)
    if not enc.solver.solve():
        return FlowResult(False)
    witness = {
        name: enc.solver.model_value(left[name])
        for name in netlist.inputs
    }
    return FlowResult(True, witness)
