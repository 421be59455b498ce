"""Gate-level information-flow tracking (GLIFT).

The netlist-level counterpart of the HLS taint analysis in
:mod:`repro.hls.ift` (paper Table II: information-flow tracking [14];
Sec. III-D: identification of architectural channels [31]).  Each net
carries a *taint* bit alongside its value; shadow propagation is
precise, not conservative: taint crosses a gate only when a tainted
input can actually change the output given the other inputs' current
values (e.g. ``AND(a=0, b=tainted)`` does not propagate — the 0
dominates).

Two query styles:

* :func:`glift_simulate` — dynamic taint for one input vector;
* :func:`prove_no_flow` — SAT proof that *no* input/taint assignment in
  an environment lets a tainted source influence a target (the formal
  "no information flow" guarantee a security sign-off needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..netlist import GateType, Netlist
from ..netlist.gates import evaluate


def _gate_taint(gate_type: GateType, values: Sequence[int],
                taints: Sequence[int], out_value: int) -> int:
    """Precise taint of a gate output (single-bit semantics).

    A gate output is tainted iff flipping some subset of its tainted
    inputs can change the output.  Computed exactly by enumerating the
    tainted inputs' assignments (fanin counts here are tiny).
    """
    tainted_positions = [i for i, t in enumerate(taints) if t]
    if not tainted_positions:
        return 0
    n = len(tainted_positions)
    base = list(values)
    for mask in range(1, 1 << n):
        trial = list(base)
        for bit, position in enumerate(tainted_positions):
            if (mask >> bit) & 1:
                trial[position] ^= 1
        if evaluate(gate_type, trial, 1) != out_value:
            return 1
    return 0


def glift_simulate(netlist: Netlist,
                   inputs: Mapping[str, int],
                   tainted_inputs: Sequence[str]
                   ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Dynamic GLIFT: (values, taints) for every net, one vector."""
    tainted = set(tainted_inputs)
    values: Dict[str, int] = {}
    taints: Dict[str, int] = {}
    for net in netlist.topological_order():
        g = netlist.gates[net]
        if g.gate_type is GateType.INPUT:
            values[net] = inputs[net] & 1
            taints[net] = 1 if net in tainted else 0
            continue
        if g.gate_type is GateType.DFF:
            # Combinational view: registers as untainted sources unless
            # the caller taints them by name.
            values[net] = inputs.get(net, 0) & 1
            taints[net] = 1 if net in tainted else 0
            continue
        fan_values = [values[fi] for fi in g.fanins]
        fan_taints = [taints[fi] for fi in g.fanins]
        values[net] = evaluate(g.gate_type, fan_values, 1)
        taints[net] = _gate_taint(g.gate_type, fan_values, fan_taints,
                                  values[net])
    return values, taints


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
