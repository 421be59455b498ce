"""Wave Dynamic Differential Logic (WDDL) — gate-level hiding [21].

WDDL makes power consumption data-independent by computing every signal
on two complementary rails: for each original net ``s`` the protected
circuit carries ``s_t`` (true rail) and ``s_f`` (false rail) with the
invariant ``s_f = NOT s_t`` during evaluation.  Exactly one rail of
every pair is 1, so the total Hamming weight of the circuit state is a
data-independent constant — the "hiding" alternative to masking that
the paper lists for security-driven logic synthesis (Sec. III-B).

The transform requires a positive (AND/OR) network: inverters become
rail swaps.  :func:`to_and_or_not` first rewrites arbitrary logic into
AND/OR/NOT form.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..netlist import GateType, Netlist


def to_and_or_not(netlist: Netlist) -> Netlist:
    """Rewrite into AND2/OR2/NOT/BUF form (DeMorgan + XOR expansion)."""
    out = Netlist(netlist.name + "_aon")
    rename: Dict[str, str] = {}

    def inv(x: str) -> str:
        return out.add(GateType.NOT, [x], prefix="n")

    def and2(a: str, b: str) -> str:
        return out.add(GateType.AND, [a, b], prefix="g")

    def or2(a: str, b: str) -> str:
        return out.add(GateType.OR, [a, b], prefix="g")

    def reduce_tree(op, operands: List[str]) -> str:
        acc = operands[0]
        for x in operands[1:]:
            acc = op(acc, x)
        return acc

    for net in netlist.topological_order():
        g = netlist.gates[net]
        t = g.gate_type
        ins = [rename[fi] for fi in g.fanins] if t.is_combinational else []
        if t is GateType.INPUT:
            rename[net] = out.add_input(net)
            continue
        if t is GateType.DFF:
            raise ValueError("WDDL transform expects combinational logic")
        if t is GateType.CONST0:
            rename[net] = out.add_gate(net, GateType.CONST0)
        elif t is GateType.CONST1:
            rename[net] = out.add_gate(net, GateType.CONST1)
        elif t is GateType.BUF:
            rename[net] = ins[0]
        elif t is GateType.NOT:
            rename[net] = inv(ins[0])
        elif t is GateType.AND:
            rename[net] = reduce_tree(and2, ins)
        elif t is GateType.NAND:
            rename[net] = inv(reduce_tree(and2, ins))
        elif t is GateType.OR:
            rename[net] = reduce_tree(or2, ins)
        elif t is GateType.NOR:
            rename[net] = inv(reduce_tree(or2, ins))
        elif t in (GateType.XOR, GateType.XNOR):
            acc = ins[0]
            for x in ins[1:]:
                acc = or2(and2(acc, inv(x)), and2(inv(acc), x))
            rename[net] = inv(acc) if t is GateType.XNOR else acc
        elif t is GateType.MUX:
            s, d0, d1 = ins
            rename[net] = or2(and2(inv(s), d0), and2(s, d1))
        else:
            raise ValueError(f"unsupported gate {t.name}")
    for o in netlist.outputs:
        alias = out.new_name("y_alias")
        out.add_gate(alias, GateType.BUF, [rename[o]])
        out.outputs.append(alias)
    return out


def wddl_transform(netlist: Netlist) -> Tuple[Netlist, Dict[str, Tuple[str, str]]]:
    """Dual-rail WDDL version of a combinational netlist.

    Returns ``(protected, rails)`` where ``rails`` maps each original
    primary input/output name to its ``(true_rail, false_rail)`` nets.
    Inputs must be provided in complementary pairs by the testbench
    (this models the differential encoding of the original scheme).
    """
    aon = to_and_or_not(netlist)
    dual = Netlist(netlist.name + "_wddl")
    t_of: Dict[str, str] = {}
    f_of: Dict[str, str] = {}
    rails: Dict[str, Tuple[str, str]] = {}
    for net in aon.topological_order():
        g = aon.gates[net]
        t = g.gate_type
        if t is GateType.INPUT:
            t_of[net] = dual.add_input(f"{net}_t")
            f_of[net] = dual.add_input(f"{net}_f")
            rails[net] = (t_of[net], f_of[net])
        elif t is GateType.CONST0:
            t_of[net] = dual.add(GateType.CONST0, [], prefix="c0")
            f_of[net] = dual.add(GateType.CONST1, [], prefix="c1")
        elif t is GateType.CONST1:
            t_of[net] = dual.add(GateType.CONST1, [], prefix="c1")
            f_of[net] = dual.add(GateType.CONST0, [], prefix="c0")
        elif t is GateType.NOT:
            # Inversion is free: swap rails.
            t_of[net] = f_of[g.fanins[0]]
            f_of[net] = t_of[g.fanins[0]]
        elif t is GateType.BUF:
            t_of[net] = t_of[g.fanins[0]]
            f_of[net] = f_of[g.fanins[0]]
        elif t is GateType.AND:
            ts = [t_of[fi] for fi in g.fanins]
            fs = [f_of[fi] for fi in g.fanins]
            t_of[net] = dual.add(GateType.AND, ts, prefix="wt")
            f_of[net] = dual.add(GateType.OR, fs, prefix="wf")
        elif t is GateType.OR:
            ts = [t_of[fi] for fi in g.fanins]
            fs = [f_of[fi] for fi in g.fanins]
            t_of[net] = dual.add(GateType.OR, ts, prefix="wt")
            f_of[net] = dual.add(GateType.AND, fs, prefix="wf")
        else:
            raise ValueError(f"AON form should not contain {t.name}")
    for o in aon.outputs:
        t_name = dual.new_name("out_t")
        f_name = dual.new_name("out_f")
        dual.add_gate(t_name, GateType.BUF, [t_of[o]])
        dual.add_gate(f_name, GateType.BUF, [f_of[o]])
        dual.add_output(t_name)
        dual.add_output(f_name)
    # Map original outputs to rail pairs (in aon.outputs order, which
    # matches netlist.outputs order).
    for original, t_rail, f_rail in zip(
            netlist.outputs, dual.outputs[::2], dual.outputs[1::2]):
        rails[original] = (t_rail, f_rail)
    return dual, rails


def dual_rail_stimulus(stimulus: Dict[str, int],
                       width: int = 1) -> Dict[str, int]:
    """Encode a single-rail stimulus into complementary rail pairs.

    ``stimulus`` maps each input to a ``width``-bit packed word (a
    per-trace dict at the default width 1); each false rail is the
    complement of its true rail over those ``width`` bits.
    """
    mask = (1 << width) - 1
    out: Dict[str, int] = {}
    for name, value in stimulus.items():
        out[f"{name}_t"] = value & mask
        out[f"{name}_f"] = ~value & mask
    return out
