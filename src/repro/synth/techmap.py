"""Technology mapping: rewrite a netlist onto a target cell library.

Two stages: decompose variadic gates into 2-input trees, then rewrite
any gate function missing from the library into available primitives
(classical NAND/INV refactorings).
"""

from __future__ import annotations

from typing import Dict, List

from ..netlist import Gate, GateType, Netlist
from .library import CellLibrary, standard_library


def decompose_variadic(netlist: Netlist) -> int:
    """Split gates with more than two fanins into balanced 2-input
    trees.

    Inverting types become a base-function tree plus a final inversion
    folded into the root gate (NAND(a,b,c) -> NAND(AND(a,b), c)).
    Returns the number of gates decomposed.
    """
    rewritten = 0
    for net in list(netlist.topological_order()):
        g = netlist.gates.get(net)
        if g is None or len(g.fanins) <= 2:
            continue
        if g.gate_type is GateType.MUX:
            continue
        base = g.gate_type.base
        operands = list(g.fanins)
        while len(operands) > 2:
            nxt: List[str] = []
            for k in range(0, len(operands) - 1, 2):
                nxt.append(netlist.add(
                    base, [operands[k], operands[k + 1]], prefix="dc"))
            if len(operands) % 2:
                nxt.append(operands[-1])
            operands = nxt
        # The root keeps the original (possibly inverting) type and name.
        g.fanins = operands
        netlist.invalidate()
        rewritten += 1
    return rewritten


def _rewrite_gate(netlist: Netlist, g: Gate, lib: CellLibrary) -> None:
    """Replace one unsupported 1-3 input gate with supported primitives."""
    t = g.gate_type
    has = lib.supports

    def fresh(gate_type: GateType, fanins: List[str]) -> str:
        return netlist.add(gate_type, fanins, prefix="tm")

    def inv(x: str) -> str:
        if has(GateType.NOT, 1):
            return fresh(GateType.NOT, [x])
        return fresh(GateType.NAND, [x, x])

    def nand(a: str, b: str) -> str:
        if has(GateType.NAND, 2):
            return fresh(GateType.NAND, [a, b])
        return inv(fresh(GateType.AND, [a, b]))

    def and2(a: str, b: str) -> str:
        if has(GateType.AND, 2):
            return fresh(GateType.AND, [a, b])
        return inv(nand(a, b))

    def or2(a: str, b: str) -> str:
        if has(GateType.OR, 2):
            return fresh(GateType.OR, [a, b])
        if has(GateType.NOR, 2):
            return inv(fresh(GateType.NOR, [a, b]))
        return nand(inv(a), inv(b))

    def xor2(a: str, b: str) -> str:
        if has(GateType.XOR, 2):
            return fresh(GateType.XOR, [a, b])
        if has(GateType.XNOR, 2):
            return inv(fresh(GateType.XNOR, [a, b]))
        t1 = nand(a, b)
        return nand(nand(a, t1), nand(b, t1))

    a = g.fanins[0]
    b = g.fanins[1] if len(g.fanins) > 1 else None
    if t is GateType.BUF:
        body = inv(inv(a))
    elif t is GateType.NOT:
        body = nand(a, a)
    elif t is GateType.AND:
        body = and2(a, b)
    elif t is GateType.NAND:
        body = nand(a, b)
    elif t is GateType.OR:
        body = or2(a, b)
    elif t is GateType.NOR:
        body = inv(or2(a, b))
    elif t is GateType.XOR:
        body = xor2(a, b)
    elif t is GateType.XNOR:
        body = inv(xor2(a, b))
    elif t is GateType.MUX:
        sel, d0, d1 = g.fanins
        body = nand(nand(inv(sel), d0), nand(sel, d1))
    else:
        raise ValueError(f"cannot map {t.name}")
    # Old gate becomes an alias of the new body, preserving its name.
    if not lib.supports(GateType.BUF, 1):
        raise ValueError("library must provide BUF for name preservation")
    g.gate_type = GateType.BUF
    g.fanins = [body]
    netlist.invalidate()


def map_to_library(netlist: Netlist,
                   library: CellLibrary = None) -> Dict[str, int]:
    """Map every gate onto cells of ``library`` (default: standard lib).

    Variadic gates are decomposed first.  Returns a summary of rewrite
    counts.  The result only contains gate functions available in the
    library (plus BUF aliases preserving net names).
    """
    lib = library or standard_library()
    decomposed = decompose_variadic(netlist)
    rewritten = 0
    for net in list(netlist.topological_order()):
        g = netlist.gates.get(net)
        if g is None:
            continue
        t = g.gate_type
        if not t.is_combinational or t.is_source:
            continue
        if lib.supports(t, len(g.fanins)):
            continue
        _rewrite_gate(netlist, g, lib)
        rewritten += 1
    netlist.sweep_dangling()
    return {"decomposed": decomposed, "rewritten": rewritten}


def to_nand_inv(netlist: Netlist) -> Dict[str, int]:
    """Convenience: canonical NAND2+INV mapping."""
    from .library import nand_inv_library
    return map_to_library(netlist, nand_inv_library())
