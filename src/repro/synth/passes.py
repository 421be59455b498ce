"""Classical logic-synthesis rewrites.

Each rewrite is a function that mutates a netlist in place and returns
its rewrite count.  Each ends with one ``netlist.invalidate()``: flow
traces and job results record mutation epochs, so that bump is part
of the result.  The registered passes of :mod:`repro.flow.library`
call them: one pass per rewrite, and the ``synthesis`` pass runs all
five in turn.  They are deliberately
*security-unaware*: the paper's central motivating observation
(Sec. II-B) is that exactly such PPA-driven rewrites destroy security
properties, which the experiments in :mod:`repro.sca.masking` and
``benchmarks/bench_fig2.py`` demonstrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..netlist import Gate, GateType, Netlist


def _dedupe(nets) -> List[str]:
    """Order-preserving removal of duplicate operands (idempotent ops)."""
    seen: Set[str] = set()
    out: List[str] = []
    for net in nets:
        if net not in seen:
            seen.add(net)
            out.append(net)
    return out


def _xor_survivors(nets) -> List[str]:
    """Operands appearing an odd number of times (XOR self-cancellation)."""
    counts: Dict[str, int] = {}
    order: List[str] = []
    for net in nets:
        if net not in counts:
            order.append(net)
        counts[net] = counts.get(net, 0) + 1
    return [net for net in order if counts[net] % 2 == 1]


def constant_propagation(netlist: Netlist) -> int:
    """Fold constants through the logic until a fixed point.

    ``AND(x, 0) -> 0``, ``AND(x, 1) -> x``, ``XOR(x, 0) -> x``,
    ``XOR(x, 1) -> NOT x``, ``NOT(const) -> const``, ``MUX`` with a
    constant select collapses to one data input, etc.  Returns the
    number of rewrites.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        const_of: Dict[str, int] = {}
        for net in netlist.topological_order():
            g = netlist.gates[net]
            if g.gate_type is GateType.CONST0:
                const_of[net] = 0
            elif g.gate_type is GateType.CONST1:
                const_of[net] = 1
        for net in list(netlist.topological_order()):
            g = netlist.gates[net]
            replacement = _fold(netlist, g, const_of)
            if replacement is not None and replacement != net:
                netlist.rewire_consumers(net, replacement,
                                         keep_outputs=False)
                rewrites += 1
                changed = True
        netlist.sweep_dangling()
    netlist.invalidate()
    return rewrites


def _const_net(netlist: Netlist, value: int) -> str:
    wanted = GateType.CONST1 if value else GateType.CONST0
    for g in netlist.gates.values():
        if g.gate_type is wanted:
            return g.name
    return netlist.add(wanted, [], prefix="const")


def _fold(netlist: Netlist, g: Gate,
          const_of: Dict[str, int]) -> Optional[str]:
    t = g.gate_type
    if not t.is_combinational or t.is_source:
        return None
    consts = [const_of[fi] for fi in g.fanins if fi in const_of]
    if t is GateType.BUF:
        # Output buffers preserve port names; leave them alone.
        return None if g.name in netlist.outputs else g.fanins[0]
    if t is GateType.NOT and g.fanins[0] in const_of:
        return _const_net(netlist, 1 - const_of[g.fanins[0]])
    if t in (GateType.AND, GateType.NAND):
        invert = t is GateType.NAND
        if 0 in consts:
            return _const_net(netlist, 1 if invert else 0)
        keep = _dedupe(fi for fi in g.fanins if const_of.get(fi) != 1)
        return _shrink(netlist, g, keep, GateType.AND, invert, 1)
    if t in (GateType.OR, GateType.NOR):
        invert = t is GateType.NOR
        if 1 in consts:
            return _const_net(netlist, 0 if invert else 1)
        keep = _dedupe(fi for fi in g.fanins if const_of.get(fi) != 0)
        return _shrink(netlist, g, keep, GateType.OR, invert, 0)
    if t in (GateType.XOR, GateType.XNOR):
        keep = _xor_survivors(fi for fi in g.fanins if fi not in const_of)
        parity = sum(consts) & 1
        if t is GateType.XNOR:
            parity ^= 1
        if len(keep) == len(g.fanins) and t is GateType.XOR:
            return None  # nothing folded
        if keep == list(g.fanins) and t is GateType.XNOR and not consts:
            return None  # avoid rebuilding an identical gate forever
        return _rebuild_xor(netlist, keep, parity)
    if t is GateType.MUX:
        sel, d0, d1 = g.fanins
        if sel in const_of:
            return d1 if const_of[sel] else d0
        if d0 == d1:
            return d0
        if d0 in const_of and d1 in const_of:
            if const_of[d0] == const_of[d1]:
                return _const_net(netlist, const_of[d0])
            # MUX(s, 0, 1) = s ; MUX(s, 1, 0) = NOT s
            if const_of[d0] == 0:
                return sel
            return netlist.add(GateType.NOT, [sel], prefix="cp_inv")
    return None


def _shrink(netlist: Netlist, g: Gate, keep: List[str],
            base: GateType, invert: bool, identity: int) -> Optional[str]:
    if len(keep) == len(g.fanins):
        return None
    if not keep:
        return _const_net(netlist, identity if not invert
                          else 1 - identity)
    if len(keep) == 1:
        if invert:
            return netlist.add(GateType.NOT, keep, prefix="cp_inv")
        return keep[0]
    new_type = base
    if invert:
        new_type = GateType.NAND if base is GateType.AND else GateType.NOR
    return netlist.add(new_type, keep, prefix="cp")


def _rebuild_xor(netlist: Netlist, keep: List[str],
                 invert: int) -> Optional[str]:
    if not keep:
        return _const_net(netlist, invert)
    if len(keep) == 1:
        if invert:
            return netlist.add(GateType.NOT, keep, prefix="cp_inv")
        return keep[0]
    new_type = GateType.XNOR if invert else GateType.XOR
    return netlist.add(new_type, keep, prefix="cp")


def structural_hashing(netlist: Netlist) -> int:
    """Merge structurally identical gates (common-subexpression
    elimination) until a fixed point; returns the number of merges.

    Fanins of commutative gates are compared as multisets.  This is the
    sharing-driven optimization that, applied to a masked circuit,
    merges share-wise redundant logic and can collapse the very
    redundancy masking relies on.
    """
    rewrites = 0
    changed = True
    commutative = {GateType.AND, GateType.NAND, GateType.OR,
                   GateType.NOR, GateType.XOR, GateType.XNOR}
    while changed:
        changed = False
        seen: Dict[Tuple, str] = {}
        outputs = set(netlist.outputs)
        for net in list(netlist.topological_order()):
            g = netlist.gates.get(net)
            if g is None or not g.gate_type.is_combinational:
                continue
            if g.gate_type in commutative:
                # Multiset of fanins: order-insensitive, but
                # multiplicity matters (XOR(a,a,b) != XOR(a,b,b)).
                key = (g.gate_type, tuple(sorted(g.fanins)))
            else:
                key = (g.gate_type, tuple(g.fanins))
            if key in seen and seen[key] != net:
                keep, drop = seen[key], net
                # Never merge away a primary-output driver: its
                # port name must survive.
                if drop in outputs and keep not in outputs:
                    keep, drop = drop, keep
                    seen[key] = keep
                if drop in outputs:
                    continue  # both drive outputs: leave them be
                netlist.rewire_consumers(drop, keep)
                rewrites += 1
                changed = True
            else:
                seen[key] = net
        netlist.sweep_dangling()
    netlist.invalidate()
    return rewrites


def double_inversion_elimination(netlist: Netlist) -> int:
    """Collapse NOT(NOT(x)) to x; returns the number removed."""
    rewrites = 0
    for net in list(netlist.topological_order()):
        g = netlist.gates.get(net)
        if g is None or g.gate_type is not GateType.NOT:
            continue
        inner = netlist.gates[g.fanins[0]]
        if inner.gate_type is GateType.NOT:
            netlist.rewire_consumers(net, inner.fanins[0])
            rewrites += 1
    netlist.sweep_dangling()
    netlist.invalidate()
    return rewrites


def buffer_sweep(netlist: Netlist) -> int:
    """Bypass BUF cells that only exist as naming aliases; returns the
    number removed.

    Buffers driving primary outputs are kept so port names survive.
    """
    rewrites = 0
    outputs = set(netlist.outputs)
    for net in list(netlist.topological_order()):
        g = netlist.gates.get(net)
        if g is None or g.gate_type is not GateType.BUF:
            continue
        if net in outputs:
            continue
        netlist.rewire_consumers(net, g.fanins[0])
        rewrites += 1
    netlist.sweep_dangling()
    netlist.invalidate()
    return rewrites


def dead_gate_sweep(netlist: Netlist) -> int:
    """Remove logic with no path to any primary output or flop; returns
    the number of gates removed."""
    removed = netlist.sweep_dangling()
    netlist.invalidate()
    return removed
