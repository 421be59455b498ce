"""Associative-tree restructuring — the paper's Fig. 2 offender.

XOR (and AND/OR) are associative and commutative, so a timing-driven
synthesis tool is free to re-associate operand trees: it greedily
combines the *earliest-arriving* operands first so that late signals are
added near the root, minimizing the critical path.

For plain logic this is a pure win.  For a private circuit (ISW
masking), the order of XOR accumulation *is* the security property: if
the share products ``a3*b1, a3*b2, a3*b3`` arrive early and the random
bits ``r_ij`` arrive late (they come from an RNG), the greedy tree
computes ``a3*b1 ^ a3*b2 ^ a3*b3 = a3 & b`` as a physical net — and that
net's power consumption leaks the unmasked secret ``b``.  This module
implements exactly that rewrite; ``benchmarks/bench_fig2.py`` then shows
TVLA lighting up on the result.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..netlist import GateType, Netlist
from ..netlist.metrics import arrival_times, gate_delay

#: Associative/commutative gate families eligible for re-association.
_TREE_FAMILIES = {
    GateType.XOR: (GateType.XOR, GateType.XNOR),
    GateType.AND: (GateType.AND,),
    GateType.OR: (GateType.OR,),
}


@dataclass
class XorTree:
    """A maximal associative operand tree rooted at ``root``.

    ``leaves`` are the non-tree operand nets; ``inverted`` records the
    accumulated XNOR parity (only meaningful for the XOR family);
    ``internal`` lists absorbed tree-internal gate names.
    """

    root: str
    base: GateType
    leaves: List[str]
    inverted: bool
    internal: List[str]


def collect_trees(netlist: Netlist,
                  base: GateType = GateType.XOR) -> List[XorTree]:
    """Find maximal single-fanout operand trees of the given family."""
    family = _TREE_FAMILIES[base]
    fanout = netlist.fanout_map()
    in_family = {
        g.name for g in netlist.gates.values() if g.gate_type in family
    }
    # A gate is absorbed into its consumer's tree if its only consumer is
    # also in the family and it does not drive a primary output.
    absorbed: Set[str] = {
        name for name in in_family
        if len(fanout[name]) == 1 and fanout[name][0] in in_family
        and name not in netlist.outputs
    }
    roots = sorted(in_family - absorbed)
    trees: List[XorTree] = []
    for root in roots:
        leaves: List[str] = []
        internal: List[str] = []
        inverted = False
        stack = [root]
        while stack:
            name = stack.pop()
            g = netlist.gates[name]
            internal.append(name)
            if g.gate_type is GateType.XNOR:
                inverted = not inverted
            for fi in g.fanins:
                if fi in absorbed:
                    stack.append(fi)
                else:
                    leaves.append(fi)
        if len(leaves) > 2 or len(internal) > 1:
            trees.append(XorTree(root, base, leaves, inverted, internal))
    return trees


def _rebuild_greedy(netlist: Netlist, tree: XorTree,
                    arrivals: Dict[str, float]) -> str:
    """Huffman-style timing-driven rebuild: earliest operands merge first."""
    counter = itertools.count()
    heap: List[Tuple[float, int, str]] = [
        (arrivals.get(leaf, 0.0), next(counter), leaf)
        for leaf in tree.leaves
    ]
    heapq.heapify(heap)
    delay = gate_delay(tree.base, 2)
    while len(heap) > 1:
        t0, _, a = heapq.heappop(heap)
        t1, _, b = heapq.heappop(heap)
        net = netlist.add(tree.base, [a, b], prefix="ra")
        heapq.heappush(heap, (max(t0, t1) + delay, next(counter), net))
    return heap[0][2]


def _rebuild_balanced(netlist: Netlist, tree: XorTree) -> str:
    """Depth-balanced rebuild in original operand order."""
    nets = list(tree.leaves)
    while len(nets) > 1:
        nxt = []
        for k in range(0, len(nets) - 1, 2):
            nxt.append(netlist.add(tree.base, [nets[k], nets[k + 1]],
                                   prefix="rb"))
        if len(nets) % 2:
            nxt.append(nets[-1])
        nets = nxt
    return nets[0]


def _splice(netlist: Netlist, tree: XorTree, new_root: str) -> str:
    """Replace the old tree root with ``new_root`` (restoring parity).

    Returns the net that now carries the tree's function — the old root
    name if it was a primary output (kept as a buffer), else the new one.
    The old tree is left dangling; callers sweep once after the last
    splice (a sweep per splice rescans the whole netlist per tree).
    """
    if tree.inverted:
        new_root = netlist.add(GateType.NOT, [new_root], prefix="ra_inv")
    if tree.root in netlist.outputs:
        # Keep the output port name: turn the old root into a buffer.
        g = netlist.gates[tree.root]
        g.gate_type = GateType.BUF
        g.fanins = [new_root]
        netlist.invalidate()
        result = tree.root
    else:
        netlist.rewire_consumers(tree.root, new_root)
        result = new_root
    return result


def reassociate_for_timing(
    netlist: Netlist,
    input_arrivals: Optional[Mapping[str, float]] = None,
) -> int:
    """Timing-driven re-association of all maximal XOR trees.

    Returns the number of trees rebuilt.  ``input_arrivals`` models
    late-arriving primary inputs (e.g. RNG outputs).  This is the
    security-oblivious optimization of the paper's motivational example.
    """
    arrivals = arrival_times(netlist, input_arrivals=input_arrivals)
    rebuilt = 0
    rename: Dict[str, str] = {}
    for tree in collect_trees(netlist, GateType.XOR):
        tree.leaves = [_chase(rename, leaf) for leaf in tree.leaves]
        new_root = _rebuild_greedy(netlist, tree, arrivals)
        rename[tree.root] = _splice(netlist, tree, new_root)
        rebuilt += 1
    if rebuilt:
        netlist.sweep_dangling()
    return rebuilt


def balance_trees(netlist: Netlist) -> int:
    """Depth-balanced re-association of all maximal XOR trees
    (area-neutral delay optimization)."""
    rebuilt = 0
    rename: Dict[str, str] = {}
    for tree in collect_trees(netlist, GateType.XOR):
        tree.leaves = [_chase(rename, leaf) for leaf in tree.leaves]
        new_root = _rebuild_balanced(netlist, tree)
        rename[tree.root] = _splice(netlist, tree, new_root)
        rebuilt += 1
    if rebuilt:
        netlist.sweep_dangling()
    return rebuilt


def _chase(rename: Dict[str, str], net: str) -> str:
    """Follow root renames caused by earlier splices in the same run."""
    while net in rename and rename[net] != net:
        net = rename[net]
    return net
