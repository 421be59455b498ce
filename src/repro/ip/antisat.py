"""Anti-SAT locking (Xie & Srivastava) — provable SAT-attack resilience.

A second hardening family beside SFLL: an Anti-SAT block computes
``Y = g(X ^ K1) AND NOT g(X ^ K2)`` with ``g`` an AND-tree over ``n``
tapped wires.  For any *correct* key pair (``K1 == K2``) the two halves
cancel and ``Y == 0`` always; a wrong pair makes ``Y = 1`` on at most a
single input pattern, which is XOR-ed into the circuit.  Every SAT-
attack DIP therefore eliminates only O(1) wrong keys, forcing ~2^n
iterations — at the price of near-zero output corruption, the same
resilience/corruption trade-off the paper's Sec. III-B discussion of
locking implies.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..netlist import GateType, Netlist
from .locking import LockedCircuit


def antisat_lock(netlist: Netlist, width: int = 4,
                 seed: int = 0) -> LockedCircuit:
    """Attach an Anti-SAT block of ``width`` taps to a netlist.

    Inserts ``2 * width`` key inputs; the correct key is any pair with
    ``K1 == K2`` — we fix a random one.  The block's output flips a
    random internal net in an output cone.
    """
    rng = random.Random(seed)
    locked = netlist.copy(netlist.name + "_antisat")
    live = locked.transitive_fanin(locked.outputs)
    internal = [
        g.name for g in locked.gates.values()
        if g.gate_type.is_combinational and not g.gate_type.is_source
        and g.name in live and g.name not in locked.outputs
    ]
    inputs = locked.inputs
    if len(inputs) < width:
        raise ValueError(f"need >= {width} primary inputs for the taps")
    taps = rng.sample(inputs, width)
    secret = [rng.randint(0, 1) for _ in range(width)]
    key: Dict[str, int] = {}
    g_terms: List[str] = []
    gbar_terms: List[str] = []
    for index in range(width):
        k1 = f"keyin{index}"
        k2 = f"keyin{width + index}"
        locked.add_input(k1)
        locked.add_input(k2)
        key[k1] = secret[index]
        key[k2] = secret[index]
        g_terms.append(locked.add(GateType.XOR, [taps[index], k1],
                                  prefix=f"as_g{index}_"))
        gbar_terms.append(locked.add(GateType.XOR, [taps[index], k2],
                                     prefix=f"as_h{index}_"))
    g_out = (g_terms[0] if width == 1
             else locked.add(GateType.AND, g_terms, prefix="as_g_"))
    gbar_out = (locked.add(GateType.NOT, gbar_terms, prefix="as_hb_")
                if width == 1
                else locked.add(GateType.NAND, gbar_terms, prefix="as_hb_"))
    y = locked.add(GateType.AND, [g_out, gbar_out], prefix="as_y_")
    victim_net = rng.choice(internal)
    payload = locked.add(GateType.XOR, [victim_net, y], prefix="as_pay_")
    locked.rewire_consumers(victim_net, payload, keep_outputs=False)
    gate = locked.gate(payload)
    gate.fanins = [victim_net if fi == payload else fi
                   for fi in gate.fanins]
    locked.invalidate()
    return LockedCircuit(locked, key, scheme=f"antisat-{width}")
