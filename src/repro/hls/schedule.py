"""Operation scheduling: ASAP, ALAP, resource-constrained list scheduling.

The classical HLS core.  Security hooks appear as two extras: a random
*shuffle* tiebreak (temporal jitter against SCA alignment) and the
latency/resource reporting the secure-composition flow consumes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .dfg import Dfg, OpType

#: Cycles each operation occupies its functional unit.
OP_LATENCY = {
    OpType.INPUT: 0, OpType.CONST: 0, OpType.RAND: 1,
    OpType.ADD: 1, OpType.XOR: 1, OpType.AND: 1, OpType.OR: 1,
    OpType.NOT: 1, OpType.MUL: 2, OpType.SBOX: 1, OpType.MSBOX: 2,
    OpType.OUTPUT: 0,
    OpType.FLUSH: 1,
}

#: Which functional-unit class executes each op.
UNIT_CLASS = {
    OpType.ADD: "alu", OpType.XOR: "alu", OpType.AND: "alu",
    OpType.OR: "alu", OpType.NOT: "alu", OpType.FLUSH: "alu",
    OpType.MUL: "mul", OpType.SBOX: "sbox", OpType.MSBOX: "sbox",
    OpType.RAND: "rng",
}


@dataclass
class Schedule:
    """Start cycle per operation plus derived stats."""

    start: Dict[str, int]
    dfg: Dfg

    @property
    def latency(self) -> int:
        ends = [
            self.start[name] + OP_LATENCY[self.dfg.ops[name].op]
            for name in self.start
        ]
        return max(ends) if ends else 0


def asap_schedule(dfg: Dfg) -> Schedule:
    """As-soon-as-possible schedule (unconstrained resources)."""
    start: Dict[str, int] = {}
    for name in dfg.topological_order():
        op = dfg.ops[name]
        ready = 0
        for a in op.args:
            ready = max(ready,
                        start[a] + OP_LATENCY[dfg.ops[a].op])
        start[name] = ready
    return Schedule(start, dfg)


def alap_schedule(dfg: Dfg) -> Schedule:
    """As-late-as-possible schedule against the ASAP latency."""
    horizon = asap_schedule(dfg).latency
    consumers = dfg.consumers()
    start: Dict[str, int] = {}
    for name in reversed(dfg.topological_order()):
        op = dfg.ops[name]
        latest = horizon - OP_LATENCY[op.op]
        for c in consumers[name]:
            latest = min(latest, start[c] - OP_LATENCY[op.op])
        start[name] = max(0, latest)
    return Schedule(start, dfg)


def list_schedule(dfg: Dfg, resources: Mapping[str, int],
                  shuffle_seed: Optional[int] = None) -> Schedule:
    """Resource-constrained list scheduling (mobility priority).

    ``resources`` caps concurrent ops per unit class, e.g.
    ``{"alu": 2, "sbox": 1, "mul": 1, "rng": 1}``.  With
    ``shuffle_seed`` set, ready-list ties are broken randomly — the
    *operation shuffling* countermeasure (temporal misalignment against
    trace averaging) rather than deterministically.
    """
    asap = asap_schedule(dfg)
    alap = alap_schedule(dfg)
    mobility = {n: alap.start[n] - asap.start[n] for n in dfg.ops}
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    remaining = set(dfg.ops)
    start: Dict[str, int] = {}
    done_at: Dict[str, int] = {}
    cycle = 0
    while remaining:
        busy: Dict[str, int] = {}
        for name in start:
            op = dfg.ops[name]
            unit = UNIT_CLASS.get(op.op)
            if unit and start[name] <= cycle < done_at[name]:
                busy[unit] = busy.get(unit, 0) + 1
        ready = [
            n for n in remaining
            if all(a in done_at and done_at[a] <= cycle
                   for a in dfg.ops[n].args)
        ]
        if rng is not None:
            rng.shuffle(ready)
        ready.sort(key=lambda n: mobility[n])
        for name in ready:
            op = dfg.ops[name]
            unit = UNIT_CLASS.get(op.op)
            if unit is not None:
                cap = resources.get(unit, 1)
                if busy.get(unit, 0) >= cap:
                    continue
                busy[unit] = busy.get(unit, 0) + 1
            start[name] = cycle
            done_at[name] = cycle + OP_LATENCY[op.op]
            remaining.discard(name)
        cycle += 1
        if cycle > 10 * len(dfg.ops) + 10:
            raise RuntimeError("list scheduling failed to converge")
    return Schedule(start, dfg)
