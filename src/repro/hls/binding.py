"""Resource binding and register allocation.

Binds scheduled operations to functional-unit instances and values to
registers by the left-edge algorithm over lifetimes.  Lifetime data is
also the security currency here: how long a secret-labelled value sits
in a register is exactly the exposure the register-flushing pass of
:mod:`repro.hls.secure` minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .dfg import Label, OpType
from .schedule import OP_LATENCY, Schedule, UNIT_CLASS


@dataclass
class Lifetime:
    """A value's residency interval in the register file."""

    producer: str
    birth: int      # cycle the value becomes available
    death: int      # last cycle any consumer reads it
    label: Label

    @property
    def span(self) -> int:
        return max(0, self.death - self.birth)


def value_lifetimes(schedule: Schedule) -> List[Lifetime]:
    """Birth/death intervals for every produced value, each labelled
    with its op's own source label."""
    dfg = schedule.dfg
    consumers = dfg.consumers()
    lifetimes: List[Lifetime] = []
    for name, op in dfg.ops.items():
        if op.op in (OpType.OUTPUT, OpType.FLUSH):
            continue
        birth = schedule.start[name] + OP_LATENCY[op.op]
        uses = consumers[name]
        if not uses:
            death = birth
        else:
            death = max(schedule.start[u] for u in uses)
            # A FLUSH consumer *ends* the lifetime at its own cycle.
        lifetimes.append(Lifetime(name, birth, death, op.label))
    return lifetimes


def left_edge_allocate(lifetimes: List[Lifetime]) -> Dict[str, int]:
    """Left-edge register allocation: value -> register index."""
    ordered = sorted(lifetimes, key=lambda lt: (lt.birth, lt.death))
    register_free_at: List[int] = []
    assignment: Dict[str, int] = {}
    for lt in ordered:
        placed = False
        for reg, free_at in enumerate(register_free_at):
            if free_at <= lt.birth:
                assignment[lt.producer] = reg
                register_free_at[reg] = lt.death
                placed = True
                break
        if not placed:
            assignment[lt.producer] = len(register_free_at)
            register_free_at.append(lt.death)
    return assignment


@dataclass
class Binding:
    """Complete binding: ops to unit instances, values to registers."""

    unit_of: Dict[str, Tuple[str, int]]   # op -> (class, instance)
    register_of: Dict[str, int]
    n_registers: int
    n_units: Dict[str, int]


def bind(schedule: Schedule) -> Binding:
    """Greedy unit binding + left-edge register allocation."""
    dfg = schedule.dfg
    unit_of: Dict[str, Tuple[str, int]] = {}
    # Track per-class instance busy intervals.
    instances: Dict[str, List[int]] = {}   # class -> free-at per instance
    for name in sorted(dfg.ops, key=lambda n: schedule.start[n]):
        op = dfg.ops[name]
        unit_class = UNIT_CLASS.get(op.op)
        if unit_class is None:
            continue
        begin = schedule.start[name]
        end = begin + OP_LATENCY[op.op]
        pool = instances.setdefault(unit_class, [])
        for idx, free_at in enumerate(pool):
            if free_at <= begin:
                unit_of[name] = (unit_class, idx)
                pool[idx] = end
                break
        else:
            unit_of[name] = (unit_class, len(pool))
            pool.append(end)
    lifetimes = value_lifetimes(schedule)
    registers = left_edge_allocate(lifetimes)
    return Binding(
        unit_of=unit_of,
        register_of=registers,
        n_registers=(max(registers.values()) + 1) if registers else 0,
        n_units={cls: len(pool) for cls, pool in instances.items()},
    )
