"""Glitch-aware timing simulation.

The paper (Sec. III-E) stresses that glitches — transient transitions
within one clock cycle — strongly influence information leakage, and
that whether they appear depends on gate delays from physical synthesis.
This module is an event-driven simulator over the netlist with the
library delay model: it replays one input transition and records every
net transition with its time stamp, exposing glitch counts and a
time-binned dynamic power waveform.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..netlist import GateType, Netlist, simulate
from ..netlist.metrics import gate_delay


@dataclass
class GlitchReport:
    """All transition events of one input-vector transition."""

    events: List[Tuple[float, str, int]]  # (time, net, new value)
    transitions: Dict[str, int]           # per-net transition count
    final_values: Dict[str, int]
    initial_values: Dict[str, int] = field(default_factory=dict)

    @property
    def total_transitions(self) -> int:
        return sum(self.transitions.values())

    def glitch_count(self) -> int:
        """Transitions beyond the functionally required single toggle.

        A net that settles to a different value needs exactly one
        transition; one that keeps its value needs zero.  Everything
        above that is glitching.
        """
        extra = 0
        for net, count in self.transitions.items():
            needed = 1 if self.initial_values[net] != self.final_values[net] else 0
            extra += max(0, count - needed)
        return extra

    def power_waveform(self, bin_width: float = 10.0) -> np.ndarray:
        """Transitions per time bin up to the last event (a dynamic
        power proxy)."""
        if not self.events:
            return np.zeros(1)
        end = max(t for t, _, _ in self.events)
        n_bins = int(end / bin_width) + 1
        wave = np.zeros(n_bins)
        for t, _, _ in self.events:
            wave[min(n_bins - 1, int(t / bin_width))] += 1.0
        return wave


def glitch_simulate(netlist: Netlist,
                    before: Mapping[str, int],
                    after: Mapping[str, int]) -> GlitchReport:
    """Event-driven simulation of the transition ``before -> after``.

    Gates switch after their library delay; inputs switch at t=0.
    """
    initial = simulate(netlist, before)
    fanout = netlist.fanout_map()
    values = dict(initial)
    counter = itertools.count()
    # Event queue: (time, seq, net, value)
    queue: List[Tuple[float, int, str, int]] = []
    for name in netlist.inputs:
        new = after.get(name, 0) & 1
        if new != values[name]:
            heapq.heappush(queue, (0.0, next(counter), name, new))
    events: List[Tuple[float, str, int]] = []
    transitions: Dict[str, int] = {net: 0 for net in netlist.gates}

    def delay_of(net: str) -> float:
        g = netlist.gates[net]
        return gate_delay(g.gate_type, len(g.fanins))

    from ..netlist.gates import evaluate

    while queue:
        time, _, net, value = heapq.heappop(queue)
        if values[net] == value:
            continue  # glitch got cancelled by a later-scheduled event
        values[net] = value
        events.append((time, net, value))
        transitions[net] += 1
        for consumer in fanout[net]:
            g = netlist.gates[consumer]
            if g.gate_type is GateType.DFF or not g.gate_type.is_combinational:
                continue
            new_out = evaluate(g.gate_type,
                               [values[fi] for fi in g.fanins], 1)
            heapq.heappush(
                queue,
                (time + delay_of(consumer), next(counter), consumer, new_out),
            )

    report = GlitchReport(events=events, transitions=transitions,
                          final_values=values, initial_values=initial)
    # Sanity: the settled values must match static simulation.
    settled = simulate(netlist, after)
    for net, v in settled.items():
        if netlist.gates[net].gate_type is not GateType.DFF \
                and values[net] != v:
            raise AssertionError(f"event simulation diverged on {net!r}")
    return report
