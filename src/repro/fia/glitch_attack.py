"""Clock-glitch fault attacks via the timing model (paper ref [38]).

"Detailed modeling of fault injections" at the timing-verification
stage: a clock glitch shortens one cycle below the critical path, so
late-arriving outputs latch stale/wrong values.  Which bits fault is
fully determined by the STA arrival times — letting design-time
analysis predict the attacker-reachable fault space, size shields
(timing guard bands), and place detectors.

The model: for a glitched period ``T``, every output with arrival time
above ``T`` captures its *previous* value (the classical setup-violation
model).  :func:`clock_glitch_capture` exposes the resulting
differential, connecting the electrical layer to the DFA key-recovery
layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..netlist import Netlist, simulate
from ..netlist.metrics import arrival_times
from ..physical import Placement, arrival_times_placed


@dataclass
class GlitchOutcome:
    """Result of one glitched capture."""

    period: float
    captured: Dict[str, int]     # output values actually latched
    correct: Dict[str, int]      # values a full cycle would latch
    faulted_outputs: List[str]

    @property
    def fault_count(self) -> int:
        return len(self.faulted_outputs)


def clock_glitch_capture(netlist: Netlist,
                         previous_inputs: Mapping[str, int],
                         current_inputs: Mapping[str, int],
                         period: float,
                         placement: Optional[Placement] = None
                         ) -> GlitchOutcome:
    """Latch outputs after a shortened cycle.

    Outputs whose (placed) arrival exceeds ``period`` capture the value
    from the *previous* evaluation; the rest capture correctly.
    """
    if placement is not None:
        at = arrival_times_placed(netlist, placement)
    else:
        at = arrival_times(netlist)
    stale = simulate(netlist, previous_inputs)
    fresh = simulate(netlist, current_inputs)
    captured: Dict[str, int] = {}
    faulted: List[str] = []
    for out in netlist.outputs:
        if at[out] > period:
            captured[out] = stale[out]
            if stale[out] != fresh[out]:
                faulted.append(out)
        else:
            captured[out] = fresh[out]
    return GlitchOutcome(
        period=period,
        captured=captured,
        correct={o: fresh[o] for o in netlist.outputs},
        faulted_outputs=faulted,
    )
