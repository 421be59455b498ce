"""Runtime security monitors and insertion-space denial (TPAD [25],
BISA [20]).

Two design-time mitigations from Table II:

* **Security monitors** — a shadow predictor recomputes a critical
  output; any runtime divergence (a Trojan payload firing, a fault)
  raises ``monitor_alarm``.  This is the concurrent-checking idea of
  TPAD, here instantiated by logic synthesis.
* **Built-in self-authentication (BISA)** — fill every unused placement
  site with interconnected test-able filler cells so a fabrication-time
  adversary finds no room to insert logic without breaking the filler
  self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..netlist import GateType, Netlist, cone_extract
from ..physical import Placement


@dataclass
class MonitoredDesign:
    """Design plus shadow monitors on selected outputs."""

    netlist: Netlist
    monitored_outputs: List[str]
    alarm: str
    overhead_cells: int


def insert_monitors(netlist: Netlist) -> MonitoredDesign:
    """Shadow-and-compare monitors on every output.

    The monitor cone is an independent copy of each output's logic; the
    alarm is the OR of all divergences.  Detects any Trojan payload (or
    fault) localized to one copy, at duplication-like cost for the
    monitored cones.
    """
    targets = list(netlist.outputs)
    host = netlist.copy(netlist.name + "_mon")
    before = host.num_cells()
    divergences: List[str] = []
    for out in targets:
        cone = cone_extract(netlist, out)
        port_map = {inp: inp for inp in cone.inputs}
        rename = host.import_netlist(cone, f"mon_{out}_", port_map)
        divergences.append(
            host.add(GateType.XOR, [out, rename[out]], prefix="mx")
        )
    body = (divergences[0] if len(divergences) == 1
            else host.add(GateType.OR, divergences, prefix="ma"))
    host.add_gate("monitor_alarm", GateType.BUF, [body])
    host.add_output("monitor_alarm")
    return MonitoredDesign(
        netlist=host,
        monitored_outputs=targets,
        alarm="monitor_alarm",
        overhead_cells=host.num_cells() - before,
    )


# ----------------------------------------------------------------------
# BISA-style filler-cell insertion
# ----------------------------------------------------------------------

@dataclass
class BisaFill:
    """Occupied-die accounting after self-authenticating fill."""

    filler_cells: Dict[str, Tuple[int, int]]   # name -> site
    free_sites_before: int
    free_sites_after: int

    @property
    def fill_rate(self) -> float:
        if self.free_sites_before == 0:
            return 1.0
        return 1.0 - self.free_sites_after / self.free_sites_before


def bisa_fill(placement: Placement, fill_fraction: float = 1.0,
              seed: int = 0) -> BisaFill:
    """Fill empty placement sites with self-authenticating cells.

    ``fill_fraction < 1`` models imperfect fill (engineering-change
    headroom etc.) and is exactly what an attacker exploits.
    """
    rng = random.Random(seed)
    occupied = set(placement.positions.values())
    free = [
        (x, y)
        for x in range(placement.width)
        for y in range(placement.height)
        if (x, y) not in occupied
    ]
    count = int(len(free) * fill_fraction)
    chosen = rng.sample(free, count) if count < len(free) else list(free)
    fillers = {
        f"bisa{i}": site for i, site in enumerate(chosen)
    }
    return BisaFill(
        filler_cells=fillers,
        free_sites_before=len(free),
        free_sites_after=len(free) - len(chosen),
    )


def insertion_feasibility(placement: Placement, fill: BisaFill,
                          trojan_sites_needed: int) -> bool:
    """Can an attacker find ``trojan_sites_needed`` free sites within any
    3 x 3 region after the fill?

    A fabrication-time Trojan needs physically close free sites; full
    BISA fill makes this impossible.
    """
    window = 3
    occupied = set(placement.positions.values()) | set(
        fill.filler_cells.values())
    for x0 in range(max(1, placement.width - window + 1)):
        for y0 in range(max(1, placement.height - window + 1)):
            free = sum(
                1
                for x in range(x0, min(placement.width, x0 + window))
                for y in range(y0, min(placement.height, y0 + window))
                if (x, y) not in occupied
            )
            if free >= trojan_sites_needed:
                return True
    return False
