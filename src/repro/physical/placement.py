"""Cell placement on a grid die.

Physical synthesis (paper Sec. III-C) is where security meets geometry:
split manufacturing, sensor coverage, and proximity attacks are all
defined on cell locations.  This module provides a half-perimeter
wirelength (HPWL) objective and a simulated-annealing placer — the
classical PnR core, deliberately security-unaware so the security
passes in :mod:`repro.ip.split` have realistic layout hints to attack
and to dissolve.

Incremental cost evaluation keeps the placer fast: a move re-prices
only the nets whose bounding box it can change, which leaves out most
moves' high-fanout nets (a pin strictly inside a box that lands inside
it cannot move the box), and gives the same placement as re-pricing
every net of the moved cells.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..netlist import GateType, Netlist

Point = Tuple[int, int]


@dataclass
class Placement:
    """Cell coordinates on an integer grid."""

    positions: Dict[str, Point]
    width: int
    height: int

    def location(self, cell: str) -> Point:
        """Grid coordinates of ``cell``."""
        return self.positions[cell]

    def distance(self, cell_a: str, cell_b: str) -> float:
        """Manhattan distance between two placed cells."""
        (xa, ya), (xb, yb) = self.positions[cell_a], self.positions[cell_b]
        return abs(xa - xb) + abs(ya - yb)

    def copy(self) -> "Placement":
        """Independent copy (positions dict is duplicated)."""
        return Placement(dict(self.positions), self.width, self.height)


def _placeable_cells(netlist: Netlist) -> List[str]:
    return [
        g.name for g in netlist.gates.values()
        if g.gate_type not in (GateType.CONST0, GateType.CONST1)
    ]


def _site_list(width: int, height: int) -> List[Point]:
    """All legal sites of a ``width`` x ``height`` die, row-major."""
    return [(x, y) for x in range(width) for y in range(height)]


def _die_dimensions(cell_count: int, width: Optional[int],
                    height: Optional[int]) -> Tuple[int, int]:
    """Resolve die dimensions, defaulting to ~1.5x cell area, square."""
    if width is None or height is None:
        side = max(2, math.ceil(math.sqrt(cell_count * 1.5)))
        width = width or side
        height = height or side
    if width * height < cell_count:
        raise ValueError("die too small for the cell count")
    return width, height


def random_placement(netlist: Netlist, width: Optional[int] = None,
                     height: Optional[int] = None,
                     seed: int = 0,
                     sites: Optional[List[Point]] = None) -> Placement:
    """Uniform random legal placement (one cell per site).

    ``sites`` lets a caller that already enumerated the die (e.g. the
    annealer) pass the list in instead of rebuilding it; it is not
    mutated.
    """
    cells = _placeable_cells(netlist)
    width, height = _die_dimensions(len(cells), width, height)
    rng = random.Random(seed)
    shuffled = list(sites) if sites is not None else _site_list(width,
                                                                height)
    rng.shuffle(shuffled)
    return Placement(dict(zip(cells, shuffled)), width, height)


def nets_for_wirelength(netlist: Netlist) -> List[List[str]]:
    """One multi-pin net per driver: [driver, consumer1, ...]."""
    fanout = netlist.fanout_map()
    nets = []
    for driver, consumers in fanout.items():
        if not consumers:
            continue
        if netlist.gates[driver].gate_type in (GateType.CONST0,
                                               GateType.CONST1):
            continue
        nets.append([driver] + consumers)
    return nets


def hpwl(placement: Placement, nets: Iterable[List[str]]) -> float:
    """Total half-perimeter wirelength over multi-pin nets."""
    total = 0.0
    pos = placement.positions
    for net in nets:
        xs = [pos[c][0] for c in net if c in pos]
        ys = [pos[c][1] for c in net if c in pos]
        if len(xs) < 2:
            continue
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


@dataclass
class PlacementResult:
    placement: Placement
    initial_hpwl: float
    final_hpwl: float
    moves_accepted: int

    @property
    def improvement(self) -> float:
        if self.initial_hpwl == 0:
            return 0.0
        return 1.0 - self.final_hpwl / self.initial_hpwl


def annealing_placement(netlist: Netlist,
                        iterations: int = 20_000,
                        seed: int = 0,
                        width: Optional[int] = None,
                        height: Optional[int] = None,
                        initial_temperature: float = 4.0,
                        ) -> PlacementResult:
    """Simulated-annealing placement minimizing HPWL.

    Moves are cell swaps / relocations to empty sites; temperature
    follows a geometric schedule.  Each net's bounding box is kept
    beside its cost, and a move re-prices only the moved cells' nets
    whose box it can change.  The skip is exact: a pin strictly inside
    its net's box that lands inside the box leaves every min and max
    unchanged, so a net whose moved pins all do that keeps its cost.
    A two-pin net's pins are both on its box, so it is always
    re-priced.  Costs are integers, so the move's summed delta is the
    same in any order, and the RNG draws the same sequence as a placer
    that re-prices every net: the result does not depend on the skip.
    """
    rng = random.Random(seed)
    # One site enumeration serves both the initial placement and the
    # annealer's move generation.
    width, height = _die_dimensions(len(_placeable_cells(netlist)),
                                    width, height)
    all_sites = _site_list(width, height)
    placement = random_placement(netlist, width, height, seed,
                                 sites=all_sites)
    nets = nets_for_wirelength(netlist)
    cells = list(placement.positions)
    positions = placement.positions
    # Cells and sites are indices: cell k sits at (cell_x[k], cell_y[k]),
    # which is site x * height + y of all_sites; occupant[s] is the cell
    # at site s, or -1.
    index = {c: k for k, c in enumerate(cells)}
    cell_x = [x for x, _ in positions.values()]
    cell_y = [y for _, y in positions.values()]
    occupant = [-1] * len(all_sites)
    for k, (x, y) in enumerate(positions.values()):
        occupant[x * height + y] = k
    # Per-cell net membership for incremental evaluation, split into
    # two-pin nets (always re-priced) and the rest (box-tested).  A
    # cell that is a pin of one net twice (a gate reading a net twice)
    # lists that net twice, so a move to an empty site counts the net's
    # change twice and a swap counts it once, as the placer always has.
    pair_nets: List[List[int]] = [[] for _ in cells]
    multi_nets: List[List[int]] = [[] for _ in cells]
    gathers = []
    boxes = []
    for i, net in enumerate(nets):
        pins = [index[c] for c in net]
        get = itemgetter(*pins)
        gathers.append(get)
        xs, ys = get(cell_x), get(cell_y)
        boxes.append((min(xs), max(xs), min(ys), max(ys)))
        member = pair_nets if len(pins) == 2 else multi_nets
        for k in pins:
            member[k].append(i)
    net_costs = [(x1 - x0) + (y1 - y0) for x0, x1, y0, y1 in boxes]

    def stale(k: int, px: int, py: int, qx: int, qy: int) -> List[int]:
        """Nets of cell ``k`` whose box can change when it moves from
        ``(px, py)`` to ``(qx, qy)``."""
        out = list(pair_nets[k])
        for i in multi_nets[k]:
            x0, x1, y0, y1 = boxes[i]
            if not (x0 < px < x1 and y0 < py < y1
                    and x0 <= qx <= x1 and y0 <= qy <= y1):
                out.append(i)
        return out

    initial = sum(net_costs)
    temperature = initial_temperature
    cooling = 0.995 ** (20000 / max(1, iterations))
    accepted = 0
    # Draw indices from ranges as long as the cell and site lists, so
    # ``choice`` consumes exactly the draws it would on the lists.
    cell_ids = range(len(cells))
    site_ids = range(len(all_sites))
    for _ in range(iterations):
        k = rng.choice(cell_ids)
        target = rng.choice(site_ids)
        px, py = cell_x[k], cell_y[k]
        source = px * height + py
        if target == source:
            # No-op move: nothing to evaluate, just keep cooling.
            temperature *= cooling
            continue
        other = occupant[target]
        qx, qy = all_sites[target]
        cell_x[k], cell_y[k] = qx, qy
        if other < 0:
            affected = stale(k, px, py, qx, qy)
        else:
            cell_x[other], cell_y[other] = px, py
            affected = {*stale(k, px, py, qx, qy),
                        *stale(other, qx, qy, px, py)}
        delta = 0
        updates = []
        for i in affected:
            get = gathers[i]
            xs, ys = get(cell_x), get(cell_y)
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
            cost = (x1 - x0) + (y1 - y0)
            delta += cost - net_costs[i]
            updates.append((i, (x0, x1, y0, y1), cost))
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature,
                                                              1e-9)):
            accepted += 1
            for i, box, cost in updates:
                boxes[i] = box
                net_costs[i] = cost
            occupant[target] = k
            occupant[source] = other
        else:
            cell_x[k], cell_y[k] = px, py
            if other >= 0:
                cell_x[other], cell_y[other] = qx, qy
        temperature *= cooling
    for cell, x, y in zip(cells, cell_x, cell_y):
        positions[cell] = (x, y)
    final = hpwl(placement, nets)
    return PlacementResult(placement, initial, final, accepted)
