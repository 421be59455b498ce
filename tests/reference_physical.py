"""Frozen reference copies of the physical layer's two hot kernels.

``annealing_placement`` re-priced every net of every moved cell, and
``_GridSearch.search`` flooded its whole window before failing toward a
sink pin it could not enter.  Both are kept here verbatim as they were
before the production kernels learnt to skip that work, as oracles:
``test_physical_reference`` checks that the production annealer gives
bit-identical placements and that routing and security closure give
identical layouts and traces with :func:`search` patched in for the
production search.  Do not "fix" or optimise this file -- its value is
that it shares with the code it checks only the helpers neither kernel
change touched (die size, site list, random start, HPWL).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.netlist import Netlist
from repro.physical.placement import (
    PlacementResult,
    Point,
    _die_dimensions,
    _placeable_cells,
    _site_list,
    hpwl,
    nets_for_wirelength,
    random_placement,
)
from repro.physical.routing import _FOREIGN_PENALTY, _H_WEIGHT, Node


def annealing_placement(netlist: Netlist,
                        iterations: int = 20_000,
                        seed: int = 0,
                        width: Optional[int] = None,
                        height: Optional[int] = None,
                        initial_temperature: float = 4.0,
                        ) -> PlacementResult:
    """Simulated-annealing placement minimizing HPWL.

    Moves are cell swaps / relocations to empty sites; temperature
    follows a geometric schedule.  Incremental cost evaluation keeps
    this fast enough for a few thousand cells.
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
    # Per-cell net membership for incremental evaluation.
    nets_of: Dict[str, List[int]] = {c: [] for c in cells}
    for idx, net in enumerate(nets):
        for c in net:
            if c in nets_of:
                nets_of[c].append(idx)

    def one_net_cost(i: int) -> float:
        xs = []
        ys = []
        for c in nets[i]:
            x, y = positions[c]
            xs.append(x)
            ys.append(y)
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    # Cached per-net HPWL: each move only re-evaluates the moved cells'
    # nets and reads everything else from the cache, instead of
    # recomputing the affected bounding boxes twice per move.
    net_costs = [one_net_cost(i) for i in range(len(nets))]
    occupied: Dict[Point, str] = {p: c for c, p in positions.items()}
    initial = sum(net_costs)
    temperature = initial_temperature
    cooling = 0.995 ** (20000 / max(1, iterations))
    accepted = 0
    for _ in range(iterations):
        cell = rng.choice(cells)
        target = rng.choice(all_sites)
        if target == positions[cell]:
            # No-op move: nothing to evaluate, just keep cooling.
            temperature *= cooling
            continue
        other = occupied.get(target)
        if other is None:
            affected = nets_of[cell]
        else:
            affected = set(nets_of[cell])
            affected.update(nets_of[other])
        old_pos = positions[cell]
        positions[cell] = target
        if other is not None:
            positions[other] = old_pos
        delta = 0.0
        updates = []
        for i in affected:
            cost = one_net_cost(i)
            delta += cost - net_costs[i]
            updates.append((i, cost))
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature,
                                                              1e-9)):
            accepted += 1
            for i, cost in updates:
                net_costs[i] = cost
            occupied[target] = cell
            if other is not None:
                occupied[old_pos] = other
            else:
                del occupied[old_pos]
        else:
            positions[cell] = old_pos
            if other is not None:
                positions[other] = target
        temperature *= cooling
    final = hpwl(placement, nets)
    return PlacementResult(placement, initial, final, accepted)


def search(self, net: str, sources: Set[Node], target: Node,
           limit: int, permissive: bool,
           penalty: int = _FOREIGN_PENALTY,
           window: Optional[Tuple[int, int, int, int]] = None
           ) -> Optional[List[Node]]:
    """A* from any node in ``sources`` to ``target``.

    Strict mode treats foreign-owned edges as walls; permissive
    mode crosses them at ``penalty`` each (the rip-up candidates —
    callers escalate the penalty on repeatedly ripped nets so
    rip-up wars converge to detours).  Shield nodes are always
    walls.  ``window`` restricts the search to an ``(x0, y0, x1,
    y1)`` region — the standard routing-window speedup; callers
    fall back to an unwindowed search when the windowed one fails.
    Returns the node path source -> target, or ``None``.

    The heuristic is inflated by ``_H_WEIGHT`` (weighted A*): the
    congestion-history costs make true distances exceed the
    Manhattan bound, which would otherwise degrade A* toward a
    full-window Dijkstra flood.  Paths may be a constant factor
    off shortest — irrelevant for a router, and still
    deterministic.
    """
    layout = self.layout
    tx, ty, _tl = target
    if window is None:
        x_lo, y_lo = 0, 0
        x_hi, y_hi = layout.width - 1, layout.height - 1
    else:
        x_lo, y_lo, x_hi, y_hi = window
    via_cost = self.via_cost
    weight = _H_WEIGHT
    owner_of = layout.edge_owner
    history = self.history
    shields = layout.shields

    best: Dict[Node, int] = {}
    came: Dict[Node, Node] = {}
    heap: List[Tuple[int, int, int, Node]] = []
    counter = self.counter
    heappush, heappop = heapq.heappush, heapq.heappop
    best_get, owner_get = best.get, owner_of.get
    history_get = history.get
    for s in sorted(sources):
        if x_lo <= s[0] <= x_hi and y_lo <= s[1] <= y_hi:
            best[s] = 0
            f = weight * (abs(s[0] - tx) + abs(s[1] - ty)
                          + via_cost * (s[2] - 1))
            heappush(heap, (f, next(counter), 0, s))
    while heap:
        _f, _tie, g, node = heappop(heap)
        if g > best_get(node, -1):
            continue
        if node == target:
            path = [node]
            while node in came:
                node = came[node]
                path.append(node)
            path.reverse()
            return path
        x, y, l = node
        neighbours = []
        if x < x_hi:
            neighbours.append((x + 1, y, l))
        if x > x_lo:
            neighbours.append((x - 1, y, l))
        if y < y_hi:
            neighbours.append((x, y + 1, l))
        if y > y_lo:
            neighbours.append((x, y - 1, l))
        if l < limit:
            neighbours.append((x, y, l + 1))
        if l > 1:
            neighbours.append((x, y, l - 1))
        for nxt in neighbours:
            if nxt in shields:
                continue
            e = (node, nxt) if node <= nxt else (nxt, node)
            owner = owner_get(e)
            nl = nxt[2]
            step = (via_cost if l != nl else 1) + history_get(e, 0)
            if owner is not None and owner != net:
                if not permissive:
                    continue
                step += penalty
            ng = g + step
            if ng < best_get(nxt, ng + 1):
                best[nxt] = ng
                came[nxt] = node
                f = ng + weight * (abs(nxt[0] - tx) + abs(nxt[1] - ty)
                                   + via_cost * (nl - 1))
                heappush(heap, (f, next(counter), ng, nxt))
    return None
