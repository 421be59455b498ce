"""Layout attack-surface metrics over routed geometry.

The paper's physical-design row of Table II names three layout-level
threats that cannot be judged from a netlist alone: front-side
**probing** of security-critical wires on the top metals, **fault
injection** (laser) onto critical wire segments, and **hardware
Trojan insertion** into free layout resources.  This module computes
one scalar exposure per threat from a :class:`~repro.physical.routing.
RoutedLayout`, in the style of the ISPD security-closure contest and
SALSy: each metric is an *attack-surface fraction* in ``[0, 1]``
where 0 is closed.

All three consume the same geometry primitives — per-layer occupancy
maps and critical-net node sets — so a closure loop can recompute
them cheaply after every ECO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

import numpy as np

from .routing import Node, Point, RoutedLayout

#: Number of top metal layers a front-side probe station can reach.
DEFAULT_PROBE_LAYERS = 2

#: Radius (Chebyshev, in routing tracks) of the modeled laser spot.
DEFAULT_SPOT_RADIUS = 2

#: Smallest contiguous free-site region a Trojan could occupy.
DEFAULT_MIN_TROJAN_SITES = 4

#: Fraction of free lateral routing capacity (layers 1-2 around the
#: region) a Trojan needs to wire itself up.
DEFAULT_MIN_FREE_CAPACITY = 0.2


def critical_nodes(layout: RoutedLayout,
                   critical_nets: Iterable[str]) -> Set[Node]:
    """All grid nodes carrying wires of the named nets."""
    nodes: Set[Node] = set()
    for name in critical_nets:
        routed = layout.nets.get(name)
        if routed is not None:
            nodes.update(routed.nodes())
    return nodes


def _cover_above(layout: RoutedLayout) -> np.ndarray:
    """``cover[l-1, x, y]`` — is there any geometry strictly above
    layer ``l`` at ``(x, y)``?  Shield cells count as cover; that is
    their entire purpose."""
    stack = layout.occupancy_stack()
    cover = np.zeros_like(stack)
    # cover[l] = any(stack[l+1:]) — scan top-down once.
    running = np.zeros(stack.shape[1:], dtype=bool)
    for l in range(layout.num_layers - 1, -1, -1):
        cover[l] = running
        running = running | stack[l]
    return cover


def uncovered_critical_nodes(layout: RoutedLayout,
                             critical_nets: Iterable[str],
                             ) -> List[Node]:
    """Critical-net nodes with no geometry above them (sorted)."""
    cover = _cover_above(layout)
    return sorted(n for n in critical_nodes(layout, critical_nets)
                  if not cover[n[2] - 1, n[0], n[1]])


@dataclass
class ProbingReport:
    """Front-side probing exposure of the critical nets.

    ``exposure`` is the fraction of critical-net nodes that sit on a
    probe-reachable top layer with nothing covering them — each such
    node is a milling target that reaches a secret wire without
    touching other metal first.
    """

    exposure: float
    exposed_nodes: List[Node]
    critical_node_count: int
    probe_layers: int

    def summary(self) -> str:
        """One-line human-readable report."""
        return (f"probing exposure {self.exposure:.3f} "
                f"({len(self.exposed_nodes)}/{self.critical_node_count} "
                f"critical nodes open on top {self.probe_layers} layers)")


def probing_exposure(layout: RoutedLayout,
                     critical_nets: Iterable[str],
                     probe_layers: int = DEFAULT_PROBE_LAYERS
                     ) -> ProbingReport:
    """Exposed critical-net area on the probe-reachable top metals."""
    crit = critical_nodes(layout, critical_nets)
    floor = layout.num_layers - probe_layers + 1
    cover = _cover_above(layout)
    exposed = sorted(n for n in crit
                     if n[2] >= floor
                     and not cover[n[2] - 1, n[0], n[1]])
    total = len(crit)
    return ProbingReport(
        exposure=(len(exposed) / total) if total else 0.0,
        exposed_nodes=exposed,
        critical_node_count=total,
        probe_layers=probe_layers)


@dataclass
class FiaReport:
    """Fault-injection (laser) exposure of the critical nets.

    ``exposure`` is the fraction of die positions from which a laser
    spot of the given radius reaches at least one *uncovered*
    critical-net node — covered segments are assumed shadowed by the
    metal above them (the standard front-side model).
    """

    exposure: float
    vulnerable_sites: int
    total_sites: int
    spot_radius: int
    target_nodes: List[Node] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (f"FIA exposure {self.exposure:.3f} "
                f"({self.vulnerable_sites}/{self.total_sites} aim points "
                f"hit a critical wire, spot radius {self.spot_radius})")


def fia_exposure(layout: RoutedLayout, critical_nets: Iterable[str],
                 spot_radius: int = DEFAULT_SPOT_RADIUS) -> FiaReport:
    """Die-area fraction from which a laser spot reaches critical wire."""
    targets = uncovered_critical_nodes(layout, critical_nets)
    hit = np.zeros((layout.width, layout.height), dtype=bool)
    for x, y, _l in targets:
        x0 = max(0, x - spot_radius)
        x1 = min(layout.width, x + spot_radius + 1)
        y0 = max(0, y - spot_radius)
        y1 = min(layout.height, y + spot_radius + 1)
        hit[x0:x1, y0:y1] = True
    total = layout.width * layout.height
    return FiaReport(
        exposure=(float(hit.sum()) / total) if total else 0.0,
        vulnerable_sites=int(hit.sum()),
        total_sites=total,
        spot_radius=spot_radius,
        target_nodes=targets)


@dataclass
class TrojanRegion:
    """One contiguous free-site region and its routability."""

    sites: List[Point]
    free_capacity: float          # free lateral-edge fraction nearby

    @property
    def size(self) -> int:
        return len(self.sites)


@dataclass
class TrojanReport:
    """Trojan-insertion exploitability of the free layout resources.

    A free-site region is *exploitable* when it is large enough to
    host Trojan logic **and** the lower routing layers around it have
    enough free capacity to wire that logic up (ISPD-contest style).
    ``exposure`` is exploitable-site area over total die area.
    """

    exposure: float
    regions: List[TrojanRegion]
    exploitable_sites: int
    total_sites: int

    def summary(self) -> str:
        """One-line human-readable report."""
        exploitable = sum(1 for r in self.regions
                          if r.free_capacity >= 0)  # all kept regions
        return (f"Trojan insertability {self.exposure:.3f} "
                f"({self.exploitable_sites}/{self.total_sites} sites in "
                f"{exploitable} exploitable free regions)")


def free_site_map(layout: RoutedLayout,
                  occupied_sites: Iterable[Point]) -> np.ndarray:
    """Boolean map of placement sites free for extra cells.

    Placement-site coordinates (``site_width`` x ``site_height``), not
    routing tracks.  A site is free when no standard cell, ECO filler,
    or layer-1 shield geometry occupies it.
    """
    w, h = layout.site_width, layout.site_height
    scale = max(1, layout.scale)
    free = np.ones((w, h), dtype=bool)
    for x, y in occupied_sites:
        if 0 <= x < w and 0 <= y < h:
            free[x, y] = False
    for x, y in layout.fillers:
        if 0 <= x < w and 0 <= y < h:
            free[x, y] = False
    for x, y, l in layout.shields:
        if l == 1 and 0 <= x // scale < w and 0 <= y // scale < h:
            free[x // scale, y // scale] = False
    return free


def _components(free: np.ndarray) -> List[List[Point]]:
    """4-connected components of the free-site map (deterministic)."""
    width, height = free.shape
    seen = np.zeros_like(free)
    components: List[List[Point]] = []
    for x in range(width):
        for y in range(height):
            if not free[x, y] or seen[x, y]:
                continue
            stack = [(x, y)]
            seen[x, y] = True
            sites: List[Point] = []
            while stack:
                cx, cy = stack.pop()
                sites.append((cx, cy))
                for nx, ny in ((cx + 1, cy), (cx - 1, cy),
                               (cx, cy + 1), (cx, cy - 1)):
                    if (0 <= nx < width and 0 <= ny < height
                            and free[nx, ny] and not seen[nx, ny]):
                        seen[nx, ny] = True
                        stack.append((nx, ny))
            components.append(sorted(sites))
    return components


def trojan_insertability(layout: RoutedLayout,
                         occupied_sites: Iterable[Point],
                         min_sites: int = DEFAULT_MIN_TROJAN_SITES,
                         min_free_capacity: float = DEFAULT_MIN_FREE_CAPACITY
                         ) -> TrojanReport:
    """Exploitable free placement area, ISPD-contest style.

    ``occupied_sites`` are the placed standard-cell sites.  Each free
    4-connected region of at least ``min_sites`` sites is checked for
    free lateral routing capacity on layers 1 and 2 inside its
    bounding box (grown by one site, converted to routing tracks);
    regions with at least ``min_free_capacity`` free capacity are
    exploitable.
    """
    wiring_layers = (1, 2)
    free = free_site_map(layout, occupied_sites)
    scale = max(1, layout.scale)
    total = layout.site_width * layout.site_height
    regions: List[TrojanRegion] = []
    exploitable_sites = 0
    for sites in _components(free):
        if len(sites) < min_sites:
            continue
        xs = [p[0] for p in sites]
        ys = [p[1] for p in sites]
        x0 = max(0, (min(xs) - 1) * scale)
        x1 = min(layout.width - 1, (max(xs) + 1) * scale)
        y0 = max(0, (min(ys) - 1) * scale)
        y1 = min(layout.height - 1, (max(ys) + 1) * scale)
        capacity = layout.lateral_edge_total(wiring_layers, x0, y0, x1, y1)
        used = layout.lateral_edges_used(wiring_layers, x0, y0, x1, y1)
        free_capacity = ((capacity - used) / capacity) if capacity else 0.0
        if free_capacity >= min_free_capacity:
            regions.append(TrojanRegion(sites, free_capacity))
            exploitable_sites += len(sites)
    return TrojanReport(
        exposure=(exploitable_sites / total) if total else 0.0,
        regions=regions,
        exploitable_sites=exploitable_sites,
        total_sites=total)
