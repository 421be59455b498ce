"""Multi-layer grid maze routing.

The placement stage (:mod:`repro.physical.placement`) ends with cell
coordinates; every physical-design security scheme in the paper's
Table II — anti-probing shields, Trojan-prevention fill, split
manufacturing — is defined on *routed geometry*, not on placements.
This module supplies that geometry: an A* maze router over a
multi-layer routing grid with unit edge capacity, deterministic net
ordering, and rip-up-and-reroute for congested nets.

Model
-----

The die is a ``width x height`` grid of sites with ``num_layers``
metal layers above it.  Routing nodes are ``(x, y, layer)`` triples
(``layer`` is 1-based; cell pins sit on layer 1).  Lateral edges join
4-neighbours on the same layer; via edges join the same ``(x, y)`` on
*adjacent* layers.  Every edge carries at most one net — exclusivity
is the invariant the attack-surface analyses and the hypothesis tests
rely on.  Shield cells (:mod:`repro.physical.closure`) occupy whole
nodes and block routing through them.

Each multi-pin net is routed as a tree: the driver pin seeds the tree
and every sink is attached by an A* search from the current tree
(cost 0 on its own wires) to the sink pin.  Nets are processed in a
deterministic order (bounding-box size, then name); a net that cannot
be routed around existing wires runs a second, permissive search that
may cross foreign edges at a penalty, and the owners of the crossed
edges are ripped up and re-queued.  Routing is therefore a pure
function of ``(netlist order, placement, parameters)``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..netlist import GateType, Netlist
from .placement import Placement

Point = Tuple[int, int]
Node = Tuple[int, int, int]          # (x, y, layer); layer is 1-based
Edge = Tuple[Node, Node]             # canonically ordered: edge[0] < edge[1]

#: Default number of metal layers (matches the M1..M6 stack implied by
#: :data:`repro.physical.layers.DEFAULT_THRESHOLDS`).
DEFAULT_NUM_LAYERS = 6

#: Cost of one via hop relative to one lateral grid step.
DEFAULT_VIA_COST = 2

#: Cost added per foreign edge in the permissive (rip-up) search.
_FOREIGN_PENALTY = 64

#: Weighted-A* heuristic inflation (see ``_GridSearch.search``).
_H_WEIGHT = 2

#: Routing-grid refinement: routing tracks per placement site per axis.
#: Pins sit at ``(x * scale, y * scale)``; the intermediate nodes are
#: the extra tracks that make neighbouring pins routable without
#: fighting over the same grid edges.
DEFAULT_GRID_SCALE = 2


def _edge(a: Node, b: Node) -> Edge:
    """Canonical (sorted) form of the edge between two adjacent nodes."""
    return (a, b) if a <= b else (b, a)


def is_via_edge(edge: Edge) -> bool:
    """True if ``edge`` joins two layers (same ``(x, y)``, adjacent)."""
    return edge[0][2] != edge[1][2]


@dataclass
class RoutedNet:
    """One routed multi-pin net: a wire tree from driver to sinks.

    ``branches`` maps each sink site to the node path that attached it
    to the tree (from the attachment node to the sink pin, inclusive);
    the union of branch edges is the net's wire tree.
    """

    net: str
    driver_pin: Point
    sink_pins: List[Point]
    branches: Dict[Point, List[Node]] = field(default_factory=dict)

    def edges(self) -> List[Edge]:
        """All unit edges of the wire tree (deduplicated, stable order)."""
        seen: Set[Edge] = set()
        out: List[Edge] = []
        for sink in self.sink_pins:
            path = self.branches.get(sink, [])
            for a, b in zip(path, path[1:]):
                e = _edge(a, b)
                if e not in seen:
                    seen.add(e)
                    out.append(e)
        return out

    def nodes(self) -> Set[Node]:
        """All grid nodes touched by the wire tree (pins included)."""
        out: Set[Node] = {(self.driver_pin[0], self.driver_pin[1], 1)}
        for path in self.branches.values():
            out.update(path)
        return out

    @property
    def wirelength(self) -> int:
        """Number of lateral unit edges in the tree."""
        return sum(1 for e in self.edges() if not is_via_edge(e))

    @property
    def via_count(self) -> int:
        """Number of via edges in the tree."""
        return sum(1 for e in self.edges() if is_via_edge(e))

    def vias(self) -> List[Tuple[int, int, int]]:
        """Via positions as ``(x, y, lower_layer)`` triples."""
        return [(e[0][0], e[0][1], min(e[0][2], e[1][2]))
                for e in self.edges() if is_via_edge(e)]

    @property
    def max_layer(self) -> int:
        """Topmost metal layer the tree touches."""
        return max((n[2] for n in self.nodes()), default=1)

    def branch_length(self, sink: Point) -> int:
        """Lateral steps on the branch that attaches ``sink``."""
        path = self.branches.get(sink, [])
        return sum(1 for a, b in zip(path, path[1:]) if a[2] == b[2])

    def branch_max_layer(self, sink: Point) -> int:
        """Topmost layer on the branch that attaches ``sink``."""
        path = self.branches.get(sink, [])
        return max((n[2] for n in path), default=1)

    def branch_split_vias(self, sink: Point, split_layer: int
                          ) -> Optional[Tuple[Point, Point]]:
        """Where the branch to ``sink`` crosses ``split_layer``.

        Returns ``(driver_side, sink_side)`` — the ``(x, y)`` of the
        last below-split node before the branch first rises above the
        split, and before it last returns below — or ``None`` if the
        branch never rises above the split (fully FEOL-visible).
        These are the dangling-via positions the untrusted foundry
        observes under split manufacturing.
        """
        path = self.branches.get(sink)
        if not path or max(n[2] for n in path) <= split_layer:
            return None
        first = next(i for i, n in enumerate(path)
                     if n[2] > split_layer)
        last = max(i for i, n in enumerate(path) if n[2] > split_layer)
        driver_side = path[max(0, first - 1)]
        sink_side = path[min(len(path) - 1, last + 1)]
        return ((driver_side[0], driver_side[1]),
                (sink_side[0], sink_side[1]))

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (lists for tuples; inverse of
        :meth:`from_dict`)."""
        return {
            "net": self.net,
            "driver_pin": list(self.driver_pin),
            "sink_pins": [list(p) for p in self.sink_pins],
            "branches": [[list(sink), [list(n) for n in path]]
                         for sink, path in self.branches.items()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoutedNet":
        """Rebuild from :meth:`as_dict` output."""
        return cls(
            net=str(data["net"]),
            driver_pin=tuple(data["driver_pin"]),
            sink_pins=[tuple(p) for p in data["sink_pins"]],
            branches={tuple(sink): [tuple(n) for n in path]
                      for sink, path in data["branches"]},
        )


@dataclass
class RoutedLayout:
    """Concrete per-net wire geometry over a multi-layer grid.

    ``edge_owner`` is the exclusivity ledger (one net per edge);
    ``shields`` are geometry-only anti-probing cells occupying whole
    nodes; ``fillers`` are ECO filler sites on the placement grid;
    ``failed`` lists nets the router gave up on (pathological pin
    congestion — empty for every benchmark design in the repo).
    """

    width: int
    height: int
    num_layers: int
    #: Placement-grid dimensions and the routing-tracks-per-site
    #: factor: ``width == (site_width - 1) * scale + 1`` (pins at
    #: ``site * scale``).  ``fillers`` are in placement-site units;
    #: everything else lives on the routing grid.
    site_width: int = 0
    site_height: int = 0
    scale: int = 1
    nets: Dict[str, RoutedNet] = field(default_factory=dict)
    edge_owner: Dict[Edge, str] = field(default_factory=dict)
    shields: Set[Node] = field(default_factory=set)
    fillers: Set[Point] = field(default_factory=set)
    failed: List[str] = field(default_factory=list)
    layer_limits: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.site_width:
            self.site_width = self.width
        if not self.site_height:
            self.site_height = self.height

    # -- geometry queries ---------------------------------------------

    def occupancy_stack(self) -> np.ndarray:
        """Boolean ``(num_layers, width, height)`` geometry tensor
        (layer axis is 0-based: index ``l - 1`` holds layer ``l``)."""
        stack = np.zeros((self.num_layers, self.width, self.height),
                         dtype=bool)
        for routed in self.nets.values():
            for x, y, l in routed.nodes():
                stack[l - 1, x, y] = True
        for x, y, l in self.shields:
            stack[l - 1, x, y] = True
        return stack

    @property
    def total_wirelength(self) -> int:
        """Lateral unit-edge count over all routed nets."""
        return sum(n.wirelength for n in self.nets.values())

    @property
    def total_vias(self) -> int:
        """Via count over all routed nets."""
        return sum(n.via_count for n in self.nets.values())

    def layer_histogram(self) -> Dict[int, int]:
        """Lateral edge count per layer."""
        hist: Dict[int, int] = {}
        for e in self.edge_owner:
            if not is_via_edge(e):
                hist[e[0][2]] = hist.get(e[0][2], 0) + 1
        return hist

    def lateral_edge_total(self, layers: Iterable[int],
                           x0: int = 0, y0: int = 0,
                           x1: Optional[int] = None,
                           y1: Optional[int] = None) -> int:
        """Lateral edge capacity of a region over the given layers."""
        x1 = self.width - 1 if x1 is None else x1
        y1 = self.height - 1 if y1 is None else y1
        w = max(0, x1 - x0 + 1)
        h = max(0, y1 - y0 + 1)
        per_layer = max(0, (w - 1)) * h + w * max(0, (h - 1))
        return per_layer * len(list(layers))

    def lateral_edges_used(self, layers: Iterable[int],
                           x0: int = 0, y0: int = 0,
                           x1: Optional[int] = None,
                           y1: Optional[int] = None) -> int:
        """Owned lateral edges inside a region over the given layers."""
        x1 = self.width - 1 if x1 is None else x1
        y1 = self.height - 1 if y1 is None else y1
        layer_set = set(layers)
        used = 0
        for (a, b) in self.edge_owner:
            if a[2] != b[2] or a[2] not in layer_set:
                continue
            if (x0 <= a[0] <= x1 and y0 <= a[1] <= y1
                    and x0 <= b[0] <= x1 and y0 <= b[1] <= y1):
                used += 1
        return used

    # -- mutation (rip-up, ECO hooks) ---------------------------------

    def claim(self, net: str, routed: RoutedNet) -> None:
        """Install ``routed`` and register its edges as owned."""
        self.nets[net] = routed
        for e in routed.edges():
            self.edge_owner[e] = net

    def remove_net(self, net: str) -> None:
        """Rip a net out of the layout, releasing its edges."""
        routed = self.nets.pop(net, None)
        if routed is None:
            return
        for e in routed.edges():
            if self.edge_owner.get(e) == net:
                del self.edge_owner[e]

    def rip_edges(self, net: str, stolen: Set[Edge]) -> List[Point]:
        """Partially rip ``net``: drop only the branches that use a
        ``stolen`` edge (plus branches thereby disconnected from the
        driver) and return the sink pins that lost their connection.

        Surviving branches stay claimed; a net that loses every branch
        is removed outright.  This is what keeps rip-up-and-reroute
        from cascading — stealing one edge from a high-fanout net
        re-routes one branch, not the whole tree.
        """
        routed = self.nets.get(net)
        if routed is None:
            return []
        connected: Set[Node] = {(routed.driver_pin[0],
                                 routed.driver_pin[1], 1)}
        keep: Dict[Point, List[Node]] = {}
        lost: List[Point] = []
        for sink in routed.sink_pins:
            path = routed.branches.get(sink, [])
            ok = (bool(path) and path[0] in connected
                  and not any(_edge(a, b) in stolen
                              for a, b in zip(path, path[1:])))
            if ok:
                keep[sink] = path
                connected.update(path)
            else:
                lost.append(sink)
        for e in routed.edges():
            if self.edge_owner.get(e) == net:
                del self.edge_owner[e]
        if not keep:
            del self.nets[net]
            return lost
        routed.sink_pins = [s for s in routed.sink_pins if s in keep]
        routed.branches = keep
        for e in routed.edges():
            self.edge_owner[e] = net
        return lost

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form; inverse of :meth:`from_dict`."""
        return {
            "width": self.width,
            "height": self.height,
            "num_layers": self.num_layers,
            "site_width": self.site_width,
            "site_height": self.site_height,
            "scale": self.scale,
            "nets": [self.nets[name].as_dict()
                     for name in sorted(self.nets)],
            "shields": [list(n) for n in sorted(self.shields)],
            "fillers": [list(p) for p in sorted(self.fillers)],
            "failed": list(self.failed),
            "layer_limits": [[name, self.layer_limits[name]]
                             for name in sorted(self.layer_limits)],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoutedLayout":
        """Rebuild a layout (edge ownership re-derived) from
        :meth:`to_dict` output."""
        layout = cls(width=int(data["width"]), height=int(data["height"]),
                     num_layers=int(data["num_layers"]),
                     site_width=int(data.get("site_width", 0)),
                     site_height=int(data.get("site_height", 0)),
                     scale=int(data.get("scale", 1)),
                     shields={tuple(n) for n in data.get("shields", [])},
                     fillers={tuple(p) for p in data.get("fillers", [])},
                     failed=list(data.get("failed", [])),
                     layer_limits={name: int(limit) for name, limit
                                   in data.get("layer_limits", [])})
        for net_data in data.get("nets", []):
            routed = RoutedNet.from_dict(net_data)
            layout.claim(routed.net, routed)
        return layout


def routing_nets(netlist: Netlist, placement: Placement
                 ) -> List[Tuple[str, Point, List[Point]]]:
    """Routable nets as ``(driver, driver_site, sink_sites)``.

    Constants are not placed and need no wires; sinks are deduplicated
    per site (a gate consuming the same net twice is one pin).
    """
    out = []
    for driver, consumers in netlist.fanout_map().items():
        if not consumers:
            continue
        if netlist.gates[driver].gate_type in (GateType.CONST0,
                                               GateType.CONST1):
            continue
        if driver not in placement.positions:
            continue
        sinks: List[Point] = []
        seen: Set[Point] = set()
        for sink in consumers:
            if sink not in placement.positions:
                continue
            site = placement.positions[sink]
            if site not in seen:
                seen.add(site)
                sinks.append(site)
        if sinks:
            out.append((driver, placement.positions[driver], sinks))
    return out


def _net_order(nets: Sequence[Tuple[str, Point, List[Point]]]
               ) -> List[Tuple[str, Point, List[Point]]]:
    """Deterministic routing order: small bounding boxes first (short
    nets are hard to detour, so they claim their edges early), name as
    the tie-break."""
    def bbox(entry) -> int:
        _name, driver, sinks = entry
        xs = [driver[0]] + [s[0] for s in sinks]
        ys = [driver[1]] + [s[1] for s in sinks]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))
    return sorted(nets, key=lambda e: (bbox(e), e[0]))


class _GridSearch:
    """Shared A* machinery bound to one layout under construction."""

    def __init__(self, layout: RoutedLayout, via_cost: int) -> None:
        self.layout = layout
        self.via_cost = via_cost
        self.counter = itertools.count()  # deterministic heap tie-break
        #: Negotiated-congestion history (PathFinder-style): edges that
        #: keep getting fought over accrue cost for *every* net, so the
        #: loser of a rip-up war eventually detours instead of ripping
        #: the same edge back.
        self.history: Dict[Edge, int] = {}

    def add_history(self, edge: Edge, amount: int = 2) -> None:
        self.history[edge] = self.history.get(edge, 0) + amount

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

        A strict search whose target no strict step can enter
        (:meth:`_enterable`) returns ``None`` before it pushes a
        node: the flood would drain the whole window and fail.  It
        draws no tie-break values either, which shifts every later
        search's ties by a constant and so leaves every heap order,
        and every path, as it was.
        """
        layout = self.layout
        tx, ty, _tl = target
        if window is None:
            x_lo, y_lo = 0, 0
            x_hi, y_hi = layout.width - 1, layout.height - 1
        else:
            x_lo, y_lo, x_hi, y_hi = window
        if not (permissive or target in sources
                or self._enterable(net, sources, target, limit,
                                   (x_lo, y_lo, x_hi, y_hi))):
            return None
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

    def _enterable(self, net: str, sources: Set[Node], target: Node,
                   limit: int, window: Tuple[int, int, int, int]) -> bool:
        """False when no strict flood from ``sources`` can reach
        ``target`` (a target not among the sources).

        The flood enters the target only by one step from a node it
        popped.  Such a node lies in the window and is a source or a
        node it pushed, and it never pushes a shield; the step obeys
        the flood's neighbour rules and crosses no foreign-owned edge.
        So the target is out of reach when it is a shield, or when
        every neighbour those rules allow is a shield that is not a
        source or sits behind an edge another net owns.  The flood
        climbs no higher than ``limit``, so the node above the target
        can pop only if its layer is within ``limit`` or some source
        lies at or above that layer.
        """
        layout = self.layout
        shields = layout.shields
        if target in shields:
            return False
        x_lo, y_lo, x_hi, y_hi = window
        x, y, l = target
        neighbours = []
        if x < x_hi:
            neighbours.append((x + 1, y, l))
        if x > x_lo:
            neighbours.append((x - 1, y, l))
        if y < y_hi:
            neighbours.append((x, y + 1, l))
        if y > y_lo:
            neighbours.append((x, y - 1, l))
        if l < limit or any(s[2] > l for s in sources):
            neighbours.append((x, y, l + 1))
        if l > 1:
            neighbours.append((x, y, l - 1))
        owner_get = layout.edge_owner.get
        for nxt in neighbours:
            if nxt in shields and nxt not in sources:
                continue
            if owner_get(_edge(target, nxt)) in (None, net):
                return True
        return False


_WINDOW_MARGIN = 8


def _net_window(layout: RoutedLayout, driver: Point, sinks: List[Point],
                margin: int = _WINDOW_MARGIN) -> Tuple[int, int, int, int]:
    """The net's pin bounding box grown by ``margin``, clamped to grid."""
    xs = [driver[0]] + [s[0] for s in sinks]
    ys = [driver[1]] + [s[1] for s in sinks]
    return (max(0, min(xs) - margin), max(0, min(ys) - margin),
            min(layout.width - 1, max(xs) + margin),
            min(layout.height - 1, max(ys) + margin))


def _route_one(search: _GridSearch, layout: RoutedLayout, name: str,
               driver: Point, sinks: List[Point], limit: int,
               penalty: int = _FOREIGN_PENALTY,
               base: Optional[RoutedNet] = None
               ) -> Tuple[Optional[RoutedNet], Dict[str, List[Point]]]:
    """Route ``sinks`` into one net tree; returns ``(routed, ripped)``
    where ``ripped`` maps each partially ripped-up victim net to the
    sink pins it lost.

    ``base`` is the net's surviving tree from an earlier partial
    rip-up — new branches extend it.  Sinks are attached
    nearest-first.  Each branch tries the strict search inside the
    net's pin window (the usual global-router speedup), then the
    permissive full-grid search, whose escalating foreign-edge
    penalty still prefers any conflict-free detour over a rip-up.
    Victims lose only the branches the stolen edges carried
    (:meth:`RoutedLayout.rip_edges`), never their whole tree — which
    is what keeps the negotiation from cascading.

    On failure the branches attached by *this call* are rolled back
    (``base`` is left claimed untouched); rip-ups already performed
    are not undone — the caller re-queues the victims regardless.
    """
    if base is not None:
        routed = RoutedNet(name, driver, list(base.sink_pins),
                           dict(base.branches))
    else:
        routed = RoutedNet(name, driver, [])
    tree: Set[Node] = routed.nodes()
    ripped: Dict[str, List[Point]] = {}
    new_edges: List[Edge] = []
    window = _net_window(layout, driver, sinks)
    order = sorted(sinks, key=lambda s: (abs(s[0] - driver[0])
                                         + abs(s[1] - driver[1]), s))
    for sink in order:
        target = (sink[0], sink[1], 1)
        if target in tree:
            if sink not in routed.branches:
                routed.sink_pins.append(sink)
                routed.branches[sink] = [target]
            continue
        path = search.search(name, tree, target, limit,
                             permissive=False, window=window)
        if path is None:
            path = search.search(name, tree, target, limit,
                                 permissive=True, penalty=penalty)
            if path is None:
                for e in new_edges:
                    if layout.edge_owner.get(e) == name:
                        del layout.edge_owner[e]
                return None, ripped
        stolen: Dict[str, Set[Edge]] = {}
        for a, b in zip(path, path[1:]):
            e = _edge(a, b)
            owner = layout.edge_owner.get(e)
            if owner is not None and owner != name:
                stolen.setdefault(owner, set()).add(e)
                search.add_history(e)
        for owner, edges in stolen.items():
            lost = layout.rip_edges(owner, edges)
            ripped.setdefault(owner, []).extend(lost)
        routed.sink_pins.append(sink)
        routed.branches[sink] = path
        tree.update(path)
        # Claim eagerly so this net's later branches and the permissive
        # search see its own wires as free.
        for a, b in zip(path, path[1:]):
            e = _edge(a, b)
            if layout.edge_owner.get(e) != name:
                new_edges.append(e)
                layout.edge_owner[e] = name
    return routed, ripped


def maze_route(netlist: Netlist, placement: Placement,
               num_layers: int = DEFAULT_NUM_LAYERS,
               via_cost: int = DEFAULT_VIA_COST,
               grid_scale: int = DEFAULT_GRID_SCALE,
               layer_limits: Optional[Mapping[str, int]] = None,
               max_rip_ups: Optional[int] = None) -> RoutedLayout:
    """Route every net of a placed netlist; returns a
    :class:`RoutedLayout`.

    The routing grid is ``grid_scale`` tracks per placement site per
    axis; ``layer_limits`` caps the topmost layer per net name (the
    burying/reroute defense uses it); ``max_rip_ups`` bounds the total
    rip-up-and-reroute work.  The result is deterministic for a fixed
    netlist order and placement.
    """
    layout = RoutedLayout(
        width=(placement.width - 1) * grid_scale + 1,
        height=(placement.height - 1) * grid_scale + 1,
        num_layers=num_layers,
        site_width=placement.width, site_height=placement.height,
        scale=grid_scale,
        layer_limits=dict(layer_limits or {}))
    nets = _net_order(_scaled(routing_nets(netlist, placement),
                              grid_scale))
    route_all(layout, nets, via_cost=via_cost, max_rip_ups=max_rip_ups)
    return layout


def _scaled(nets: List[Tuple[str, Point, List[Point]]], scale: int
            ) -> List[Tuple[str, Point, List[Point]]]:
    """Placement-site pins mapped onto the routing grid."""
    return [(name, (driver[0] * scale, driver[1] * scale),
             [(s[0] * scale, s[1] * scale) for s in sinks])
            for name, driver, sinks in nets]


def route_all(layout: RoutedLayout,
              nets: Sequence[Tuple[str, Point, List[Point]]],
              via_cost: int = DEFAULT_VIA_COST,
              max_rip_ups: Optional[int] = None,
              net_index: Optional[Mapping[str, Tuple[Point, List[Point]]]]
              = None) -> None:
    """Drain a routing queue into ``layout`` (rip-up aware, in place).

    ``net_index`` maps net names outside ``nets`` to their ``(driver,
    sinks)`` pins, so rip-up victims of a partial re-route can be
    re-queued (:func:`reroute_nets` passes the full design).
    """
    search = _GridSearch(layout, via_cost)
    drivers: Dict[str, Point] = {name: driver
                                 for name, (driver, _s)
                                 in (net_index or {}).items()}
    drivers.update({name: driver for name, driver, _s in nets})
    #: sinks still needing a branch, per net; drained queue-style.
    pending: Dict[str, List[Point]] = {}
    queue: List[str] = []
    for name, _driver, sinks in nets:
        pending.setdefault(name, []).extend(sinks)
        queue.append(name)
    budget = (16 * max(1, len(nets)) if max_rip_ups is None
              else max_rip_ups)
    attempts: Dict[str, int] = {}
    rip_ups = 0
    index = 0
    while index < len(queue):
        name = queue[index]
        index += 1
        todo = sorted(set(pending.get(name, ())))
        if not todo or name in layout.failed:
            continue
        pending[name] = []
        limit = layout.layer_limits.get(name, layout.num_layers)
        # Escalate the foreign-edge penalty per attempt: a net that
        # keeps getting ripped grows ever more reluctant to rip back,
        # so rip-up wars settle into detours instead of cycling.
        attempts[name] = attempts.get(name, 0) + 1
        routed, ripped = _route_one(search, layout, name, drivers[name],
                                    todo, limit,
                                    penalty=_FOREIGN_PENALTY
                                    * attempts[name],
                                    base=layout.nets.get(name))
        if routed is None:
            layout.remove_net(name)
            if name not in layout.failed:
                layout.failed.append(name)
        else:
            layout.claim(name, routed)
        for victim, lost in ripped.items():
            rip_ups += 1
            if rip_ups > budget or victim not in drivers:
                layout.remove_net(victim)
                if victim not in layout.failed:
                    layout.failed.append(victim)
                continue
            pending.setdefault(victim, []).extend(lost)
            queue.append(victim)


def reroute_nets(layout: RoutedLayout, netlist: Netlist,
                 placement: Placement, nets: Iterable[str],
                 max_layer: Optional[int] = None) -> List[str]:
    """Rip up the named nets and re-route them (optionally capped at
    ``max_layer`` — the burying defense).  Returns the re-routed net
    names; invariants (edge exclusivity, connectivity) hold on return.
    """
    targets = [n for n in nets if n in layout.nets or n in layout.failed]
    for name in targets:
        layout.remove_net(name)
        if name in layout.failed:
            layout.failed.remove(name)
        if max_layer is not None:
            layout.layer_limits[name] = max_layer
    all_nets = {name: (name, driver, sinks)
                for name, driver, sinks in _scaled(
                    routing_nets(netlist, placement), layout.scale)}
    queue = [all_nets[name] for name in targets if name in all_nets]
    route_all(layout, queue,
              net_index={name: (driver, sinks)
                         for name, driver, sinks in all_nets.values()})
    return targets
