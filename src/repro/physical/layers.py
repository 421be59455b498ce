"""Metal-layer assignment for routed connections.

Split manufacturing (paper Sec. III-C) partitions the stack at a *split
layer*: everything below (FEOL + lower metals) goes to the untrusted
foundry, everything above (BEOL) to a trusted facility.  Which
connections survive in the untrusted view depends on each wire's layer,
assigned here by the standard length-based rule — short wires route low,
long wires high — plus an optional security-driven *lifting* override
([53]) that pushes chosen nets above the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..netlist import Netlist
from .placement import Placement
from .routing import RoutedLayout

#: Wire-length thresholds (in grid units) for metal layers M1..M6:
#: a wire longer than THRESHOLDS[i] is routed above layer i+1.
DEFAULT_THRESHOLDS = (2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class Wire:
    """One point-to-point connection (driver net -> consumer gate)."""

    driver: str
    sink: str
    length: float
    layer: int


def assign_layers(netlist: Netlist, placement: Placement,
                  lifted: Optional[Set[str]] = None,
                  routing: Optional[RoutedLayout] = None) -> List[Wire]:
    """Assign each driver->sink connection a metal layer
    (:data:`DEFAULT_THRESHOLDS`).

    ``lifted`` names driver nets whose wires are forced to the topmost
    layer regardless of length (the wire-lifting defense).

    Without ``routing`` the layer comes from the length-based
    heuristic.  With a :class:`~repro.physical.routing.RoutedLayout`,
    each wire reports its *actual* routed branch — lateral length in
    placement units and topmost layer touched — falling back to the
    heuristic for connections the router did not complete.
    """
    thresholds = list(DEFAULT_THRESHOLDS)
    top_layer = len(thresholds) + 1
    lifted = lifted or set()
    scale = max(1, routing.scale) if routing is not None else 1
    wires: List[Wire] = []
    fanout = netlist.fanout_map()
    for driver, consumers in fanout.items():
        for sink in consumers:
            if (driver not in placement.positions
                    or sink not in placement.positions):
                continue
            length = placement.distance(driver, sink)
            layer = 0
            if routing is not None:
                routed = routing.nets.get(driver)
                if routed is not None:
                    sx, sy = placement.positions[sink]
                    pin = (sx * scale, sy * scale)
                    if pin in routed.branches:
                        length = routed.branch_length(pin) / scale
                        layer = min(routed.branch_max_layer(pin),
                                    top_layer)
            if driver in lifted:
                layer = top_layer
            elif layer == 0:
                layer = top_layer
                for i, limit in enumerate(thresholds, start=1):
                    if length <= limit:
                        layer = i
                        break
            wires.append(Wire(driver, sink, length, layer))
    return wires


def layer_histogram(wires: Iterable[Wire]) -> Dict[int, int]:
    """Wire count per assigned metal layer."""
    hist: Dict[int, int] = {}
    for w in wires:
        hist[w.layer] = hist.get(w.layer, 0) + 1
    return hist


def split_wires(wires: Iterable[Wire], split_layer: int
                ) -> Tuple[List[Wire], List[Wire]]:
    """Partition wires into (FEOL-visible, BEOL-hidden) at ``split_layer``.

    A wire on a layer *strictly above* ``split_layer`` is manufactured
    by the trusted facility and invisible to the untrusted foundry.
    """
    visible: List[Wire] = []
    hidden: List[Wire] = []
    for w in wires:
        (hidden if w.layer > split_layer else visible).append(w)
    return visible, hidden
