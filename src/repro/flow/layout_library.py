"""Registered routing and security-closure ECO passes.

The physical-design row of Table II, as passes: ``route`` turns the
current placement into routed geometry (``ctx.routing``), and three
closure ECOs — ``bury-critical-nets``, ``shield-insertion``,
``eco-filler`` — edit that geometry to close the layout attack-surface
metrics measured by :mod:`repro.physical.attack_surface`.

The ECOs carry ``is_closure_eco = True`` and a contract the static
audit (``scripts/check_passes.py``) enforces: they never touch the
netlist (functional equivalence *preserved*, not merely re-checked),
they establish at least one layout property, and they belong to the
physical-synthesis stage.  :func:`repro.physical.closure.
security_closure` drives them iteratively; they are equally usable as
ordinary pipeline passes after ``placement`` + ``route``.
"""

from __future__ import annotations

from typing import Optional

from ..core.stages import DesignStage
from ..physical.attack_surface import (
    DEFAULT_MIN_FREE_CAPACITY,
    DEFAULT_MIN_TROJAN_SITES,
    DEFAULT_PROBE_LAYERS,
)
from ..physical.closure import (
    bury_critical_nets,
    insert_fillers,
    insert_shields,
)
from ..physical.routing import DEFAULT_NUM_LAYERS, DEFAULT_VIA_COST, maze_route
from .passes import Pass, PassResult, preserves_all, register_pass
from .properties import SecurityProperty as P

_LAYOUT = (P.PROBING_EXPOSURE, P.FIA_EXPOSURE, P.TROJAN_INSERTABILITY)


def _require_routing(ctx, name: str):
    if getattr(ctx, "routing", None) is None:
        raise ValueError(f"{name} requires a prior 'route' pass")
    return ctx.routing


@register_pass
class RoutingPass(Pass):
    """Maze-route the placed netlist; publishes ``ctx.routing``.

    Replaces any previous routed geometry wholesale, so the layout
    properties are invalidated (fresh geometry, unmeasured); the
    netlist itself is untouched.
    """

    name = "route"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    effects = preserves_all(invalidates=_LAYOUT)

    def __init__(self, num_layers: Optional[int] = None,
                 via_cost: int = DEFAULT_VIA_COST) -> None:
        self.num_layers = num_layers or DEFAULT_NUM_LAYERS
        self.via_cost = via_cost

    def apply(self, netlist, ctx) -> PassResult:
        if ctx.placement is None:
            raise ValueError("route requires a prior placement pass")
        layout = maze_route(netlist, ctx.placement,
                            num_layers=self.num_layers,
                            via_cost=self.via_cost)
        ctx.routing = layout
        return PassResult(
            self.name, rewrites=len(layout.nets),
            summary=f"routed {len(layout.nets)} nets: "
                    f"{layout.total_wirelength} wire units, "
                    f"{layout.total_vias} vias, "
                    f"{len(layout.failed)} failed",
            details={"nets": len(layout.nets),
                     "wirelength": layout.total_wirelength,
                     "vias": layout.total_vias,
                     "failed_nets": len(layout.failed)})


@register_pass
class BuryCriticalNetsPass(Pass):
    """Re-route critical nets below the probe-reachable top metals.

    Establishes the probing bound by construction (buried wires cannot
    sit on probe-reachable layers); the re-route moves geometry, so the
    other two layout metrics must be re-measured.
    """

    name = "bury-critical-nets"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    is_closure_eco = True
    effects = preserves_all(
        establishes=[P.PROBING_EXPOSURE],
        invalidates=[P.FIA_EXPOSURE, P.TROJAN_INSERTABILITY])

    def __init__(self, probe_depth: int = DEFAULT_PROBE_LAYERS) -> None:
        self.probe_depth = probe_depth

    def apply(self, netlist, ctx) -> PassResult:
        layout = _require_routing(ctx, self.name)
        critical = list(ctx.notes.get("critical-nets", []))
        buried = bury_critical_nets(layout, netlist, ctx.placement,
                                    critical,
                                    probe_depth=self.probe_depth)
        ctx.notes["buried-nets"] = buried
        cap = max(1, layout.num_layers - self.probe_depth)
        return PassResult(
            self.name, rewrites=len(buried),
            summary=f"buried {len(buried)} critical net(s) at or below "
                    f"layer {cap}",
            details={"buried_nets": len(buried), "layer_cap": cap})


@register_pass
class ShieldInsertionPass(Pass):
    """Shield cells over every exposed critical wire node.

    Covering a node closes both the probing and the laser path to it;
    the added shield geometry consumes routing capacity, so Trojan
    insertability is re-measured.
    """

    name = "shield-insertion"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    is_closure_eco = True
    effects = preserves_all(
        establishes=[P.PROBING_EXPOSURE, P.FIA_EXPOSURE],
        invalidates=[P.TROJAN_INSERTABILITY])

    def apply(self, netlist, ctx) -> PassResult:
        layout = _require_routing(ctx, self.name)
        critical = list(ctx.notes.get("critical-nets", []))
        added = insert_shields(layout, critical)
        return PassResult(
            self.name, rewrites=added,
            summary=f"inserted {added} shield cell(s) over exposed "
                    f"critical wires",
            details={"shields_added": added})


@register_pass
class EcoFillerPass(Pass):
    """ECO filler cells into every exploitable free region.

    Fillers occupy placement sites only — no netlist cells, no wire
    moves — so everything except the Trojan metric is untouched.
    """

    name = "eco-filler"
    stage = DesignStage.PHYSICAL_SYNTHESIS
    is_closure_eco = True
    effects = preserves_all(establishes=[P.TROJAN_INSERTABILITY])

    def __init__(self, min_sites: int = DEFAULT_MIN_TROJAN_SITES,
                 min_free_capacity: float = DEFAULT_MIN_FREE_CAPACITY
                 ) -> None:
        self.min_sites = min_sites
        self.min_free_capacity = min_free_capacity

    def apply(self, netlist, ctx) -> PassResult:
        layout = _require_routing(ctx, self.name)
        if ctx.placement is None:
            raise ValueError("eco-filler requires a prior placement pass")
        added = insert_fillers(layout, ctx.placement.positions.values(),
                               min_sites=self.min_sites,
                               min_free_capacity=self.min_free_capacity)
        return PassResult(
            self.name, rewrites=added,
            summary=f"filled {added} free site(s) with ECO fillers",
            details={"filler_sites": added})
