"""Invariant tests for the multi-layer grid maze router."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import c17, random_circuit, ripple_carry_adder
from repro.physical import (
    RoutedLayout,
    RoutedNet,
    annealing_placement,
    maze_route,
    random_placement,
    reroute_nets,
    routing_nets,
)
from repro.physical import routing
from repro.physical.routing import is_via_edge


def _route(netlist, seed=0, **kwargs):
    placement = annealing_placement(netlist, seed=seed,
                                    iterations=800).placement
    return maze_route(netlist, placement, **kwargs), placement


def _assert_invariants(layout, netlist, placement):
    """The router's contract: connectivity, exclusivity, via sanity."""
    scale = layout.scale
    # Every routable net is either routed or reported failed.
    for name, driver_site, sinks in routing_nets(netlist, placement):
        assert name in layout.nets or name in layout.failed
        if name in layout.failed:
            continue
        routed = layout.nets[name]
        # Every sink pin got a branch.
        expected = {(s[0] * scale, s[1] * scale) for s in sinks}
        assert expected == set(routed.branches), name
        # Driver -> each sink: a connected path through the grid.
        # Branches attach in insertion order (each starts on the tree
        # built by its predecessors).
        root = (driver_site[0] * scale, driver_site[1] * scale, 1)
        tree_nodes = {root}
        for pin in routed.sink_pins:
            path = routed.branches[pin]
            assert path[0] in tree_nodes, (name, pin)  # attaches to tree
            assert path[-1] == (pin[0], pin[1], 1)
            for a, b in zip(path, path[1:]):
                dx = abs(a[0] - b[0])
                dy = abs(a[1] - b[1])
                dl = abs(a[2] - b[2])
                # unit steps: one lateral hop or one via
                assert sorted((dx, dy, dl)) == [0, 0, 1], (a, b)
                if dl:  # vias only join adjacent layers
                    assert (a[0], a[1]) == (b[0], b[1])
            tree_nodes.update(path)
    # No two nets share a grid edge (exclusivity).
    seen = {}
    for name, routed in layout.nets.items():
        for e in routed.edges():
            assert e not in seen or seen[e] == name, (e, name, seen[e])
            seen[e] = name
            assert layout.edge_owner.get(e) == name
    # Ownership map carries no stale entries.
    assert set(seen) == set(layout.edge_owner)


class TestRouterInvariants:
    def test_c17_routes_clean(self):
        n = c17()
        layout, placement = _route(n)
        assert layout.failed == []
        _assert_invariants(layout, n, placement)

    def test_rca16_routes_clean(self):
        n = ripple_carry_adder(16)
        layout, placement = _route(n)
        assert layout.failed == []
        _assert_invariants(layout, n, placement)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_random_circuits_hold_invariants(self, seed):
        n = random_circuit(4, 12, 3, seed=seed)
        placement = random_placement(n, seed=seed)
        layout = maze_route(n, placement)
        _assert_invariants(layout, n, placement)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_deterministic_for_fixed_inputs(self, seed):
        n = random_circuit(5, 16, 4, seed=seed)
        placement = random_placement(n, seed=seed)
        a = maze_route(n, placement)
        b = maze_route(n, placement)
        assert a.to_dict() == b.to_dict()

    def test_layer_limit_respected(self):
        n = ripple_carry_adder(8)
        layout, placement = _route(n)
        name = next(iter(layout.nets))
        reroute_nets(layout, n, placement, [name], max_layer=2)
        if name in layout.nets:
            assert layout.nets[name].max_layer <= 2
        _assert_invariants(layout, n, placement)

    def test_num_layers_bounds_all_nets(self):
        n = ripple_carry_adder(8)
        layout, _ = _route(n, num_layers=3)
        assert all(r.max_layer <= 3 for r in layout.nets.values())


class TestPartialRipUp:
    def test_rip_edges_drops_only_broken_branches(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        routed = RoutedNet("a", (0, 0), [])
        routed.sink_pins = [(4, 0), (4, 2)]
        trunk = [(x, 0, 1) for x in range(5)]
        spur = [(4, 0, 1), (4, 1, 1), (4, 2, 1)]
        routed.branches = {(4, 0): trunk, (4, 2): spur}
        layout.claim("a", routed)
        lost = layout.rip_edges("a", {((4, 1, 1), (4, 2, 1))})
        assert lost == [(4, 2)]
        assert layout.nets["a"].sink_pins == [(4, 0)]
        assert ((4, 1, 1), (4, 2, 1)) not in layout.edge_owner
        assert layout.edge_owner[((0, 0, 1), (1, 0, 1))] == "a"

    def test_rip_edges_cascades_to_disconnected_branches(self):
        layout = RoutedLayout(width=9, height=9, num_layers=2)
        routed = RoutedNet("a", (0, 0), [])
        routed.sink_pins = [(2, 0), (2, 2)]
        trunk = [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
        spur = [(2, 0, 1), (2, 1, 1), (2, 2, 1)]
        routed.branches = {(2, 0): trunk, (2, 2): spur}
        layout.claim("a", routed)
        # Stealing a trunk edge orphans the spur attached downstream.
        lost = layout.rip_edges("a", {((0, 0, 1), (1, 0, 1))})
        assert lost == [(2, 0), (2, 2)]
        assert "a" not in layout.nets
        assert layout.edge_owner == {}


def _enclose(layout, target, owner="other"):
    """Give ``owner`` every layer-1 edge into ``target``, so no strict
    search can enter it."""
    x, y, _l = target
    for nxt in ((x + 1, y, 1), (x - 1, y, 1), (x, y + 1, 1),
                (x, y - 1, 1)):
        if 0 <= nxt[0] < layout.width and 0 <= nxt[1] < layout.height:
            layout.edge_owner[routing._edge(target, nxt)] = owner


@pytest.fixture
def searches(monkeypatch):
    """Every ``_GridSearch.search`` call as ``(permissive, window)``."""
    calls = []
    search = routing._GridSearch.search

    def spy(self, net, sources, target, limit, permissive,
            penalty=routing._FOREIGN_PENALTY, window=None):
        calls.append((permissive, window))
        return search(self, net, sources, target, limit, permissive,
                      penalty, window)
    monkeypatch.setattr(routing._GridSearch, "search", spy)
    return calls


class TestPermissiveWindow:
    """The permissive search starts in the pin box grown by
    ``_PERMISSIVE_MARGIN`` and doubles the margin until it succeeds or
    its window covers the grid."""

    def test_walled_window_doubles_until_the_sink_attaches(self,
                                                           searches):
        assert routing._PERMISSIVE_MARGIN == 1
        layout = RoutedLayout(width=13, height=11, num_layers=1)
        target = (8, 5, 1)
        _enclose(layout, target)
        # Shields cut the margin-1 window (rows 4-6) between the pins.
        layout.shields.update((6, y, 1) for y in (4, 5, 6))
        search = routing._GridSearch(layout, via_cost=2)
        routed, ripped = routing._route_one(search, layout, "mine",
                                            (4, 5), [(8, 5)], limit=1)
        assert searches == [(False, (0, 0, 12, 10)),
                            (True, (3, 4, 9, 6)),
                            (True, (2, 3, 10, 7))]
        path = routed.branches[(8, 5)]
        assert path[0] == (4, 5, 1) and path[-1] == target
        assert not set(path) & layout.shields
        assert ripped == {"other": []}

    def test_grid_sized_window_searches_once(self, searches):
        layout = RoutedLayout(width=3, height=3, num_layers=1)
        # Shields wall the sink (2, 2) in: no search can enter it.
        layout.shields.update({(1, 2, 1), (2, 1, 1)})
        search = routing._GridSearch(layout, via_cost=2)
        routed, ripped = routing._route_one(search, layout, "mine",
                                            (0, 0), [(2, 2)], limit=1)
        assert routed is None and ripped == {}
        assert searches == [(False, (0, 0, 2, 2)), (True, (0, 0, 2, 2))]
        assert layout.edge_owner == {}


class TestSerialization:
    def test_round_trip(self):
        n = ripple_carry_adder(8)
        layout, _ = _route(n)
        layout.shields.add((1, 1, 3))
        layout.fillers.add((2, 2))
        clone = RoutedLayout.from_dict(layout.to_dict())
        assert clone.to_dict() == layout.to_dict()
        assert clone.edge_owner == layout.edge_owner

    def test_occupancy_matches_nets(self):
        n = c17()
        layout, _ = _route(n)
        stack = layout.occupancy_stack()
        for routed in layout.nets.values():
            for x, y, l in routed.nodes():
                assert stack[l - 1, x, y]
