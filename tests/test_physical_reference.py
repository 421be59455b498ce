"""The annealer and the strict router search against frozen references.

``reference_physical.py`` keeps the annealer that re-priced every net
of every moved cell and the router search that flooded its window
before failing toward a sink it could not enter.  The production
kernels skip that work; these tests check that skipping it changes no
placement, no routed layout and no closure trace.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_physical as ref
from repro.core import masked_and_design
from repro.crypto import aes_sbox_netlist, present_sbox_netlist
from repro.flow import PassManager, create_pass, netlist_design, \
    strip_wall_times
from repro.netlist import (
    GateType,
    array_multiplier,
    c17,
    random_circuit,
    ripple_carry_adder,
)
from repro.physical import (
    RoutedLayout,
    annealing_placement,
    maze_route,
    security_closure,
)
from repro.physical import routing
from repro.sca import mask_netlist


def _synthesized_aes_sbox():
    """The AES S-box after the Fig. 1 flow's ``synthesis`` pass."""
    design = netlist_design(aes_sbox_netlist())
    return PassManager(seed=0).run(
        design, [create_pass("synthesis")]).design.netlist


def _repeated_pins():
    """Gates that read one net twice: such a cell is a pin of that net
    twice, so it lists the net twice."""
    n = random_circuit(6, 30, 3, seed=5)
    for j, net in enumerate(("g3", "g7", "g12", "in2")):
        n.add_gate(f"dup{j}", GateType.AND, [net, net])
        n.add_output(f"dup{j}")
    return n


DESIGNS = {
    "aes-sbox": aes_sbox_netlist,
    "aes-sbox-synthesized": _synthesized_aes_sbox,
    "present-sbox": present_sbox_netlist,
    "masked-present": lambda: mask_netlist(present_sbox_netlist()).netlist,
    "masked-and": lambda: masked_and_design().netlist,
    "rca8": lambda: ripple_carry_adder(8),
    "mult4": lambda: array_multiplier(4),
    "c17": c17,
    "repeated-pins": _repeated_pins,
}


def _outcome(result):
    """Everything a placement result carries, HPWL types included."""
    return (list(result.placement.positions.items()),
            result.placement.width, result.placement.height,
            repr(result.initial_hpwl), repr(result.final_hpwl),
            result.moves_accepted)


def _assert_same_annealing(netlist, **kwargs):
    assert (_outcome(annealing_placement(netlist, **kwargs))
            == _outcome(ref.annealing_placement(netlist, **kwargs)))


class TestAnnealerMatchesReference:
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("iterations", [0, 1, 300, 2000])
    def test_fixed_designs(self, design, iterations):
        netlist = DESIGNS[design]()
        for seed in (0, 3):
            _assert_same_annealing(netlist, iterations=iterations,
                                   seed=seed)

    @pytest.mark.parametrize("design", ["present-sbox", "rca8",
                                        "repeated-pins"])
    def test_explicit_die(self, design):
        netlist = DESIGNS[design]()
        cells = sum(1 for g in netlist.gates.values()
                    if g.gate_type not in (GateType.CONST0,
                                           GateType.CONST1))
        for width, height in ((cells, 1), (7, -(-cells // 7) + 2)):
            _assert_same_annealing(netlist, iterations=1000, seed=1,
                                   width=width, height=height)

    def test_signoff_placements(self):
        """The three placements of the repo benchmark's sign-off ops."""
        for netlist, iterations, seed in (
                (_synthesized_aes_sbox(), 1000, 0),
                (present_sbox_netlist(), 2000, 2),
                (masked_and_design().netlist, 1500, 0)):
            _assert_same_annealing(netlist, iterations=iterations,
                                   seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(n_inputs=st.integers(2, 8), n_gates=st.integers(1, 70),
           n_outputs=st.integers(1, 4), circuit_seed=st.integers(0, 999),
           seed=st.integers(0, 999),
           iterations=st.sampled_from([0, 1, 300, 2000]))
    def test_random_circuits(self, n_inputs, n_gates, n_outputs,
                             circuit_seed, seed, iterations):
        netlist = random_circuit(n_inputs, n_gates, n_outputs,
                                 seed=circuit_seed)
        _assert_same_annealing(netlist, iterations=iterations, seed=seed)


def _placed(netlist, seed, iterations=800):
    return annealing_placement(netlist, seed=seed,
                               iterations=iterations).placement


@pytest.fixture
def reference_search(monkeypatch):
    """Install the reference search as ``_GridSearch.search``."""
    def install():
        monkeypatch.setattr(routing._GridSearch, "search", ref.search)
    return install


class TestRoutingMatchesReference:
    @pytest.mark.parametrize("design,seed,kwargs", [
        ("c17", 0, {}),
        ("rca8", 1, {}),
        ("rca8", 0, {"num_layers": 3}),
        ("mult4", 2, {}),
        ("present-sbox", 2, {}),
        ("present-sbox", 3, {"num_layers": 4}),
    ])
    def test_maze_route(self, reference_search, design, seed, kwargs):
        netlist = DESIGNS[design]()
        placement = _placed(netlist, seed)
        new = maze_route(netlist, placement, **kwargs).to_dict()
        reference_search()
        assert maze_route(netlist, placement, **kwargs).to_dict() == new

    def test_bench_closure_route(self, reference_search):
        """``benchmarks/bench_closure.py``'s routed rca16."""
        netlist = ripple_carry_adder(16)
        placement = annealing_placement(netlist, seed=2,
                                        iterations=3000).placement
        new = maze_route(netlist, placement).to_dict()
        reference_search()
        assert maze_route(netlist, placement).to_dict() == new

    @pytest.mark.parametrize("design,kwargs", [
        ("c17", {"seed": 2}),
        ("rca8", {"seed": 2}),
        ("mult4", {"seed": 1}),
        ("present-sbox", {"seed": 2}),
        ("rca8", {"num_layers": 3, "seed": 0}),   # bury+shield+fill
    ])
    def test_security_closure(self, reference_search, design, kwargs):
        def closed():
            d = security_closure(DESIGNS[design](), **kwargs).to_dict()
            d["trace"] = strip_wall_times(d["trace"])
            return d
        new = closed()
        reference_search()
        assert closed() == new

    def test_closure_skips_unenterable_sinks(self, monkeypatch):
        """PRESENT's closure has sinks no strict path can enter, so the
        comparison above exercises the skip, not only the flood."""
        verdicts = []
        enterable = routing._GridSearch._enterable

        def recording(self, *args):
            verdicts.append(enterable(self, *args))
            return verdicts[-1]
        monkeypatch.setattr(routing._GridSearch, "_enterable", recording)
        security_closure(present_sbox_netlist(), seed=2)
        assert verdicts.count(False) >= 1


def _surrounded_target(layout, target, owner="other"):
    """Give ``owner`` every grid edge into ``target``."""
    x, y, l = target
    for nxt in ((x + 1, y, l), (x - 1, y, l), (x, y + 1, l),
                (x, y - 1, l), (x, y, l + 1), (x, y, l - 1)):
        if (0 <= nxt[0] < layout.width and 0 <= nxt[1] < layout.height
                and 1 <= nxt[2] <= layout.num_layers):
            layout.edge_owner[routing._edge(target, nxt)] = owner


class TestStrictSearchSkip:
    def test_unenterable_target_returns_before_popping(self, monkeypatch):
        layout = RoutedLayout(width=5, height=5, num_layers=2)
        target = (2, 2, 1)
        _surrounded_target(layout, target)
        search = routing._GridSearch(layout, via_cost=2)

        def no_pop(heap):
            raise AssertionError("the search popped its heap")
        monkeypatch.setattr(routing.heapq, "heappop", no_pop)
        assert search.search("mine", {(0, 0, 1)}, target, limit=2,
                             permissive=False) is None
        assert next(search.counter) == 0      # no tie value drawn

    def test_permissive_search_still_crosses(self):
        layout = RoutedLayout(width=5, height=5, num_layers=2)
        target = (2, 2, 1)
        _surrounded_target(layout, target)
        search = routing._GridSearch(layout, via_cost=2)
        path = search.search("mine", {(0, 0, 1)}, target, limit=2,
                             permissive=True)
        assert path is not None and path[-1] == target

    def test_own_edge_and_source_target_still_search(self):
        layout = RoutedLayout(width=5, height=5, num_layers=2)
        target = (2, 2, 1)
        _surrounded_target(layout, target)
        layout.edge_owner[routing._edge(target, (1, 2, 1))] = "mine"
        search = routing._GridSearch(layout, via_cost=2)
        path = search.search("mine", {(0, 0, 1)}, target, limit=2,
                             permissive=False)
        assert path is not None and path[-2:] == [(1, 2, 1), target]
        layout.shields.add(target)
        assert search.search("mine", {target}, target, limit=2,
                             permissive=False) == [target]
        assert search.search("mine", {(0, 0, 1)}, target, limit=2,
                             permissive=False) is None


_SIDE = st.integers(2, 5)


@st.composite
def _search_problems(draw):
    """A small layout with foreign and own edges, shields, sources above
    or below the layer limit, and an optional window."""
    width, height = draw(_SIDE), draw(_SIDE)
    layers = draw(st.integers(1, 3))
    nodes = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1),
                      st.integers(1, layers))
    layout = RoutedLayout(width=width, height=height, num_layers=layers)
    for a in draw(st.lists(nodes, max_size=30)):
        x, y, l = a
        b = draw(st.sampled_from([(x + 1, y, l), (x, y + 1, l),
                                  (x, y, l + 1)]))
        if b[0] < width and b[1] < height and b[2] <= layers:
            layout.edge_owner[routing._edge(a, b)] = draw(
                st.sampled_from(["mine", "other"]))
    layout.shields.update(draw(st.lists(nodes, max_size=6)))
    sources = set(draw(st.lists(nodes, min_size=1, max_size=3)))
    target = draw(nodes)
    limit = draw(st.integers(1, layers))
    window = None
    if draw(st.booleans()):
        x0, x1 = sorted(draw(st.lists(st.integers(0, width - 1),
                                      min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, height - 1),
                                      min_size=2, max_size=2)))
        window = (x0, y0, x1, y1)
    return layout, sources, target, limit, window


@settings(max_examples=300, deadline=None)
@given(problem=_search_problems(), permissive=st.booleans())
def test_search_matches_reference_on_random_grids(problem, permissive):
    layout, sources, target, limit, window = problem
    kwargs = {"permissive": permissive, "window": window}
    new = routing._GridSearch(layout, via_cost=2).search(
        "mine", sources, target, limit, **kwargs)
    old = ref.search(routing._GridSearch(layout, via_cost=2),
                     "mine", sources, target, limit, **kwargs)
    assert new == old
