"""Cache-invalidation guard: every public mutator must bump the epoch.

The compiled simulation engine and the flow-level
:class:`repro.flow.AnalysisCache` both key their entries on netlist
identity plus :attr:`Netlist.mutation_epoch`.  A mutator that forgets
to invalidate would serve stale programs/analyses silently — so this
suite drives the netlist through *every* public mutator and asserts
(a) the epoch advanced and (b) re-simulation through the compiled
engine is bit-exact against the interpreted reference afterwards.
"""

import pytest

from repro.netlist import GateType, Netlist, c17, random_circuit
from repro.netlist.engine import get_compiled
from repro.netlist.simulate import simulate, simulate_reference


def assert_bit_exact(netlist, width=8, seed=0):
    """Compiled re-simulation must match the interpreted reference."""
    import random

    rng = random.Random(seed)
    mask = (1 << width) - 1
    inputs = {name: rng.randint(0, mask) for name in netlist.inputs}
    state = {ff: rng.randint(0, mask) for ff in netlist.flops}
    compiled = simulate(netlist, inputs, width=width, state=state)
    reference = simulate_reference(netlist, inputs, width=width,
                                   state=state)
    assert compiled == reference


def fresh():
    n = Netlist("guard")
    n.add_input("a")
    n.add_input("b")
    n.add_input("c")
    n.add_gate("ab", GateType.AND, ["a", "b"])
    n.add_gate("bc", GateType.OR, ["b", "c"])
    n.add_gate("y", GateType.XOR, ["ab", "bc"])
    n.add_gate("buf1", GateType.BUF, ["y"])
    n.add_output("buf1")
    return n


class TestEpochBumps:
    """Each mutator advances mutation_epoch and drops the topo cache."""

    def warmed(self):
        n = fresh()
        n.topological_order()      # populate _topo_cache
        get_compiled(n)            # populate the compiled program
        return n, n.mutation_epoch

    def test_add_gate(self):
        n, epoch = self.warmed()
        n.add_gate("z", GateType.NOT, ["y"])
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_add_input(self):
        n, epoch = self.warmed()
        n.add_input("d")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_add_output(self):
        n, epoch = self.warmed()
        n.add_output("y")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_add_with_prefix(self):
        n, epoch = self.warmed()
        n.add(GateType.NAND, ["a", "c"], prefix="t")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_replace_fanin(self):
        n, epoch = self.warmed()
        n.replace_fanin("y", "ab", "a")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_rewire_consumers(self):
        n, epoch = self.warmed()
        n.rewire_consumers("ab", "bc")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_remove_gate(self):
        n, epoch = self.warmed()
        n.rewire_consumers("ab", "bc")
        n.remove_gate("ab")
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_sweep_dangling(self):
        n, epoch = self.warmed()
        n.add_gate("dead", GateType.NOT, ["a"])
        swept = n.sweep_dangling()
        assert swept >= 1
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_import_netlist(self):
        n, epoch = self.warmed()
        n.import_netlist(c17(), prefix="sub_",
                         port_map={i: "a" for i in c17().inputs})
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)

    def test_manual_fanin_mutation_with_invalidate(self):
        # The documented protocol for direct gate surgery (used by
        # dft.scan, ip.camouflage): mutate .fanins, then invalidate().
        n, epoch = self.warmed()
        n.gates["y"].fanins = ["ab", "a"]
        n.invalidate()
        assert n.mutation_epoch > epoch
        assert_bit_exact(n)


class TestStaleProgramNeverServed:
    """The compiled engine must recompile after any mutation."""

    def test_function_change_reflected_immediately(self):
        n = fresh()
        before = simulate(n, {"a": 1, "b": 1, "c": 0})["buf1"]
        assert before == (1 & 1) ^ (1 | 0)    # y = ab ^ bc = 0
        n.replace_fanin("y", "bc", "c")       # y = ab ^ c
        after = simulate(n, {"a": 1, "b": 1, "c": 0})["buf1"]
        assert after == (1 & 1) ^ 0
        assert_bit_exact(n)

    def test_copy_is_independent(self):
        n = fresh()
        get_compiled(n)
        twin = n.copy()
        twin.replace_fanin("y", "ab", "a")
        # The original's cached program must be untouched by the twin.
        assert simulate(n, {"a": 0, "b": 1, "c": 1})["y"] == \
            simulate_reference(n, {"a": 0, "b": 1, "c": 1})["y"]
        assert_bit_exact(twin)

    def test_epoch_monotonic_across_mutator_storm(self):
        n = random_circuit(6, 40, 2, seed=7)
        seen = [n.mutation_epoch]
        n.add_input("extra")
        seen.append(n.mutation_epoch)
        n.add(GateType.XOR, [n.inputs[0], "extra"], prefix="mix")
        seen.append(n.mutation_epoch)
        n.sweep_dangling()
        seen.append(n.mutation_epoch)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)
        assert_bit_exact(n)


class TestAnalysisCacheInvalidation:
    """Flow-level AnalysisCache entries die with the epoch."""

    def test_epoch_invalidates_entry(self):
        from repro.flow import AnalysisCache

        n = fresh()
        cache = AnalysisCache()
        first = cache.get("topo-order", n, n.topological_order)
        assert cache.get("topo-order", n, n.topological_order) is first
        assert cache.hits == 1
        n.add_gate("z", GateType.NOT, ["y"])
        second = cache.get("topo-order", n, n.topological_order)
        assert "z" in second
        assert cache.misses == 2

    def test_distinct_netlists_do_not_alias(self):
        from repro.flow import AnalysisCache

        cache = AnalysisCache()
        a, b = fresh(), fresh()
        cache.get("topo-order", a, a.topological_order)
        cache.get("topo-order", b, b.topological_order)
        assert cache.misses == 2  # same epoch, different identity


def test_add_gate_rejects_duplicate_driver():
    from repro.netlist.netlist import NetlistError

    n = fresh()
    with pytest.raises(NetlistError):
        n.add_gate("a", GateType.AND, ["b", "c"])
