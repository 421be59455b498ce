"""Tests for logic synthesis: rewrites, re-association, techmap, and
the flow's ``synthesis`` pass."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flow import PassManager, SynthesisStagePass, netlist_design
from repro.netlist import (
    GateType,
    Netlist,
    arrival_times,
    c17,
    exhaustive_truth_table,
    parity_tree,
    ppa_report,
    random_circuit,
)
from repro.synth import (
    balance_trees,
    buffer_sweep,
    collect_trees,
    constant_propagation,
    decompose_variadic,
    double_inversion_elimination,
    map_to_library,
    nand_inv_library,
    reassociate_for_timing,
    standard_library,
    structural_hashing,
    to_nand_inv,
)


def truth_of(netlist):
    return {o: exhaustive_truth_table(netlist, o) for o in netlist.outputs}


def synthesized(netlist):
    """A copy of ``netlist`` after the ``synthesis`` pass, unmapped."""
    design = netlist_design(netlist.copy())
    passes = [SynthesisStagePass(map_library=False)]
    return PassManager().run(design, passes).design.netlist


class TestConstantPropagation:
    def _one(self, gate_type, fanins_spec, expected_tt):
        """fanins_spec: list of 'a'/'0'/'1' (input / const0 / const1)."""
        n = Netlist()
        n.add_input("a")
        c0 = n.add_gate("zero", GateType.CONST0)
        c1 = n.add_gate("one", GateType.CONST1)
        lookup = {"a": "a", "0": "zero", "1": "one"}
        n.add_gate("y", gate_type, [lookup[f] for f in fanins_spec])
        n.add_gate("out", GateType.BUF, ["y"])
        n.add_output("out")
        constant_propagation(n)
        assert exhaustive_truth_table(n, "out") == expected_tt

    def test_and_with_one(self):
        self._one(GateType.AND, ["a", "1"], [0, 1])

    def test_and_with_zero(self):
        self._one(GateType.AND, ["a", "0"], [0, 0])

    def test_nand_with_zero(self):
        self._one(GateType.NAND, ["a", "0"], [1, 1])

    def test_or_with_one(self):
        self._one(GateType.OR, ["a", "1"], [1, 1])

    def test_nor_with_zero(self):
        self._one(GateType.NOR, ["a", "0"], [1, 0])

    def test_xor_with_one(self):
        self._one(GateType.XOR, ["a", "1"], [1, 0])

    def test_xnor_with_one(self):
        self._one(GateType.XNOR, ["a", "1"], [0, 1])

    def test_xor_self_cancel(self):
        self._one(GateType.XOR, ["a", "a", "a"], [0, 1])

    def test_mux_const_select(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        c1 = n.add_gate("one", GateType.CONST1)
        n.add_gate("y", GateType.MUX, ["one", "a", "b"])
        n.add_gate("out", GateType.BUF, ["y"])
        n.add_output("out")
        constant_propagation(n)
        # select=1 -> b : out = b
        assert exhaustive_truth_table(n, "out") == [0, 0, 1, 1]

    def test_mux_equal_branches(self):
        n = Netlist()
        n.add_input("s")
        n.add_input("a")
        n.add_gate("y", GateType.MUX, ["s", "a", "a"])
        n.add_gate("out", GateType.BUF, ["y"])
        n.add_output("out")
        constant_propagation(n)
        assert n.gates["out"].fanins == ["a"]

    def test_random_circuits_preserved(self):
        for seed in range(4):
            n = random_circuit(6, 50, 3, seed=seed)
            golden = truth_of(n)
            constant_propagation(n)
            assert truth_of(n) == golden


class TestOtherPasses:
    def test_double_inversion(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("n1", GateType.NOT, ["a"])
        n.add_gate("n2", GateType.NOT, ["n1"])
        n.add_gate("y", GateType.BUF, ["n2"])
        n.add_output("y")
        double_inversion_elimination(n)
        assert n.gates["y"].fanins == ["a"]

    def test_structural_hashing_merges(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("g1", GateType.AND, ["a", "b"])
        n.add_gate("g2", GateType.AND, ["b", "a"])  # commutative duplicate
        n.add_gate("y", GateType.XOR, ["g1", "g2"])
        n.add_output("y")
        assert structural_hashing(n) >= 1
        # XOR(x, x) is functionally 0 but strash only merges structure.
        assert exhaustive_truth_table(n, "y") == [0, 0, 0, 0]

    def test_buffer_sweep_keeps_outputs(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("b1", GateType.BUF, ["a"])
        n.add_gate("g", GateType.NOT, ["b1"])
        n.add_gate("y", GateType.BUF, ["g"])
        n.add_output("y")
        buffer_sweep(n)
        assert "y" in n.gates          # output buffer kept
        assert n.gates["g"].fanins == ["a"]  # internal buffer removed

    def test_flow_reduces_random_circuit(self):
        n = random_circuit(8, 120, 4, seed=9)
        golden = truth_of(n)
        m = synthesized(n)
        assert truth_of(m) == golden
        assert m.num_cells() <= n.num_cells()
        assert ppa_report(m).area <= ppa_report(n).area

    def test_synthesize_helper(self):
        n = random_circuit(6, 40, 2, seed=5)
        golden = truth_of(n)
        m = synthesized(n)
        assert truth_of(n) == golden
        assert truth_of(m) == golden


class TestReassociation:
    def test_collect_trees_chain(self):
        p = parity_tree(6, balanced=False)
        trees = collect_trees(p)
        assert len(trees) == 1
        assert sorted(trees[0].leaves) == [f"x{i}" for i in range(6)]

    def test_function_preserved(self):
        p = parity_tree(7, balanced=False)
        golden = exhaustive_truth_table(p)
        reassociate_for_timing(p)
        assert exhaustive_truth_table(p) == golden

    def test_depth_reduced(self):
        p = parity_tree(16, balanced=False)
        before = p.depth()
        reassociate_for_timing(p)
        assert p.depth() < before

    def test_balance_trees(self):
        p = parity_tree(9, balanced=False)
        golden = exhaustive_truth_table(p)
        assert balance_trees(p) == 1
        assert exhaustive_truth_table(p) == golden

    def test_late_input_near_root(self):
        p = parity_tree(6, balanced=False)
        reassociate_for_timing(p, input_arrivals={"x0": 1e6})
        # x0 must now be a fanin of the root XOR.
        root = p.gates[p.outputs[0]].fanins[0]
        assert "x0" in p.gates[root].fanins

    def test_xnor_parity_preserved(self):
        n = Netlist()
        for i in range(4):
            n.add_input(f"x{i}")
        n.add_gate("t0", GateType.XNOR, ["x0", "x1"])
        n.add_gate("t1", GateType.XOR, ["t0", "x2"])
        n.add_gate("y", GateType.XNOR, ["t1", "x3"])
        n.add_output("y")
        golden = exhaustive_truth_table(n, "y")
        reassociate_for_timing(n)
        assert exhaustive_truth_table(n, "y") == golden

    def test_chained_roots(self):
        # Tree root feeding another tree through a multi-fanout net.
        n = Netlist()
        for i in range(5):
            n.add_input(f"x{i}")
        n.add_gate("t0", GateType.XOR, ["x0", "x1"])
        n.add_gate("t1", GateType.XOR, ["t0", "x2"])
        n.add_gate("u0", GateType.XOR, ["t1", "x3"])
        n.add_gate("u1", GateType.XOR, ["u0", "x4"])
        n.add_gate("other", GateType.AND, ["t1", "x4"])  # t1 multi-fanout
        n.add_output("u1")
        n.add_output("other")
        golden = truth_of(n)
        reassociate_for_timing(n)
        n.validate()
        assert truth_of(n) == golden

    @pytest.mark.parametrize("rebuild", [reassociate_for_timing,
                                         balance_trees])
    def test_dangling_trees(self, rebuild):
        # Two XOR trees that drive nothing: the first rebuild must not
        # sweep the second tree's leaves away before it is rebuilt.
        n = Netlist()
        for i in range(4):
            n.add_input(f"x{i}")
        n.add_gate("y", GateType.AND, ["x0", "x1"])
        n.add_output("y")
        n.add_gate("s", GateType.OR, ["x2", "x3"])
        n.add_gate("t0", GateType.XOR, ["x0", "x1"])
        n.add_gate("t1", GateType.XOR, ["t0", "s"])
        n.add_gate("u0", GateType.XOR, ["s", "x2"])
        n.add_gate("u1", GateType.XOR, ["u0", "x3"])
        assert rebuild(n) == 2
        n.validate()
        assert sorted(n.gates) == ["x0", "x1", "x2", "x3", "y"]

    @pytest.mark.parametrize("rebuild", [reassociate_for_timing,
                                         balance_trees])
    def test_no_tree_leaves_netlist_untouched(self, rebuild):
        # Dangling logic outside any rebuilt tree is not swept.
        n = Netlist()
        n.add_input("a")
        n.add_input("b")
        n.add_gate("y", GateType.AND, ["a", "b"])
        n.add_output("y")
        n.add_gate("dead", GateType.OR, ["a", "b"])
        epoch = n.mutation_epoch
        assert rebuild(n) == 0
        assert sorted(n.gates) == ["a", "b", "dead", "y"]
        assert n.mutation_epoch == epoch


class TestTechmap:
    def test_decompose_variadic(self):
        n = Netlist()
        for name in "abcd":
            n.add_input(name)
        n.add_gate("y", GateType.NAND, ["a", "b", "c", "d"])
        n.add_output("y")
        golden = exhaustive_truth_table(n, "y")
        decompose_variadic(n)
        assert all(len(g.fanins) <= 2 for g in n.gates.values())
        assert exhaustive_truth_table(n, "y") == golden

    @pytest.mark.parametrize("library_factory", [
        standard_library, nand_inv_library,
    ])
    def test_mapping_preserves_function(self, library_factory):
        n = random_circuit(6, 50, 3, seed=21)
        golden = truth_of(n)
        lib = library_factory()
        map_to_library(n, lib)
        assert truth_of(n) == golden
        allowed = lib.gate_types | {
            GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.BUF,
        }
        assert {g.gate_type for g in n.gates.values()} <= allowed

    def test_nand_inv_only(self):
        n = random_circuit(5, 30, 2, seed=3)
        to_nand_inv(n)
        kinds = {g.gate_type for g in n.gates.values()
                 if g.gate_type.is_combinational
                 and g.gate_type is not GateType.BUF}
        assert kinds <= {GateType.NAND, GateType.NOT}

    def test_mux_mapped_out(self):
        n = Netlist()
        for name in ("s", "a", "b"):
            n.add_input(name)
        n.add_gate("y", GateType.MUX, ["s", "a", "b"])
        n.add_output("y")
        golden = exhaustive_truth_table(n, "y")
        map_to_library(n, nand_inv_library())
        assert exhaustive_truth_table(n, "y") == golden
        assert not any(g.gate_type is GateType.MUX for g in n.gates.values())

    @pytest.mark.parametrize("map_library", [True, False])
    def test_synthesis_summary_says_mapped_only_when_it_maps(
            self, map_library):
        design = netlist_design(c17())
        result = PassManager().run(
            design, [SynthesisStagePass(map_library=map_library)])
        summary = result.trace.passes[0].summary
        assert summary.startswith("optimized 6 -> ")
        assert ("mapped to std library" in summary) is map_library


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_synthesis_random_equivalence_property(seed):
    n = random_circuit(5, 35, 3, seed=seed)
    golden = truth_of(n)
    m = synthesized(n)
    assert truth_of(m) == golden


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 12), st.booleans())
def test_reassociation_property(width, balanced):
    p = parity_tree(width, balanced=balanced)
    golden = exhaustive_truth_table(p)
    reassociate_for_timing(p)
    assert exhaustive_truth_table(p) == golden
