"""Unit tests for the netlist IR: construction, topology, mutation."""

import pytest

from repro.netlist import (
    Gate,
    GateType,
    Netlist,
    NetlistError,
    c17,
    check_arity,
    cone_extract,
    evaluate,
)


def build_simple():
    n = Netlist("t")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g1", GateType.AND, ["a", "b"])
    n.add_gate("g2", GateType.NOT, ["g1"])
    n.add_output("g2")
    return n


class TestGateTypes:
    def test_inverting_flags(self):
        assert GateType.NAND.is_inverting
        assert GateType.NOR.is_inverting
        assert GateType.XNOR.is_inverting
        assert GateType.NOT.is_inverting
        assert not GateType.AND.is_inverting

    def test_base_mapping(self):
        assert GateType.NAND.base is GateType.AND
        assert GateType.XNOR.base is GateType.XOR
        assert GateType.NOT.base is GateType.BUF
        assert GateType.AND.base is GateType.AND

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            check_arity(GateType.AND, 1)
        with pytest.raises(ValueError):
            check_arity(GateType.NOT, 2)
        with pytest.raises(ValueError):
            check_arity(GateType.MUX, 2)
        check_arity(GateType.AND, 5)
        check_arity(GateType.MUX, 3)

    @pytest.mark.parametrize("t,vals,expected", [
        (GateType.AND, [0b1100, 0b1010], 0b1000),
        (GateType.NAND, [0b1100, 0b1010], 0b0111),
        (GateType.OR, [0b1100, 0b1010], 0b1110),
        (GateType.NOR, [0b1100, 0b1010], 0b0001),
        (GateType.XOR, [0b1100, 0b1010], 0b0110),
        (GateType.XNOR, [0b1100, 0b1010], 0b1001),
        (GateType.NOT, [0b1100], 0b0011),
        (GateType.BUF, [0b1100], 0b1100),
    ])
    def test_evaluate_bitparallel(self, t, vals, expected):
        assert evaluate(t, vals, 0b1111) == expected

    def test_evaluate_mux(self):
        # sel=0 -> d0, sel=1 -> d1, bit-parallel over 4 patterns
        sel, d0, d1 = 0b0101, 0b0011, 0b1100
        assert evaluate(GateType.MUX, [sel, d0, d1], 0b1111) == 0b0110

    def test_evaluate_nary(self):
        assert evaluate(GateType.AND, [0b111, 0b110, 0b011], 0b111) == 0b010
        assert evaluate(GateType.XOR, [1, 1, 1], 1) == 1

    def test_evaluate_constants(self):
        assert evaluate(GateType.CONST0, [], 0b11) == 0
        assert evaluate(GateType.CONST1, [], 0b11) == 0b11

    def test_cannot_evaluate_input(self):
        with pytest.raises(ValueError):
            evaluate(GateType.INPUT, [], 1)


class TestNetlistConstruction:
    def test_basic(self):
        n = build_simple()
        assert len(n) == 4
        assert n.inputs == ["a", "b"]
        assert n.outputs == ["g2"]
        assert n.num_cells() == 2

    def test_duplicate_driver_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError):
            n.add_gate("g1", GateType.OR, ["a", "b"])

    def test_unknown_output_rejected(self):
        n = build_simple()
        with pytest.raises(NetlistError):
            n.add_output("nope")

    def test_gate_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            Gate("x", GateType.AND, ["a"])

    def test_new_name_is_fresh(self):
        n = build_simple()
        names = {n.new_name() for _ in range(10)}
        assert len(names) == 10
        assert not names & set(n.gates)

    def test_add_auto_names(self):
        n = build_simple()
        net = n.add(GateType.OR, ["a", "b"])
        assert net in n.gates

    def test_contains(self):
        n = build_simple()
        assert "g1" in n
        assert "zz" not in n


class TestTopology:
    def test_topological_order(self):
        n = build_simple()
        order = n.topological_order()
        assert order.index("g1") < order.index("g2")
        assert order.index("a") < order.index("g1")

    def test_cycle_detection(self):
        n = Netlist()
        n.add_input("a")
        n.gates["g1"] = Gate("g1", GateType.AND, ["a", "g2"])
        n.gates["g2"] = Gate("g2", GateType.NOT, ["g1"])
        with pytest.raises(NetlistError):
            n.topological_order()

    def test_dff_breaks_cycle(self):
        n = Netlist()
        n.add_input("a")
        n.add_gate("q", GateType.DFF, ["d"])
        n.add_gate("d", GateType.XOR, ["a", "q"])
        n.add_output("q")
        n.validate()  # no combinational cycle

    def test_levels_and_depth(self):
        n = build_simple()
        lv = n.levels()
        assert lv["a"] == 0 and lv["g1"] == 1 and lv["g2"] == 2
        assert n.depth() == 2

    def test_transitive_fanin(self):
        n = c17()
        cone = n.transitive_fanin(["G22"])
        assert "G1" in cone and "G19" not in cone

    def test_transitive_fanout(self):
        n = c17()
        fo = n.transitive_fanout(["G11"])
        assert "G22" in fo and "G23" in fo and "G10" not in fo

    def test_validate_catches_undriven(self):
        n = Netlist()
        n.add_input("a")
        n.gates["g"] = Gate("g", GateType.NOT, ["missing"])
        with pytest.raises(NetlistError):
            n.validate()


class TestMutation:
    def test_replace_fanin(self):
        n = build_simple()
        n.add_input("c")
        n.replace_fanin("g1", "b", "c")
        assert n.gate("g1").fanins == ["a", "c"]

    def test_rewire_consumers(self):
        n = build_simple()
        n.add_input("c")
        n.rewire_consumers("g1", "c")
        assert n.gate("g2").fanins == ["c"]

    def test_rewire_updates_outputs(self):
        n = build_simple()
        n.add_input("c")
        n.rewire_consumers("g2", "c")
        assert n.outputs == ["c"]

    def test_remove_gate_guards(self):
        n = build_simple()
        with pytest.raises(NetlistError):
            n.remove_gate("g1")  # still consumed
        with pytest.raises(NetlistError):
            n.remove_gate("g2")  # is an output

    def test_sweep_dangling(self):
        n = build_simple()
        n.add_gate("dead", GateType.OR, ["a", "b"])
        n.add_gate("dead2", GateType.NOT, ["dead"])
        assert n.sweep_dangling() == 2
        assert "dead" not in n and "dead2" not in n

    def test_sweep_removes_a_deep_dead_chain_in_one_call(self):
        n = build_simple()
        n.add_input("spare")
        before = dict(n.gates)
        outputs = list(n.outputs)
        net = n.add_gate("d0", GateType.AND, ["a", "spare"])
        for k in range(1, 6):
            net = n.add_gate(f"d{k}", GateType.XOR, [net, net])
        n.add_gate("tap", GateType.OR, ["d2", "b"])
        epoch = n.mutation_epoch
        assert n.sweep_dangling() == 7
        assert list(n.gates) == list(before) and n.gates == before
        assert n.outputs == outputs
        assert "spare" in n
        assert n.mutation_epoch == epoch + 1
        assert n.sweep_dangling() == 0
        assert n.mutation_epoch == epoch + 1

    def test_sweep_keeps_inputs(self):
        n = Netlist()
        n.add_input("a")
        n.add_input("unused")
        n.add_gate("y", GateType.BUF, ["a"])
        n.add_output("y")
        n.sweep_dangling()
        assert "unused" in n


class TestCopyCompose:
    def test_copy_is_deep(self):
        n = build_simple()
        dup = n.copy()
        dup.gate("g1").fanins[0] = "b"
        assert n.gate("g1").fanins[0] == "a"

    def test_import_netlist(self):
        host = Netlist("host")
        host.add_input("p")
        host.add_input("q")
        sub = build_simple()
        rename = host.import_netlist(sub, "u0_", {"a": "p", "b": "q"})
        assert rename["g2"] == "u0_g2"
        assert host.gate("u0_g1").fanins == ["p", "q"]

    def test_import_unbound_input_raises(self):
        host = Netlist("host")
        host.add_input("p")
        with pytest.raises(NetlistError):
            host.import_netlist(build_simple(), "u_", {"a": "p"})

    def test_cone_extract(self):
        n = c17()
        cone = cone_extract(n, "G22")
        assert cone.outputs == ["G22"]
        assert "G19" not in cone
        cone.validate()

    def test_repr(self):
        assert "c17" in repr(c17())
