"""Tests for GLIFT and the security-constraint compiler."""

import pytest

from repro.core import (
    CompilationReport,
    DetectionConstraint,
    LeakageConstraint,
    MaskingConstraint,
    NoFlowConstraint,
    compile_and_check,
    masked_and_design,
)
from repro.flow import DuplicationDetectPass, ParityDetectPass, PassManager
from repro.formal import glift_simulate, prove_no_flow
from repro.netlist import GateType, Netlist, c17, random_circuit


def gated_leak_circuit():
    n = Netlist("dbg")
    n.add_input("key")
    n.add_input("data")
    n.add_input("debug_en")
    n.add_gate("mix", GateType.XOR, ["key", "data"])
    n.add_gate("dbg_mux", GateType.MUX, ["debug_en", "data", "mix"])
    n.add_gate("debug_out", GateType.BUF, ["dbg_mux"])
    n.add_gate("ct", GateType.BUF, ["mix"])
    n.add_output("debug_out")
    n.add_output("ct")
    return n


class TestGliftDynamic:
    def test_controlling_value_blocks_taint(self):
        n = Netlist()
        n.add_input("s")
        n.add_input("g")
        n.add_gate("y", GateType.AND, ["s", "g"])
        n.add_output("y")
        _, taints = glift_simulate(n, {"s": 1, "g": 0}, ["s"])
        assert taints["y"] == 0
        _, taints = glift_simulate(n, {"s": 1, "g": 1}, ["s"])
        assert taints["y"] == 1

    def test_or_controlling_one(self):
        n = Netlist()
        n.add_input("s")
        n.add_input("g")
        n.add_gate("y", GateType.OR, ["s", "g"])
        n.add_output("y")
        _, taints = glift_simulate(n, {"s": 0, "g": 1}, ["s"])
        assert taints["y"] == 0  # the 1 dominates

    def test_xor_always_propagates(self):
        n = Netlist()
        n.add_input("s")
        n.add_input("g")
        n.add_gate("y", GateType.XOR, ["s", "g"])
        n.add_output("y")
        for g in (0, 1):
            _, taints = glift_simulate(n, {"s": 0, "g": g}, ["s"])
            assert taints["y"] == 1

    def test_two_tainted_inputs_can_cancel(self):
        # y = AND(s1, s2) with s1=0, s2=0: flipping either alone or
        # both can change y -> tainted.
        n = Netlist()
        n.add_input("s1")
        n.add_input("s2")
        n.add_gate("y", GateType.AND, ["s1", "s2"])
        n.add_output("y")
        _, taints = glift_simulate(n, {"s1": 0, "s2": 0}, ["s1", "s2"])
        assert taints["y"] == 1

    def test_untainted_run_clean(self):
        n = c17()
        _, taints = glift_simulate(n, {k: 1 for k in n.inputs}, [])
        assert all(t == 0 for t in taints.values())


class TestNoFlowProof:
    def test_gated_isolation(self):
        n = gated_leak_circuit()
        assert prove_no_flow(n, "key", "debug_out",
                             fixed={"debug_en": 0}).isolated
        result = prove_no_flow(n, "key", "debug_out",
                               fixed={"debug_en": 1})
        assert result.flows
        assert result.witness is not None

    def test_nonexistent_source_rejected(self):
        with pytest.raises(ValueError):
            prove_no_flow(c17(), "nope", "G22")

    def test_dead_input_isolated(self):
        n = Netlist()
        n.add_input("s")
        n.add_input("a")
        n.add_gate("y", GateType.BUF, ["a"])
        n.add_output("y")
        assert prove_no_flow(n, "s", "y").isolated


class TestConstraintCompiler:
    def test_safe_stack_signs_off(self):
        design = PassManager().run(masked_and_design(),
                                   [DuplicationDetectPass()]).design
        report = compile_and_check(design, [
            LeakageConstraint(n_traces=2000),
            MaskingConstraint(n_traces=2000),
            DetectionConstraint(),
        ])
        assert report.satisfied
        assert "signoff clean" in report.render()

    def test_unsafe_stack_blocked(self):
        design = PassManager().run(masked_and_design(),
                                   [ParityDetectPass()]).design
        report = compile_and_check(design, [
            LeakageConstraint(n_traces=2000),
            MaskingConstraint(n_traces=2000),
        ])
        assert not report.satisfied
        text = report.render()
        assert "VIOLATED" in text and "signoff BLOCKED" in text

    def test_detection_requires_alarm(self):
        design = masked_and_design()   # no alarm yet
        report = compile_and_check(design, [DetectionConstraint()])
        assert not report.satisfied
        assert "no alarm" in report.obligations[0].evidence

    def test_noflow_constraint(self):
        from repro.core.composition import Design
        import random

        n = gated_leak_circuit()
        design = Design(
            name="dbg",
            netlist=n,
            tvla_fixed=lambda rng: {"key": 1, "data": 1, "debug_en": 0},
            tvla_random=lambda rng: {
                "key": rng.randint(0, 1), "data": rng.randint(0, 1),
                "debug_en": 0},
        )
        good = compile_and_check(design, [
            NoFlowConstraint("key", "debug_out", when={"debug_en": 0}),
        ])
        assert good.satisfied
        bad = compile_and_check(design, [
            NoFlowConstraint("key", "debug_out"),
        ])
        assert not bad.satisfied
