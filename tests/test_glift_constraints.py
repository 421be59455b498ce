"""Tests for the GLIFT no-flow proof and for security requirements
checked on a design as it stands (``compile_and_check``)."""

import pytest

from repro.core import (
    SecureFlow,
    compile_and_check,
    fault_detection_requirement,
    masked_and_design,
    no_flow_requirement,
    no_leaky_net_requirement,
    tvla_requirement,
)
from repro.core.composition import Design
from repro.flow import (
    DuplicationDetectPass,
    ParityDetectPass,
    PassManager,
    fault_detection_check,
    masking_check,
    no_flow_check,
    tvla_check,
)
from repro.formal import prove_no_flow
from repro.netlist import GateType, Netlist, c17


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


def gated_leak_design():
    return Design(
        name="dbg",
        netlist=gated_leak_circuit(),
        tvla_fixed=lambda rng: {"key": 1, "data": 1, "debug_en": 0},
        tvla_random=lambda rng: {
            "key": rng.randint(0, 1), "data": rng.randint(0, 1),
            "debug_en": 0},
    )


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
    """Requirements measured once on a design as it stands."""

    def test_safe_stack_signs_off(self):
        design = PassManager().run(masked_and_design(),
                                   [DuplicationDetectPass()]).design
        result = compile_and_check(design, [
            tvla_requirement(n_traces=2000),
            no_leaky_net_requirement(n_traces=2000),
            fault_detection_requirement(),
        ])
        assert result.all_passed
        assert [r.key for r in result.trace.final] == [
            "tvla-first-order", "no-leaky-wire", "fault-detection"]

    def test_unsafe_stack_blocked(self):
        design = PassManager().run(masked_and_design(),
                                   [ParityDetectPass()]).design
        result = compile_and_check(design, [
            tvla_requirement(n_traces=2000),
            no_leaky_net_requirement(n_traces=2000),
        ])
        assert not result.all_passed
        assert [r.key for r in result.trace.final if not r.passed] == [
            "tvla-first-order", "no-leaky-wire"]
        assert "=== FAIL: 2 failing check(s)" in result.trace.render()

    def test_detection_requires_alarm(self):
        design = masked_and_design()   # no alarm yet
        result = compile_and_check(design, [fault_detection_requirement()])
        assert not result.all_passed
        assert "no alarm" in result.trace.final[0].message

    def test_noflow_constraint(self):
        design = gated_leak_design()
        good = compile_and_check(design, [
            no_flow_requirement("key", "debug_out", when={"debug_en": 0}),
        ])
        assert good.all_passed
        bad = compile_and_check(design, [
            no_flow_requirement("key", "debug_out"),
        ])
        assert not bad.all_passed

    def test_matches_direct_checks(self):
        """Oracle: each final re-check is the shared checker's verdict,
        called directly on the same design (the two leakage checks
        share one trace set inside the run)."""
        for countermeasure in (DuplicationDetectPass(), ParityDetectPass()):
            design = PassManager().run(masked_and_design(),
                                       [countermeasure]).design
            result = compile_and_check(design, [
                tvla_requirement(n_traces=1500, seed=3),
                no_leaky_net_requirement(n_traces=1500, seed=3),
                fault_detection_requirement(n_vectors=32, seed=7),
                no_flow_requirement("a0", design.alarm),
            ])
            direct = [
                tvla_check(design, n_traces=1500, seed=3),
                masking_check(design, n_traces=1500, seed=3),
                fault_detection_check(design, n_vectors=32, seed=7),
                no_flow_check(design, "a0", design.alarm),
            ]
            assert [(r.passed, r.value, r.message)
                    for r in result.trace.final] == \
                [(c.passed, c.value, c.message) for c in direct]
            assert not result.trace.baseline and not result.trace.passes


class TestRequirementNames:
    """The pass manager tracks a requirement by its name."""

    def test_duplicate_name_is_rejected(self):
        twins = [tvla_requirement(n_traces=400),
                 tvla_requirement(n_traces=800, seed=5)]
        with pytest.raises(ValueError, match="tvla-first-order"):
            SecureFlow(twins, placement_iterations=200) \
                .run(masked_and_design())
        with pytest.raises(ValueError, match="tvla-first-order"):
            compile_and_check(masked_and_design(), twins)

    def test_no_flow_names_carry_their_ports(self):
        design = gated_leak_design()
        result = compile_and_check(design, [
            no_flow_requirement("key", "debug_out", when={"debug_en": 0}),
            no_flow_requirement("key", "debug_out"),
            no_flow_requirement("data", "ct"),
        ])
        assert [r.passed for r in result.trace.final] == \
            [True, False, False]
        assert len({r.key for r in result.trace.final}) == 3
