"""CI gates: the pass-registry static audit and the benchmark
overhead check, both runnable (and run) as tier-1 tests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_passes():
    spec = importlib.util.spec_from_file_location(
        "check_passes", REPO_ROOT / "scripts" / "check_passes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPassRegistryAudit:
    def test_registry_is_clean(self):
        assert load_check_passes().audit() == []

    def test_audit_catches_partial_declaration(self):
        from repro.core.stages import DesignStage
        from repro.flow import Pass, effects
        from repro.flow import passes as passes_mod
        from repro.flow.properties import SecurityProperty as P

        check_passes = load_check_passes()

        class Sloppy(Pass):
            """Declares only one property; the other five are implicit."""

            name = "sloppy-test-pass"

        Sloppy.stage = DesignStage.LOGIC_SYNTHESIS
        Sloppy.effects = effects(preserves=[P.MASKING])

        class Stageless(Pass):
            """No stage, no effects."""

            name = "stageless-test-pass"

        registry = passes_mod._REGISTRY
        registry["sloppy-test-pass"] = Sloppy
        registry["stageless-test-pass"] = Stageless
        try:
            problems = "\n".join(check_passes.audit())
        finally:
            del registry["sloppy-test-pass"]
            del registry["stageless-test-pass"]
        assert "sloppy-test-pass: undeclared effect" in problems
        assert "stageless-test-pass: missing stage" in problems
        assert "stageless-test-pass: missing effects" in problems
        assert check_passes.audit() == []   # cleanup verified

    def test_audit_enforces_layout_property_rules(self):
        from repro.core.stages import DesignStage
        from repro.flow import Pass, preserves_all
        from repro.flow import passes as passes_mod
        from repro.flow.properties import SecurityProperty as P

        check_passes = load_check_passes()

        class GeometryBlind(Pass):
            """Physical pass claiming zero layout-property effect."""

            name = "geometry-blind-test-pass"

        GeometryBlind.stage = DesignStage.PHYSICAL_SYNTHESIS
        GeometryBlind.effects = preserves_all()

        class LogicShield(Pass):
            """Logic-stage pass claiming to establish a layout metric."""

            name = "logic-shield-test-pass"

        LogicShield.stage = DesignStage.LOGIC_SYNTHESIS
        LogicShield.effects = preserves_all(
            establishes=[P.PROBING_EXPOSURE])

        registry = passes_mod._REGISTRY
        registry["geometry-blind-test-pass"] = GeometryBlind
        registry["logic-shield-test-pass"] = LogicShield
        try:
            problems = "\n".join(check_passes.audit())
        finally:
            del registry["geometry-blind-test-pass"]
            del registry["logic-shield-test-pass"]
        assert ("geometry-blind-test-pass: physical-synthesis pass "
                "declares no effect") in problems
        assert ("logic-shield-test-pass: establishes layout property "
                "probing-exposure outside") in problems
        assert check_passes.audit() == []

    def test_audit_enforces_closure_eco_contract(self):
        from repro.core.stages import DesignStage
        from repro.flow import Pass, effects
        from repro.flow import passes as passes_mod
        from repro.flow.properties import ALL_PROPERTIES
        from repro.flow.properties import SecurityProperty as P

        check_passes = load_check_passes()

        class RogueEco(Pass):
            """ECO that rewrites the netlist and closes nothing."""

            name = "rogue-eco-test-pass"
            is_closure_eco = True

        RogueEco.stage = DesignStage.LOGIC_SYNTHESIS
        RogueEco.effects = effects(
            invalidates=[P.FUNCTIONAL_EQUIVALENCE],
            preserves=[p for p in ALL_PROPERTIES
                       if p is not P.FUNCTIONAL_EQUIVALENCE])

        registry = passes_mod._REGISTRY
        registry["rogue-eco-test-pass"] = RogueEco
        try:
            problems = "\n".join(check_passes.audit())
        finally:
            del registry["rogue-eco-test-pass"]
        assert ("rogue-eco-test-pass: closure ECO must preserve "
                "functional equivalence") in problems
        assert ("rogue-eco-test-pass: closure ECO establishes no "
                "layout property") in problems
        assert ("rogue-eco-test-pass: closure ECO must belong to the "
                "physical-synthesis stage") in problems
        assert check_passes.audit() == []

    def test_registered_closure_ecos_satisfy_contract(self):
        from repro.core.stages import DesignStage
        from repro.flow import registered_passes
        from repro.flow.properties import SecurityProperty as P

        layout = {P.PROBING_EXPOSURE, P.FIA_EXPOSURE,
                  P.TROJAN_INSERTABILITY}
        ecos = {name: cls for name, cls in registered_passes().items()
                if getattr(cls, "is_closure_eco", False)}
        assert set(ecos) == {"bury-critical-nets", "shield-insertion",
                             "eco-filler"}
        for cls in ecos.values():
            assert cls.stage is DesignStage.PHYSICAL_SYNTHESIS
            assert P.FUNCTIONAL_EQUIVALENCE in cls.effects.preserves
            assert cls.effects.establishes & layout

    def test_audit_flags_provenance_written_outside_the_manager(
            self, tmp_path, monkeypatch):
        check_passes = load_check_passes()
        (tmp_path / "repro" / "flow").mkdir(parents=True)
        (tmp_path / "repro" / "flow" / "manager.py").write_text(
            "PassProvenance(pass_name='ok')\n")
        (tmp_path / "repro" / "eco.py").write_text(
            "from repro.flow import manager\n\n"
            "manager.PassProvenance(pass_name='x')\n")
        monkeypatch.setattr(check_passes, "SRC", tmp_path)
        problems = check_passes._stray_provenance_writers()
        assert problems == [
            "repro/eco.py:3: constructs PassProvenance — record passes "
            "through repro.flow.manager.run_pass"]

    def test_audit_checks_composition_stack_table(self, monkeypatch):
        from repro.core import designs
        from repro.service import campaigns

        check_passes = load_check_passes()
        monkeypatch.setitem(designs.STACK_PASSES, "typo", "parity-detcet")
        monkeypatch.setitem(campaigns.DEFAULT_STACKS, "typo-stack",
                            ["parity", "partiy"])
        assert check_passes.audit() == [
            "STACK_PASSES['typo']: names unregistered pass "
            "'parity-detcet'",
            "DEFAULT_STACKS['typo-stack']: stack name 'partiy' is not in "
            "STACK_PASSES"]

    def test_script_exits_zero_on_clean_registry(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" /
                                 "check_passes.py")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all declarations total" in proc.stdout


class TestBenchmarkOverheadGate:
    """Pipeline overhead vs the PR-1 baseline must stay bounded.

    ``--check --compare-only`` deterministically compares the latest
    committed BENCH_*.json against BENCH_1.json on the shared flow
    benchmarks (fig1 / fig2 / AES) — no timing runs in tier-1, so the
    gate cannot flake on machine load.
    """

    def test_committed_benchmarks_within_threshold(self):
        runs = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert (REPO_ROOT / "BENCH_1.json").exists(), \
            "baseline BENCH_1.json missing"
        if len(runs) < 2:
            import pytest
            pytest.skip("no post-refactor BENCH_*.json committed yet")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "benchmarks" /
                                 "run_bench.py"),
             "--check", "--compare-only"],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, \
            f"flow benchmarks regressed:\n{proc.stdout}{proc.stderr}"
