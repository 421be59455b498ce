"""Tests for the core secure-composition framework."""

import gc
import weakref

import pytest

from repro.core import (
    AttackTime,
    CompositionEngine,
    Design,
    DesignStage,
    EdaRole,
    STACK_PASSES,
    SecureFlow,
    StepFunctionMetric,
    THREAT_CATALOG,
    ThreatVector,
    build_stack,
    locking_candidates,
    masked_and_design,
    no_leaky_net_requirement,
    pareto_front,
    render_table,
    render_table_i,
    run_cell,
    sat_attack_resistance_steps,
    sweep_locking,
    table_i,
    tvla_requirement,
)
from repro.core.dse import Candidate, dominates
from repro.flow import (
    AnalysisCache,
    DuplicationDetectPass,
    ParityDetectPass,
    PassManager,
    ReassociationPass,
    SecurityProperty as P,
    WddlPass,
    classical_pipeline,
    default_checkers,
    netlist_design,
)
from repro.netlist import ppa_report, random_circuit


def run_classical(netlist, placement_iterations):
    """Fig. 1: the classical pipeline with no security goals."""
    return PassManager().run(netlist_design(netlist),
                             classical_pipeline(placement_iterations))


class TestThreatModels:
    def test_catalog_covers_all_vectors(self):
        vectors = {m.vector for m in THREAT_CATALOG.values()}
        assert vectors == set(ThreatVector)

    def test_models_fully_specified(self):
        for model in THREAT_CATALOG.values():
            assert model.assets and model.capabilities and model.goals
            assert model.attack_times and model.eda_roles

    def test_table_i_rows(self):
        rows = table_i()
        assert len(rows) == 4
        assert rows[0].vector is ThreatVector.SIDE_CHANNEL
        sca_row = rows[0]
        assert EdaRole.EVALUATION in sca_row.roles
        assert AttackTime.RUNTIME in sca_row.attack_times

    def test_table_i_render(self):
        text = render_table_i(table_i())
        assert "side-channel" in text
        assert "repro.sca.tvla" in text


class TestClassicalFlow:
    def test_runs_and_reports(self):
        result = run_classical(random_circuit(8, 60, 3, seed=1), 1000)
        assert ppa_report(result.design.netlist).area > 0
        stages = [p.stage for p in result.trace.passes]
        assert DesignStage.LOGIC_SYNTHESIS in stages
        assert DesignStage.TESTING in stages

    def test_no_security_checks_by_construction(self):
        result = run_classical(random_circuit(6, 40, 2, seed=2), 500)
        assert result.trace.all_rechecks() == []
        assert result.all_passed

    def test_render(self):
        result = run_classical(random_circuit(6, 40, 2, seed=3), 500)
        text = result.trace.render()
        assert "re-check" not in text  # the security gap
        assert "0 failing check(s)" in text


class TestMetrics:
    def test_step_function_flat_segments(self):
        steps = sat_attack_resistance_steps()
        assert steps.level(0) == 0
        assert steps.level(8) == 1
        assert steps.level(9) == steps.level(15)
        assert steps.marginal_gain(9, 3) == 0
        assert steps.marginal_gain(9, 10) == 1

    def test_step_level_names(self):
        steps = sat_attack_resistance_steps()
        assert steps.level_name(1) == "none"
        assert steps.level_name(8) == "stops-brute-force"

    def test_efficient_efforts_are_thresholds(self):
        steps = sat_attack_resistance_steps()
        assert steps.efficient_efforts() == [8, 16, 32, 64]


class TestComposition:
    @pytest.fixture(scope="class")
    def engine(self):
        return CompositionEngine(n_traces=3000, noise_sigma=0.25, seed=1)

    def test_baseline_masked_design_clean(self, engine):
        snapshot = engine.evaluate(masked_and_design())
        assert snapshot.tvla_max_t < 4.5
        assert snapshot.leaky_nets == 0

    def test_duplication_composes_safely(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [DuplicationDetectPass()])
        assert not report.harmful_effects
        final = report.steps[-1][1]
        assert final.fia_coverage == 1.0
        assert final.tvla_max_t < 4.5

    def test_parity_breaks_masking(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [ParityDetectPass()])
        harmful = {e.metric for e in report.harmful_effects}
        assert "tvla_max_t" in harmful
        final = report.steps[-1][1]
        assert final.tvla_max_t > 4.5       # leakage introduced
        assert final.fia_coverage == 1.0    # while FIA goal achieved

    def test_reassociation_flagged(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [ReassociationPass()])
        assert report.harmful_effects

    def test_wddl_composes_safely(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [WddlPass()])
        assert not any(e.metric == "tvla_max_t" and e.harmful
                       for e in report.cross_effects)

    def test_report_render(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [ParityDetectPass()])
        text = report.render()
        assert "!!" in text
        assert "baseline" in text

    @pytest.mark.parametrize("stack", sorted(STACK_PASSES))
    def test_compose_leaves_caller_netlist_unchanged(self, stack):
        design = masked_and_design()
        netlist = design.netlist
        before = (len(netlist.gates), netlist.mutation_epoch)
        engine = CompositionEngine(n_traces=200, n_fault_vectors=16)
        final, report = engine.compose(design, build_stack([stack]))
        assert report.steps[-1][0] == STACK_PASSES[stack]
        assert design.netlist is netlist
        assert (len(netlist.gates), netlist.mutation_epoch) == before
        assert final.netlist is not netlist


class TestDetectionPassEffects:
    """The error-detection passes' declared effects, measured on the
    masked AND gadget by the manager's own re-checks."""

    def rechecks_after(self, p):
        result = PassManager(default_checkers(n_traces=2000)).run(
            masked_and_design(), [p], goals=[P.FAULT_DETECTION],
            assume=[P.MASKING, P.TVLA_BOUND])
        assert all(r.passed for r in result.trace.baseline)
        entry, = result.trace.passes
        return {r.key: (r.reason, r.passed) for r in entry.rechecks}

    @pytest.mark.parametrize("cls", [DuplicationDetectPass,
                                     ParityDetectPass])
    def test_fault_detection_established(self, cls):
        rechecks = self.rechecks_after(cls())
        assert rechecks["fault-detection"] == ("establishes", True)

    def test_parity_invalidates_masking_and_tvla_bound(self):
        rechecks = self.rechecks_after(ParityDetectPass())
        assert rechecks["masking"] == ("invalidates", False)
        assert rechecks["tvla-bound"] == ("invalidates", False)


class TestSecureFlow:
    def test_catches_parity_break(self):
        flow = SecureFlow(
            [tvla_requirement(n_traces=2500)],
            transforms=[ParityDetectPass()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert not result.all_passed
        assert any("after parity-detect" in f for f in result.failures)

    def test_passes_safe_composition(self):
        flow = SecureFlow(
            [tvla_requirement(n_traces=2500)],
            transforms=[DuplicationDetectPass()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert result.all_passed

    def test_leaky_net_requirement_names_wire(self):
        flow = SecureFlow(
            [no_leaky_net_requirement(n_traces=2500)],
            transforms=[ParityDetectPass()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert any("leaking nets" in f for f in result.failures)

    def test_result_holds_no_analysis_cache(self, monkeypatch):
        # The run's cache holds every TVLA bit matrix it simulated; a
        # caller keeping the result must not keep those alive.
        caches = []
        init = AnalysisCache.__init__

        def spy(self):
            init(self)
            caches.append(weakref.ref(self))

        monkeypatch.setattr(AnalysisCache, "__init__", spy)
        flow = SecureFlow(
            [tvla_requirement(n_traces=2500)],
            transforms=[ParityDetectPass()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        gc.collect()
        assert caches
        assert all(ref() is None for ref in caches)
        assert result.trace.all_rechecks()


class TestDse:
    def test_dominates(self):
        a = Candidate("a", objectives={"sec": 2.0, "area": 10.0})
        b = Candidate("b", objectives={"sec": 1.0, "area": 12.0})
        assert dominates(a, b, maximize=["sec"], minimize=["area"])
        assert not dominates(b, a, maximize=["sec"], minimize=["area"])

    def test_pareto_front(self):
        candidates = [
            Candidate("cheap", objectives={"sec": 0.0, "area": 5.0}),
            Candidate("mid", objectives={"sec": 1.0, "area": 10.0}),
            Candidate("bad", objectives={"sec": 0.0, "area": 20.0}),
            Candidate("strong", objectives={"sec": 2.0, "area": 30.0}),
        ]
        front = pareto_front(candidates, maximize=["sec"],
                             minimize=["area"])
        names = {c.name for c in front}
        assert names == {"cheap", "mid", "strong"}

    def test_locking_sweep_monotone_area(self):
        points = sweep_locking(random_circuit(7, 50, 3, seed=4),
                               [0, 4, 8], seed=1)
        areas = [p.area for p in points]
        assert areas == sorted(areas)

    def test_locking_candidates_step_levels(self):
        points = sweep_locking(random_circuit(7, 50, 3, seed=4),
                               [0, 8], seed=1)
        candidates = locking_candidates(points)
        levels = [c.objectives["security_level"] for c in candidates]
        assert levels[0] <= levels[-1]


class TestTable2:
    def test_every_cell_has_demo(self):
        from repro.core import all_demos
        demos = all_demos()
        cells = {(d.stage, d.threat) for d in demos}
        assert len(cells) == 24  # full 6x4 grid

    #: The metric each selected cell reports.
    SELECTED = {
        (DesignStage.LOGIC_SYNTHESIS, ThreatVector.IP_PIRACY):
            "wrong_key_error_rate",
        (DesignStage.TESTING, ThreatVector.SIDE_CHANNEL):
            "readout_blocked_test_preserved",
        (DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.TROJAN):
            "trojan_violates_carried_proof",
        (DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.FAULT_INJECTION):
            "dfa_blocked",
    }

    @pytest.mark.parametrize("stage,threat", list(SELECTED))
    def test_selected_cells_run(self, stage, threat):
        result = run_cell(stage, threat)
        assert result.stage is stage and result.threat is threat
        metric = self.SELECTED[stage, threat]
        assert result.metric == metric
        if metric == "wrong_key_error_rate":
            # A wrong key corrupts some outputs, never more than all.
            assert 0.0 < result.value <= 1.0
        else:
            # A pass/fail flag: the countermeasure or proof holds.
            assert result.value == 1.0
        assert result.detail

    def test_render(self):
        results = [run_cell(DesignStage.TESTING,
                            ThreatVector.SIDE_CHANNEL)]
        text = render_table(results)
        assert "secure scan" in text
