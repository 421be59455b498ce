"""Tests for the core secure-composition framework."""

import pytest

from repro.core import (
    AttackTime,
    CompositionEngine,
    Design,
    DesignStage,
    EdaRole,
    MetricRegistry,
    SecureFlow,
    SecurityMetric,
    StepFunctionMetric,
    THREAT_CATALOG,
    ThreatVector,
    Direction,
    duplication_countermeasure,
    locking_candidates,
    masked_and_design,
    masking_order_steps,
    no_leaky_net_requirement,
    pareto_front,
    parity_countermeasure,
    render_table,
    render_table_i,
    run_cell,
    sat_attack_resistance_steps,
    sweep_locking,
    table_i,
    timing_reassociation_step,
    tvla_requirement,
    wddl_countermeasure,
)
from repro.core.dse import Candidate, dominates
from repro.flow import PassManager, classical_pipeline, netlist_design
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
    def test_registry(self):
        registry = MetricRegistry()
        metric = SecurityMetric(
            "m1", ThreatVector.SIDE_CHANNEL,
            Direction.LOWER_IS_BETTER, lambda d: 1.0, target=4.5)
        registry.register(metric)
        assert "m1" in registry
        assert registry.for_threat(ThreatVector.SIDE_CHANNEL) == [metric]
        with pytest.raises(ValueError):
            registry.register(metric)

    def test_metric_result_satisfaction(self):
        metric = SecurityMetric(
            "tvla", ThreatVector.SIDE_CHANNEL,
            Direction.LOWER_IS_BETTER, lambda d: d, target=4.5)
        assert metric.evaluate(2.0).satisfied
        assert not metric.evaluate(9.0).satisfied

    def test_step_function_flat_segments(self):
        steps = sat_attack_resistance_steps()
        assert steps.level(0) == 0
        assert steps.level(8) == 1
        assert steps.level(9) == steps.level(15)
        assert steps.marginal_gain(9, 3) == 0
        assert steps.marginal_gain(9, 10) == 1

    def test_step_level_names(self):
        steps = masking_order_steps()
        assert steps.level_name(1) == "unprotected"
        assert steps.level_name(2) == "1st-order"

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
                                   [duplication_countermeasure()])
        assert not report.harmful_effects
        final = report.steps[-1][1]
        assert final.fia_coverage == 1.0
        assert final.tvla_max_t < 4.5

    def test_parity_breaks_masking(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [parity_countermeasure()])
        harmful = {e.metric for e in report.harmful_effects}
        assert "tvla_max_t" in harmful
        final = report.steps[-1][1]
        assert final.tvla_max_t > 4.5       # leakage introduced
        assert final.fia_coverage == 1.0    # while FIA goal achieved

    def test_reassociation_flagged(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [timing_reassociation_step()])
        assert report.harmful_effects

    def test_wddl_composes_safely(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [wddl_countermeasure()])
        assert not any(e.metric == "tvla_max_t" and e.harmful
                       for e in report.cross_effects)

    def test_report_render(self, engine):
        _, report = engine.compose(masked_and_design(),
                                   [parity_countermeasure()])
        text = report.render()
        assert "!!" in text
        assert "baseline" in text


class TestSecureFlow:
    def test_catches_parity_break(self):
        flow = SecureFlow(
            [tvla_requirement(n_traces=2500)],
            transforms=[parity_countermeasure()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert not result.all_passed
        assert any("after parity-detect" in f for f in result.failures)

    def test_passes_safe_composition(self):
        flow = SecureFlow(
            [tvla_requirement(n_traces=2500)],
            transforms=[duplication_countermeasure()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert result.all_passed

    def test_leaky_net_requirement_names_wire(self):
        flow = SecureFlow(
            [no_leaky_net_requirement(n_traces=2500)],
            transforms=[parity_countermeasure()],
            placement_iterations=500)
        result = flow.run(masked_and_design())
        assert any("leaking nets" in f for f in result.failures)


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

    @pytest.mark.parametrize("stage,threat", [
        (DesignStage.LOGIC_SYNTHESIS, ThreatVector.IP_PIRACY),
        (DesignStage.TESTING, ThreatVector.SIDE_CHANNEL),
        (DesignStage.FUNCTIONAL_VALIDATION, ThreatVector.TROJAN),
        (DesignStage.HIGH_LEVEL_SYNTHESIS, ThreatVector.FAULT_INJECTION),
    ])
    def test_selected_cells_run(self, stage, threat):
        result = run_cell(stage, threat)
        assert result.stage is stage and result.threat is threat
        assert result.value >= 0.0 or True
        assert result.detail

    def test_render(self):
        results = [run_cell(DesignStage.TESTING,
                            ThreatVector.SIDE_CHANNEL)]
        text = render_table(results)
        assert "secure scan" in text
