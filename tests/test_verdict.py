"""One leakage verdict for the flow, SecureFlow, compiled requirements,
composition and the risk register.

``tvla_check`` and ``masking_check`` (``repro.flow.properties``) are the
only TVLA verdict.  A check that crosses the threshold on its first
trace set draws a second one and reports a leak only where both sets
cross at the same sample (TVLA) or net (per-net test) — standard TVLA
practice.  These tests pin:

* the composition false negative a one-set verdict gives where the
  masked baseline's first set crosses by chance, a seed range fixed in
  advance, and the risk register's grading;
* oracles: the first set's statistics equal ``tvla(leakage_traces(...))``
  and the per-net loop on the design's columns unpacked trace by trace;
* cost: one simulation per TVLA class and trace set, shared by both
  checks, and none on a re-check of an unmutated netlist;
* the draw contract: a design draws each class as packed columns from
  its own seeded RNG, one column per input, for every registered pass
  that returns a design.
"""

import random

import numpy as np
import pytest

from repro.core import (
    CompositionEngine,
    SecureFlow,
    Severity,
    ThreatVector,
    compile_and_check,
    masked_and_design,
    no_leaky_net_requirement,
    register_from_composition,
    tvla_requirement,
)
from repro.crypto import present_sbox_netlist
from repro.flow import (
    AnalysisCache,
    MaskInsertionPass,
    ParityDetectPass,
    PassManager,
    SecurePlacementPass,
    SecurityProperty as P,
    create_pass,
    default_checkers,
    masking_check,
    masking_checker,
    netlist_design,
    registered_passes,
    tvla_check,
)
from repro.netlist import (
    pack_patterns,
    ripple_carry_adder,
    simulate_reference,
)
from repro.sca import (
    TVLA_THRESHOLD,
    assessed_nets,
    leakage_traces,
    locate_leaking_nets,
    net_t_statistics,
    tvla,
    welch_t,
)
from repro.sca import power_model
from repro.sca.power_model import net_bit_matrix

#: The smallest seed (scanning up from 0) whose first set alone reads
#: the masked baseline above 4.5, at 5.03 with 2000 traces per class,
#: so a one-set verdict sees no pass-to-fail flip on masked-and+parity.
#: A second set does not confirm it.
FALSE_POSITIVE_SEED = 68517

#: Oracle seeds: small and large ones fixed in advance, plus
#: FALSE_POSITIVE_SEED, where the second set decides the masked verdict.
ORACLE_SEEDS = [0, 7, 403413014, FALSE_POSITIVE_SEED]

#: Fixed in advance; not chosen by outcome.
SWEEP_SEEDS = range(20)


def parity_design():
    return PassManager().run(masked_and_design(),
                             [ParityDetectPass()]).design


def unpack(columns, n):
    """Per-trace dicts of packed columns: trace ``p`` reads bit ``p``."""
    return [{name: (word >> p) & 1 for name, word in columns.items()}
            for p in range(n)]


def reference_per_net_loop(netlist, fixed_stimuli, random_stimuli,
                           noise_sigma=0.01, seed=0):
    """The per-net loop ``locate_leaking_nets`` ran before it was
    vectorized, kept verbatim as the oracle: ``(net, t, level)``, most
    leaky first.  Net values come from the interpreted reference
    simulator over each class's packed columns."""
    def per_net_values(stimuli):
        n = len(stimuli)
        values = simulate_reference(
            netlist, pack_patterns(stimuli, netlist.inputs), width=n)
        return {net: np.array([(word >> p) & 1 for p in range(n)],
                              dtype=np.int64)
                for net, word in values.items()}

    rng = np.random.default_rng(seed)
    fixed_bits = per_net_values(fixed_stimuli)
    random_bits = per_net_values(random_stimuli)
    levels = netlist.levels()
    inputs = set(netlist.inputs)
    results = []
    for net in netlist.gates:
        if net in inputs:
            continue
        a = fixed_bits[net].astype(float)[:, None]
        b = random_bits[net].astype(float)[:, None]
        a = a + rng.normal(0.0, noise_sigma, a.shape)
        b = b + rng.normal(0.0, noise_sigma, b.shape)
        t = float(welch_t(a, b)[0])
        results.append((net, t, levels[net]))
    results.sort(key=lambda r: -abs(r[1]))
    return results


def class_stimuli(design, n_traces, fixed, seed):
    """One TVLA class of ``design`` unpacked into per-trace dicts."""
    return unpack(design.make_stimuli(n_traces, fixed, seed), n_traces)


def reference_first_set_t(design, n_traces, noise_sigma, seed):
    """Whole-trace TVLA of one set: the design's columns unpacked trace
    by trace and run through ``leakage_traces``."""
    fixed = class_stimuli(design, n_traces, True, seed)
    rand = class_stimuli(design, n_traces, False, seed + 1)
    return tvla(leakage_traces(design.netlist, fixed,
                               noise_sigma=noise_sigma, seed=seed),
                leakage_traces(design.netlist, rand,
                               noise_sigma=noise_sigma, seed=seed + 1))


@pytest.fixture
def simulations(monkeypatch):
    """Counts the kernel's simulations of a trace set, by trace count."""
    calls = []
    real = power_model.family_net_bit_matrix

    def counted(family, columns, n_traces):
        calls.append(n_traces)
        return real(family, columns, n_traces)

    monkeypatch.setattr(power_model, "family_net_bit_matrix", counted)
    return calls


class TestCompositionVerdict:
    def test_false_positive_seed_row_is_flagged(self):
        row = CompositionEngine(seed=FALSE_POSITIVE_SEED, n_traces=2000) \
            .evaluate_stack_row("masked-and", ["parity"])
        # The first set alone crosses 4.5 on the masked baseline ...
        assert row["baseline"]["tvla_max_t"] > TVLA_THRESHOLD
        # ... but a second set does not confirm it, so parity's leak is
        # a pass-to-leak flip.
        assert row["baseline"]["tvla_leaks"] == 0.0
        assert row["baseline"]["leaky_nets"] == 0.0
        assert row["final"]["tvla_leaks"] == 1.0
        assert row["flagged"]
        assert "masking broken by composition" in row["notes"]

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_seed_sweep_parity_flagged_baseline_clean(self, seed):
        row = CompositionEngine(seed=seed, n_traces=2000) \
            .evaluate_stack_row("masked-and", ["parity"])
        assert row["flagged"]
        assert row["final"]["tvla_leaks"] == 1.0
        assert row["baseline"]["tvla_leaks"] == 0.0
        assert row["baseline"]["leaky_nets"] == 0.0

    def test_seed_one_keeps_first_set_values(self):
        row = CompositionEngine(seed=1, n_traces=2000) \
            .evaluate_stack_row("masked-and", ["parity"])
        assert round(row["baseline"]["tvla_max_t"], 4) == 3.2376
        assert round(row["final"]["tvla_max_t"], 2) == 48.46
        assert row["flagged"]

    def test_more_confirmed_leaking_nets_are_flagged(self):
        _, report = CompositionEngine(seed=1, n_traces=2000).compose(
            masked_and_design(), [ParityDetectPass()])
        final = report.steps[-1][1]
        assert final.leaky_nets > 0
        assert any(e.metric == "leaky_nets" and e.harmful
                   for e in report.cross_effects)


class TestRiskRegisterVerdict:
    def test_unconfirmed_baseline_is_not_critical(self):
        engine = CompositionEngine(seed=FALSE_POSITIVE_SEED, n_traces=2000)
        _, report = engine.compose(masked_and_design(), [])
        assert report.steps[0][1].tvla_max_t > TVLA_THRESHOLD
        register = register_from_composition("masked-and", report)
        assert register.worst is not Severity.CRITICAL
        entry, = [e for e in register.by_threat(ThreatVector.SIDE_CHANNEL)
                  if e.title == "first-order leakage assessment"]
        assert entry.severity is Severity.INFO
        assert "no confirmed leak" in entry.measured

    def test_confirmed_leak_is_critical(self):
        engine = CompositionEngine(seed=FALSE_POSITIVE_SEED, n_traces=2000)
        _, report = engine.compose(masked_and_design(),
                                   [ParityDetectPass()])
        register = register_from_composition("masked-and", report)
        entry, = [e for e in register.by_threat(ThreatVector.SIDE_CHANNEL)
                  if e.title == "first-order leakage assessment"]
        assert entry.severity is Severity.CRITICAL


class TestOracles:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("make", [masked_and_design, parity_design])
    def test_first_set_max_t_is_tvla_on_leakage_traces(self, make, seed):
        design = make()
        check = tvla_check(design, n_traces=1500, noise_sigma=0.25,
                           seed=seed)
        assert check.value == reference_first_set_t(
            design, 1500, 0.25, seed).max_abs_t

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("make", [masked_and_design, parity_design])
    def test_per_net_t_is_the_per_net_loop(self, make, seed):
        design = make()
        fixed = class_stimuli(design, 1500, True, seed)
        rand = class_stimuli(design, 1500, False, seed + 1)
        got = [(e.net, e.t_statistic, e.level) for e in
               locate_leaking_nets(design.netlist, fixed, rand, seed=seed)]
        assert got == reference_per_net_loop(design.netlist, fixed, rand,
                                              seed=seed)

    def test_per_net_t_follows_assessed_nets_order(self):
        design = parity_design()
        fixed = design.make_stimuli(800, True, 3)
        rand = design.make_stimuli(800, False, 4)
        t = net_t_statistics(design.netlist,
                             net_bit_matrix(design.netlist, fixed, 800),
                             net_bit_matrix(design.netlist, rand, 800),
                             seed=3)
        reference = {net: value for net, value, _ in
                     reference_per_net_loop(design.netlist,
                                            unpack(fixed, 800),
                                            unpack(rand, 800), seed=3)}
        assert list(t) == [reference[net]
                           for net in assessed_nets(design.netlist)]

    @pytest.mark.parametrize("seed", [1, 403413014, FALSE_POSITIVE_SEED])
    def test_verdicts_confirm_on_the_second_set(self, seed):
        # Set k draws stimulus seeds seed+2k / seed+2k+1; a point leaks
        # when both sets cross the threshold there.
        for design in (masked_and_design(), parity_design()):
            first = reference_first_set_t(design, 2000, 0.25, seed)
            second = reference_first_set_t(design, 2000, 0.25, seed + 2)
            both = ((np.abs(first.t_statistics) > TVLA_THRESHOLD)
                    & (np.abs(second.t_statistics) > TVLA_THRESHOLD))
            assert tvla_check(design, n_traces=2000, seed=seed).passed \
                == (not both.any())

            nets = {}
            for k in (0, 1):
                fixed = class_stimuli(design, 2000, True, seed + 2 * k)
                rand = class_stimuli(design, 2000, False, seed + 2 * k + 1)
                nets[k] = {net for net, t, _ in reference_per_net_loop(
                    design.netlist, fixed, rand, seed=seed + 2 * k)
                    if abs(t) > TVLA_THRESHOLD}
            check = masking_check(design, n_traces=2000, seed=seed)
            assert check.value == len(nets[0] & nets[1])


class TestSimulationCost:
    def test_masked_and_costs_one_set(self, simulations):
        design, cache = masked_and_design(), AnalysisCache()
        assert tvla_check(design, n_traces=2000, seed=1, cache=cache).passed
        assert masking_check(design, n_traces=2000, seed=1,
                             cache=cache).passed
        assert simulations == [2000, 2000]

    def test_parity_costs_two_sets(self, simulations):
        design, cache = parity_design(), AnalysisCache()
        assert not tvla_check(design, n_traces=2000, seed=1,
                              cache=cache).passed
        assert not masking_check(design, n_traces=2000, seed=1,
                                 cache=cache).passed
        assert simulations == [2000] * 4

    def test_default_checkers_share_one_simulation(self, simulations):
        pm = PassManager(checkers=default_checkers(n_traces=3000), seed=0)
        result = pm.run(masked_and_design(), [],
                        assume=[P.TVLA_BOUND, P.MASKING])
        assert result.all_passed
        assert simulations == [3000, 3000]

    def test_masking_recheck_on_unmutated_netlist_is_a_hit(
            self, simulations):
        pm = PassManager(checkers={P.MASKING: masking_checker(1200)},
                         seed=0)
        result = pm.run(masked_and_design(),
                        [SecurePlacementPass(iterations=200)],
                        goals=[P.MASKING], assume=[P.MASKING])
        assert result.trace.rechecked_properties("placement") == ["masking"]
        assert result.all_passed
        assert simulations == [1200, 1200]    # baseline only
        placement = result.trace.passes[0]
        assert (placement.cache_hits, placement.cache_misses) == (1, 0)


class TestStimuliArePure:
    """A trace set is a function of ``(n, fixed, seed)``: a design draws
    each class as packed columns, and a masked design's share draws
    come from the draw's own seeded RNG, not from state the design
    keeps between draws."""

    @pytest.fixture(scope="class")
    def masked_present(self):
        return PassManager(seed=0).run(
            netlist_design(present_sbox_netlist()),
            [MaskInsertionPass()]).design

    def test_equal_calls_give_equal_stimuli(self, masked_present):
        first = masked_present.make_stimuli(50, False, 5)
        masked_present.make_stimuli(100, True, 9)
        assert masked_present.make_stimuli(50, False, 5) == first
        assert masked_present.make_stimuli(50, True, 5) != first
        assert all(isinstance(word, int) for word in first.values())

    def test_tvla_check_ignores_earlier_draws(self, masked_present):
        fresh = tvla_check(masked_present, n_traces=500, seed=5).value
        masked_present.make_stimuli(100, True, 9)
        assert tvla_check(masked_present, n_traces=500, seed=5).value \
            == fresh


#: Traces per class in the draw-contract checks; not a multiple of 8.
N_DRAW = 333
ONES = (1 << N_DRAW) - 1


def base_designs():
    return {"masked-and": masked_and_design(),
            "present": netlist_design(present_sbox_netlist()),
            "rca4": netlist_design(ripple_carry_adder(4))}


def pass_designs(name):
    """The designs pass ``name`` returns on each base design.  Passes
    that need a prior placement or route, flops or camouflage
    candidates raise ``ValueError`` on these bases; in-place passes
    keep the base design."""
    out = []
    for design in base_designs().values():
        try:
            result = PassManager(seed=0).run(design, [create_pass(name)])
        except ValueError:
            continue
        if result.design is not design:
            out.append(result.design)
    return out


#: Every registered pass that returns a design on some base.
DESIGN_PASSES = [name for name in sorted(registered_passes())
                 if pass_designs(name)]


class TestDrawContract:
    """Every design a registered pass returns draws one ``N_DRAW``-bit
    column per input of its netlist, and its adapter keeps each trace's
    plain value: shares XOR to it, WDDL rails carry it and its
    complement, key inputs are constant."""

    def test_every_base_and_design_pass_is_covered(self):
        assert {"mask-insertion", "wddl-hiding", "duplication-detect",
                "parity-detect", "logic-locking", "sfll-lock"} \
            <= set(DESIGN_PASSES)

    @pytest.mark.parametrize("name", DESIGN_PASSES)
    def test_columns_drive_exactly_the_inputs(self, name):
        for design in pass_designs(name):
            for fixed in (True, False):
                columns = design.make_stimuli(N_DRAW, fixed, 5)
                assert sorted(columns) == sorted(design.netlist.inputs)
                assert all(0 <= word <= ONES for word in columns.values())

    @pytest.mark.parametrize("name", DESIGN_PASSES)
    def test_adapters_keep_each_trace_plain(self, name):
        for design in pass_designs(name):
            for fixed in (True, False):
                # make_stimuli runs the class generator first, then the
                # adapter, on one random.Random(seed).
                generator = design.tvla_fixed if fixed \
                    else design.tvla_random
                plain = generator(N_DRAW, random.Random(5))
                columns = design.make_stimuli(N_DRAW, fixed, 5)
                derived = set()
                for x, word in plain.items():
                    if f"{x}_s0" in columns:
                        assert columns[f"{x}_s0"] ^ columns[f"{x}_s1"] \
                            == word
                        derived |= {f"{x}_s0", f"{x}_s1"}
                    elif f"{x}_t" in columns:
                        assert columns[f"{x}_t"] == word
                        assert columns[f"{x}_f"] == word ^ ONES
                        derived |= {f"{x}_t", f"{x}_f"}
                    else:
                        assert columns[x] == word
                        derived.add(x)
                for x in set(columns) - derived:
                    if not x.startswith("rnd"):   # key inputs
                        assert columns[x] in (0, ONES), x

    def test_fixed_classes_of_the_bases_are_constant(self):
        for base, design in base_designs().items():
            columns = design.make_stimuli(N_DRAW, True, 5)
            if base == "masked-and":
                for secret in "ab":
                    assert columns[f"{secret}0"] ^ columns[f"{secret}1"] \
                        ^ columns[f"{secret}2"] == ONES
            else:
                assert set(columns.values()) <= {0, ONES}

    @pytest.mark.parametrize("name", DESIGN_PASSES)
    def test_first_set_t_is_leakage_traces_of_unpacked_columns(self, name):
        for design in pass_designs(name):
            check = tvla_check(design, n_traces=N_DRAW, noise_sigma=0.25,
                               seed=5)
            assert check.value == reference_first_set_t(
                design, N_DRAW, 0.25, 5).max_abs_t


class TestOneVerdictEverywhere:
    """Requirements get the confirmation as is, in a flow run or
    checked on a design as it stands."""

    def test_secure_flow_passes_unconfirmed_first_set(self):
        flow = SecureFlow([tvla_requirement(n_traces=2000,
                                            seed=FALSE_POSITIVE_SEED)],
                          placement_iterations=300)
        assert flow.run(masked_and_design()).all_passed

    def test_requirement_check_is_what_the_manager_calls(self):
        requirement = no_leaky_net_requirement(n_traces=1200)
        calls = []
        check = requirement.check

        def wrapped(ctx):
            calls.append(ctx.design.name)
            return check(ctx)

        requirement.check = wrapped
        result = SecureFlow([requirement], placement_iterations=300) \
            .run(masked_and_design())
        assert result.all_passed
        assert calls and len(calls) == len(result.trace.all_rechecks())

    def test_constraints_confirm(self):
        leakage = tvla_requirement(n_traces=2000, seed=FALSE_POSITIVE_SEED)
        masking = no_leaky_net_requirement(n_traces=2000,
                                           seed=FALSE_POSITIVE_SEED)
        safe = compile_and_check(masked_and_design(), [leakage, masking])
        assert safe.all_passed
        assert "not confirmed by a second trace set" in \
            safe.trace.final[0].message
        broken = compile_and_check(parity_design(), [leakage, masking])
        assert [r.passed for r in broken.trace.final] == [False, False]
