"""Tests for repro.flow: registry, effects, incremental re-verification,
and FlowTrace provenance — including the executable Fig. 2 caught by
flow infrastructure rather than by a benchmark."""

import json
import random

import pytest

from repro.core.designs import masked_and_design
from repro.core.composition import Design
from repro.crypto.sboxes import aes_sbox_netlist
from repro.flow import (
    AnalysisCache,
    BufferSweepPass,
    Effects,
    MaskInsertionPass,
    Pass,
    PassManager,
    PassResult,
    PlacementPass,
    ReassociationPass,
    SecurePlacementPass,
    SecurityProperty as P,
    StaSignoffPass,
    conservative,
    create_pass,
    default_checkers,
    effects,
    netlist_design,
    preserves_all,
    register_pass,
    registered_passes,
    tvla_checker,
)
from repro.netlist import GateType, Netlist, encode_int, random_stimulus


def small_checkers(n_traces=1200):
    return default_checkers(n_traces=n_traces)


def plain_and_design():
    """Unmasked 2-input AND with proper TVLA classes on plain inputs."""
    n = Netlist("plain-and")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("y", GateType.AND, ["a", "b"])
    n.add_output("y")
    return Design(
        name="plain-and", netlist=n,
        tvla_fixed=lambda traces, rng: encode_int(3, ["a", "b"], traces),
        tvla_random=lambda traces, rng: random_stimulus(["a", "b"], traces,
                                                        rng),
        payload_outputs=["y"])


class TestRegistry:
    def test_all_transforms_registered(self):
        names = set(registered_passes())
        # synth
        assert {"constprop", "strash", "inv2", "bufsweep", "sweep",
                "synthesis", "reassoc-timing"} <= names
        # sca
        assert {"mask-insertion", "wddl-hiding"} <= names
        # dft
        assert {"scan-insertion", "bist-signature", "atpg"} <= names
        # ip
        assert {"logic-locking", "sfll-lock", "camouflage"} <= names
        # physical + signoff
        assert {"placement", "sta-signoff"} <= names

    def test_create_pass_by_name(self):
        p = create_pass("placement", iterations=123)
        assert isinstance(p, PlacementPass)
        assert p.iterations == 123

    def test_unknown_pass_rejected(self):
        with pytest.raises(KeyError):
            create_pass("no-such-pass")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            @register_pass
            class Clash(Pass):
                name = "placement"

    def test_unnamed_pass_rejected(self):
        with pytest.raises(ValueError):
            @register_pass
            class Anon(Pass):
                pass


class TestEffects:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            Effects(preserves=frozenset({P.MASKING}),
                    invalidates=frozenset({P.MASKING}))

    def test_preserves_all_is_total(self):
        assert preserves_all().undeclared == frozenset()
        assert conservative().undeclared == frozenset()
        assert effects(
            preserves=[P.MASKING],
            establishes=[P.TVLA_BOUND],
            invalidates=[P.NO_FLOW, P.FAULT_DETECTION, P.SCAN_LEAKAGE,
                         P.FUNCTIONAL_EQUIVALENCE, P.PROBING_EXPOSURE,
                         P.FIA_EXPOSURE,
                         P.TROJAN_INSERTABILITY]).undeclared == frozenset()

    def test_undeclared_classifies_conservatively(self):
        e = effects(preserves=[P.MASKING])
        assert e.classify(P.MASKING) == "preserves"
        assert e.classify(P.TVLA_BOUND) == "invalidates"

    def test_non_property_rejected(self):
        with pytest.raises(TypeError):
            effects(preserves=["masking"])


class TestIncrementalReverification:
    def test_preserving_pass_skips_tvla_rerun(self):
        pm = PassManager(checkers=small_checkers(), seed=0)
        result = pm.run(masked_and_design(), [BufferSweepPass()],
                        goals=[P.TVLA_BOUND, P.MASKING],
                        assume=[P.TVLA_BOUND, P.MASKING])
        assert result.all_passed
        # preserves: masking/tvla -> zero re-checks after the pass
        assert result.trace.rechecked_properties("bufsweep") == []
        # ... and therefore no extra trace simulations beyond baseline:
        # two class matrices (shared by both checks) + two statistics
        assert pm.cache.misses == 4
        assert result.trace.passes[0].cache_misses == 0

    def test_fig2_reassociation_triggers_and_fails(self):
        pm = PassManager(checkers=small_checkers(), seed=0)
        result = pm.run(masked_and_design(),
                        [ReassociationPass(rng_prefix="r_")],
                        goals=[P.TVLA_BOUND, P.MASKING],
                        assume=[P.TVLA_BOUND, P.MASKING])
        rechecked = result.trace.rechecked_properties("reassoc-timing")
        assert "tvla-bound" in rechecked and "masking" in rechecked
        assert not result.all_passed
        assert any("tvla-bound" in f and "after reassoc-timing" in f
                   for f in result.failures)

    def test_mask_then_reassociate_property_pipeline(self):
        """Satellite: [mask_insertion, xor_reassociation] is flagged as
        invalidating masking and fails the scheduled TVLA re-check."""
        pm = PassManager(checkers=small_checkers(), seed=0)
        result = pm.run(
            plain_and_design(),
            [MaskInsertionPass(), ReassociationPass(rng_prefix="rnd")],
            goals=[P.TVLA_BOUND, P.MASKING])
        trace = result.trace

        # mask-insertion *establishes* both: checked right after, PASS.
        masked = [r for r in trace.passes[0].rechecks]
        assert {r.key for r in masked} == {"tvla-bound", "masking"}
        assert all(r.reason == "establishes" and r.passed for r in masked)

        # reassociation *invalidates* both: re-checked, and Fig. 2 says
        # the re-check fails.
        broken = trace.passes[1].rechecks
        assert {r.key for r in broken} == {"tvla-bound", "masking"}
        assert all(r.reason == "invalidates" for r in broken)
        assert not result.all_passed

    def test_invalidation_without_prior_establishment_skips_check(self):
        # Nothing held -> an invalidating pass has nothing to re-check.
        pm = PassManager(checkers=small_checkers(), seed=0)
        result = pm.run(plain_and_design(),
                        [ReassociationPass(rng_prefix="rnd")],
                        goals=[P.MASKING])
        assert result.trace.rechecked_properties("reassoc-timing") == []
        # ... but the goal is still measured once at the end.
        assert [r.key for r in result.trace.final] == ["masking"]

    def test_conservative_recheck_hits_analysis_cache(self):
        # An undeclared (conservative) pass that does not mutate the
        # netlist re-checks TVLA, but the statistic comes from the cache.
        pm = PassManager(checkers=small_checkers(), seed=0)
        result = pm.run(masked_and_design(),
                        [SecurePlacementPass(iterations=200)],
                        goals=[P.TVLA_BOUND], assume=[P.TVLA_BOUND])
        assert result.all_passed
        assert result.trace.rechecked_properties("placement") == \
            ["tvla-bound"]
        assert pm.cache.hits == 1      # the re-check: one cached t
        assert pm.cache.misses == 3    # two class matrices + their t

    def test_missing_checker_rejected(self):
        pm = PassManager(checkers={}, seed=0)
        with pytest.raises(KeyError):
            pm.run(plain_and_design(), [], goals=[P.TVLA_BOUND])


class TestSecureAesProvenance:
    @pytest.fixture(scope="class")
    def outcome(self):
        pm = PassManager(
            checkers={P.TVLA_BOUND: tvla_checker(n_traces=400)}, seed=0)
        design = netlist_design(aes_sbox_netlist(), name="aes-sbox")
        names = [f"x{i}" for i in range(8)]
        design.tvla_fixed = lambda n, rng: encode_int(0x53, names, n)
        design.tvla_random = lambda n, rng: random_stimulus(names, n, rng)
        pipeline = [MaskInsertionPass(), BufferSweepPass(),
                    PlacementPass(iterations=300), StaSignoffPass()]
        return pm.run(design, pipeline, goals=[P.TVLA_BOUND])

    def test_per_pass_provenance(self, outcome):
        trace = outcome.trace
        assert [p.pass_name for p in trace.passes] == \
            ["mask-insertion", "bufsweep", "placement", "sta-signoff"]
        for prov in trace.passes:
            assert prov.wall_ms >= 0.0
            assert prov.cells_before > 0 and prov.cells_after > 0
        mask = trace.passes[0]
        assert mask.cells_after > mask.cells_before   # shares + gadgets
        assert mask.details["randomness_bits"] > 0

    def test_establish_checked_once_then_carried(self, outcome):
        trace = outcome.trace
        assert [r.key for r in trace.passes[0].rechecks] == ["tvla-bound"]
        assert trace.passes[0].rechecks[0].reason == "establishes"
        # Downstream passes preserve the bound -> no further re-checks,
        # and no final goal measurement either.
        assert trace.rechecked_properties("bufsweep") == []
        assert trace.rechecked_properties("placement") == []
        assert trace.rechecked_properties("sta-signoff") == []
        assert trace.final == []
        assert outcome.all_passed

    def test_trace_is_machine_readable(self, outcome):
        blob = json.dumps(outcome.trace.to_dict())
        data = json.loads(blob)
        assert data["design"] == "aes-sbox"
        assert len(data["passes"]) == 4
        assert data["passes"][0]["effects"]["establishes"] == \
            ["masking", "tvla-bound"]
        assert data["failures"] == []
        assert data["total_wall_ms"] > 0

    def test_trace_round_trips_losslessly(self, outcome):
        from repro.flow import FlowTrace

        d = outcome.trace.to_dict()
        revived = FlowTrace.from_dict(json.loads(json.dumps(d)))
        # Dict-level fixed point: serialising the revived trace yields
        # byte-identical JSON — what a service job returns is exactly
        # what a client reconstructs.
        assert revived.to_dict() == d
        # Dataclass equality is a fixed point too (wall times are
        # ms-rounded by serialisation, so the original trace differs
        # only there; everything structural survives).
        assert FlowTrace.from_dict(revived.to_dict()) == revived
        assert revived.design_name == outcome.trace.design_name
        assert ([p.pass_name for p in revived.passes]
                == [p.pass_name for p in outcome.trace.passes])
        assert ([[r.key for r in p.rechecks] for p in revived.passes]
                == [[r.key for r in p.rechecks]
                    for p in outcome.trace.passes])
        assert revived.failures == outcome.trace.failures

    def test_render_mentions_passes_and_checks(self, outcome):
        text = outcome.trace.render()
        assert "mask-insertion" in text
        assert "re-check:establishes" in text
        assert "PASS" in text
        # Each pass shows its stage and numeric details.
        assert "(high-level synthesis)" in text
        assert "(timing and power verification)" in text
        assert "    hpwl = " in text


class TestAnalysisCacheKeys:
    def test_parameterized_keys_do_not_collide(self):
        cache = AnalysisCache()
        n = Netlist("k")
        n.add_input("a")
        n.add_gate("y", GateType.BUF, ["a"])
        n.add_output("y")
        a = cache.get("x", n, lambda: "lo", key=(n, 1))
        b = cache.get("x", n, lambda: "hi", key=(n, 2))
        assert (a, b) == ("lo", "hi")
        assert cache.get("x", n, lambda: "??", key=(n, 1)) == "lo"

    def test_named_invalidation(self):
        cache = AnalysisCache()
        n = Netlist("k")
        n.add_input("a")
        n.add_gate("y", GateType.BUF, ["a"])
        n.add_output("y")
        cache.topo_order(n)
        cache.levels(n)
        cache.invalidate("topo-order")
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0


class TestLegacyWrappers:
    def test_secure_flow_exposes_trace(self):
        from repro.core import SecureFlow, tvla_requirement
        from repro.flow import ParityDetectPass

        flow = SecureFlow([tvla_requirement(n_traces=1500)],
                          transforms=[ParityDetectPass()],
                          placement_iterations=200)
        result = flow.run(masked_and_design())
        assert result.trace is not None
        assert not result.all_passed
        assert any("after parity-detect" in f for f in result.failures)
        # No pass declares an effect on a requirement: it re-ran.
        assert "tvla-first-order" in \
            result.trace.rechecked_properties("parity-detect")

    def test_classical_flow_records_pipeline_stages(self):
        from repro.flow import classical_pipeline
        from repro.netlist import random_circuit

        result = PassManager().run(
            netlist_design(random_circuit(6, 40, 2, seed=5)),
            classical_pipeline(placement_iterations=300))
        assert [p.pass_name for p in result.trace.passes] == [
            "synthesis", "lec-assume", "placement", "sta-signoff", "atpg"]
        assert all(p.stage is not None for p in result.trace.passes)
        assert result.trace.all_rechecks() == []
        assert "re-check" not in result.trace.render()
