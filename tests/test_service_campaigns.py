"""Campaign clients: serial/parallel parity, cache resubmission, run DB."""

import subprocess
import sys

import pytest

import test_service_scheduler  # noqa: F401  registers t-echo / t-sleep

from repro.core import CompositionEngine, sweep_locking
from repro.netlist import c17, ripple_carry_adder
from repro.service import (
    ArtifactStore,
    CampaignError,
    JobSpec,
    RunDatabase,
    Scheduler,
    composition_matrix_campaign,
    locking_sweep_campaign,
    security_closure_campaign,
)

WIDTHS = [0, 2, 4]
SEED = 5


def _point_tuple(p):
    # attack_seconds is wall time — excluded from parity on purpose.
    return (p.key_bits, p.area, p.sat_attack_iterations,
            p.attack_gave_up)


class TestLockingSweepParity:
    def test_campaign_matches_direct_sweep(self, tmp_path):
        netlist = ripple_carry_adder(4)
        direct = sweep_locking(netlist, WIDTHS, seed=SEED)
        via_service = locking_sweep_campaign(
            netlist, WIDTHS, seed=SEED,
            store=ArtifactStore(tmp_path / "store"))
        assert ([_point_tuple(p) for p in direct]
                == [_point_tuple(p) for p in via_service])

    def test_workers_bit_identical_to_serial(self, tmp_path):
        netlist = ripple_carry_adder(4)
        serial = locking_sweep_campaign(
            netlist, WIDTHS, seed=SEED, workers=0,
            store=ArtifactStore(tmp_path / "serial"))
        parallel = locking_sweep_campaign(
            netlist, WIDTHS, seed=SEED, workers=2,
            store=ArtifactStore(tmp_path / "parallel"))
        assert ([_point_tuple(p) for p in serial]
                == [_point_tuple(p) for p in parallel])

    def test_failure_surfaces_as_campaign_error(self, tmp_path):
        # Timeouts are enforced by polling live workers, so the budget
        # must be overrun by a job that is still running at the first
        # poll — a wide locked adder, not c17.
        netlist = ripple_carry_adder(8)
        with pytest.raises(CampaignError) as excinfo:
            locking_sweep_campaign(
                netlist, [12], seed=SEED, workers=2, timeout=0.01,
                store=ArtifactStore(tmp_path / "store"))
        assert excinfo.value.jobs    # the failing jobs ride along


class TestCacheResubmission:
    def test_resubmission_is_cache_served(self, tmp_path):
        netlist = ripple_carry_adder(4)
        store = ArtifactStore(tmp_path / "store")
        rundb = RunDatabase(tmp_path / "runs.sqlite")

        first = locking_sweep_campaign(netlist, WIDTHS, seed=SEED,
                                       store=store, rundb=rundb)
        second = locking_sweep_campaign(netlist, WIDTHS, seed=SEED,
                                        store=store, rundb=rundb)
        assert ([_point_tuple(p) for p in first]
                == [_point_tuple(p) for p in second])

        runs = rundb.run_ids()
        assert len(runs) == 2
        cold = rundb.summary(runs[0])
        warm = rundb.summary(runs[1])
        assert cold["cache_hit_rate"] == 0.0
        # The acceptance bar: resubmission served >=90% from cache.
        assert warm["cache_hit_rate"] >= 0.90

    def test_different_seed_is_not_cache_served(self, tmp_path):
        netlist = ripple_carry_adder(4)
        store = ArtifactStore(tmp_path / "store")
        rundb = RunDatabase(tmp_path / "runs.sqlite")
        locking_sweep_campaign(netlist, [2], seed=1,
                               store=store, rundb=rundb)
        locking_sweep_campaign(netlist, [2], seed=2,
                               store=store, rundb=rundb)
        warm = rundb.summary(rundb.run_ids()[1])
        assert warm["cache_hit_rate"] == 0.0


class TestCompositionCampaign:
    def test_matrix_matches_direct_engine(self, tmp_path):
        engine = CompositionEngine(seed=2, n_traces=400)
        direct = engine.evaluate_stack_row("masked-and", ["parity"])
        matrix = composition_matrix_campaign(
            stacks={"parity": ["parity"]},
            engine_params={"n_traces": 400}, seed=2,
            store=ArtifactStore(tmp_path / "store"))
        assert matrix["parity"]["flagged"] == direct["flagged"]
        assert (matrix["parity"]["final"]["tvla_max_t"]
                == direct["final"]["tvla_max_t"])
        assert matrix["parity"]["notes"] == direct["notes"]

    def test_parity_stack_flagged_duplication_clean(self, tmp_path):
        # Ref [61]: parity checkers break masking; duplication does not.
        matrix = composition_matrix_campaign(
            stacks={"parity": ["parity"],
                    "duplication": ["duplication"]},
            engine_params={"n_traces": 2000}, seed=1, workers=2,
            store=ArtifactStore(tmp_path / "store"))
        assert matrix["parity"]["flagged"]
        assert not matrix["duplication"]["flagged"]


class TestPassPipelineJob:
    def test_documented_sample_params_run(self, tmp_path):
        # The registry sample is the job's documentation — it must
        # actually execute (it once crashed on params round-trip and
        # named an unregistered pass).
        from repro.flow import FlowTrace
        from repro.service import (JobContext, registered_job_types,
                                   run_job)

        store = ArtifactStore(tmp_path / "store")
        digest = store.put_netlist(ripple_carry_adder(2))
        sample = dict(
            registered_job_types()["pass-pipeline"].sample_params)
        sample["netlist"] = digest
        spec = JobSpec("pass-pipeline", params=sample, seed=3)
        result = run_job(spec, JobContext(seed=3, store=store))
        assert result["result_netlist"] in store
        trace = FlowTrace.from_dict(result["trace"])
        assert [p.pass_name for p in trace.passes] == ["synthesis"]


class TestSecurityClosureCampaign:
    def test_closure_job_end_to_end_multiprocess(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        rundb = RunDatabase(tmp_path / "runs.sqlite")
        results = security_closure_campaign(
            [c17(), ripple_carry_adder(8)], seed=2, workers=2,
            store=store, rundb=rundb)
        assert set(results) == {"c17", "rca8"}
        for name, row in results.items():
            assert row["converged"], name
            assert row["equivalent"], name
            assert row["failed_nets"] == [], name
            assert row["metrics"]["probing"] <= 0.05
            assert row["metrics"]["fia"] <= 0.30
            assert row["metrics"]["trojan"] <= 0.05
            assert row["layout"] in store   # closed layout published
        by_type = [r for r in rundb.records() if r.job_type == "closure"]
        assert len(by_type) == 2
        assert all(r.status == "succeeded" for r in by_type)

    def test_workers_bit_identical_to_serial(self, tmp_path):
        # The closure job strips wall times, so the *entire* result
        # dict — per-iteration trace provenance included — must match.
        serial = security_closure_campaign(
            [c17()], seed=4, workers=0,
            store=ArtifactStore(tmp_path / "serial"))
        parallel = security_closure_campaign(
            [c17()], seed=4, workers=2,
            store=ArtifactStore(tmp_path / "parallel"))
        assert serial == parallel

    def test_route_job_publishes_layout(self, tmp_path):
        from repro.service import JobContext, run_job

        store = ArtifactStore(tmp_path / "store")
        digest = store.put_netlist(c17())
        spec = JobSpec("route", params={"netlist": digest}, seed=1)
        result = run_job(spec, JobContext(seed=1, store=store))
        assert result["failed_nets"] == []
        assert result["nets"] > 0
        doc = store.get(result["layout"])
        from repro.physical import RoutedLayout

        layout = RoutedLayout.from_dict(doc)
        assert len(layout.nets) == result["nets"]
        assert layout.total_wirelength == result["wirelength"]


class TestCliValidation:
    def test_compose_unknown_stack_exits_2(self, capsys):
        from repro.service.cli import main

        assert main(["compose", "--stacks", "parity,typo"]) == 2
        out = capsys.readouterr().out
        assert "typo" in out
        assert "parity" in out       # the valid choices are listed

    def test_sweep_unknown_bench_exits_2(self, capsys):
        from repro.service.cli import main

        assert main(["sweep", "--bench", "nope"]) == 2
        assert "nope" in capsys.readouterr().out

    def test_closure_unknown_bench_exits_2(self, capsys):
        from repro.service.cli import main

        assert main(["closure", "--benches", "c17,bogus"]) == 2
        out = capsys.readouterr().out
        assert "bogus" in out
        assert "c17" in out


class TestRunDatabase:
    def test_records_expose_policy_outcomes(self, tmp_path):
        rundb = RunDatabase(tmp_path / "runs.sqlite")
        s = Scheduler(workers=2, rundb=rundb,
                      store=ArtifactStore(tmp_path / "store"))
        ok = s.submit(JobSpec("t-echo", params={"value": 1}))
        slow = s.submit(JobSpec("t-sleep", params={"seconds": 30.0},
                                timeout=0.2))
        blocked = s.submit(JobSpec("t-echo", params={"value": 2}),
                           deps=[slow])
        s.run()

        by_id = {r.job_id: r for r in rundb.records()}
        assert by_id[ok].status == "succeeded"
        assert by_id[slow].status == "timeout"
        assert "timeout" in by_id[slow].error
        assert by_id[blocked].status == "skipped"

        assert [r.job_id for r in rundb.query(status="timeout")] \
            == [slow]
        summary = rundb.summary()
        assert summary["by_status"] == {
            "succeeded": 1, "timeout": 1, "skipped": 1}

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "runs.db"
        rundb = RunDatabase(path)
        s = Scheduler(workers=0, rundb=rundb)
        s.submit(JobSpec("t-echo", params={"value": 1}))
        s.run()
        wal = tmp_path / "runs.db-wal"
        committed = wal.stat().st_size
        # Crash mid-append: a writer spills uncommitted pages into the
        # write-ahead log, then dies without commit or rollback.
        crash = subprocess.run([sys.executable, "-c", _CRASH_MID_APPEND,
                                str(path)], timeout=60)
        assert crash.returncode == 0
        assert wal.stat().st_size > committed   # a torn tail is there
        assert len(RunDatabase(path).records()) == 1


_CRASH_MID_APPEND = """
import os, sqlite3, sys
conn = sqlite3.connect(sys.argv[1])
conn.execute("PRAGMA cache_size=1")
cols = ", ".join(c[1] for c in conn.execute("PRAGMA table_info(records)")
                 if c[1] != "id")
for _ in range(200):
    conn.execute(f"INSERT INTO records ({cols}) "
                 f"SELECT {cols} FROM records LIMIT 1")
os._exit(0)
"""
