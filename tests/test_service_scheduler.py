"""Scheduler semantics: DAG order, crash isolation, timeouts, retries.

The fault-injection job types registered here are process-hostile on
purpose (``os._exit`` mid-job, unbounded sleeps); each carries
``sample_params`` and a docstring so the ``check_jobs`` registry audit
stays clean when pytest imports this module.
"""

import os
import signal
import threading
import time

import pytest

from repro.service import (
    CANCELLED,
    FAILED,
    JobSpec,
    PENDING,
    RUNNING,
    RunDatabase,
    Scheduler,
    SchedulerError,
    SKIPPED,
    SUCCEEDED,
    TIMEOUT,
    WorkerPool,
    register_job_type,
)


@register_job_type("t-echo", sample_params={"value": 1},
                   sample_result={"value": 1, "seed": 0})
def _echo_job(params, ctx):
    """Test job: return its parameters and seed (pure, deterministic)."""
    return {"value": params["value"], "seed": ctx.seed}


@register_job_type("t-crash-once", sample_params={"marker": "/tmp/x"},
                   sample_result={"recovered": True})
def _crash_once_job(params, ctx):
    """Test job: die without cleanup on the first attempt, then succeed.

    The marker file records that the crash already happened, so the
    retried attempt — in a fresh worker process — completes.
    """
    del ctx
    if not os.path.exists(params["marker"]):
        with open(params["marker"], "w") as handle:
            handle.write("crashed")
        os._exit(13)     # no exception, no cleanup: a real crash
    return {"recovered": True}


@register_job_type("t-sleep", sample_params={"seconds": 0.01},
                   sample_result={"slept": 0.01})
def _sleep_job(params, ctx):
    """Test job: sleep, then return — the timeout-policy target."""
    del ctx
    time.sleep(float(params["seconds"]))
    return {"slept": params["seconds"]}


@register_job_type("t-fail", sample_params={"n": 1},
                   sample_result={"unreached": True})
def _fail_job(params, ctx):
    """Test job: always raise (exercises retry exhaustion)."""
    del ctx
    raise RuntimeError(f"deliberate failure {params['n']}")


@register_job_type("t-dep-sum", sample_params={"label": "sum"},
                   sample_result={"total": 5})
def _dep_sum_job(params, ctx):
    """Test job: sum the ``value`` field of all dependency results."""
    del params
    return {"total": sum(r["value"] for r in ctx.dep_results.values())}


@register_job_type("t-pid-sleep", sample_params={"pidfile": "/tmp/p"},
                   sample_result={"survived": True})
def _pid_sleep_job(params, ctx):
    """Test job: publish the worker pid, then sleep as a kill target.

    The first attempt drops a ``.done`` marker, writes its pid so the
    test can signal the worker from outside, and sleeps.  The retried
    attempt — in a fresh worker — sees the marker and returns at once.
    """
    del ctx
    marker = params["pidfile"] + ".done"
    if os.path.exists(marker):
        return {"survived": True}
    with open(marker, "w") as handle:
        handle.write("attempted")
    with open(params["pidfile"], "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(30.0)
    return {"survived": False}


#: Per-process call counter: a persistent worker carries it across
#: jobs, so its value observes worker reuse (and thus cache warmth).
_WORKER_CALLS = {"n": 0}


@register_job_type("t-warmth", sample_params={"tag": "a"},
                   sample_result={"pid": 1, "calls": 1})
def _warmth_job(params, ctx):
    """Test job: report the worker pid and its per-process call count."""
    del params, ctx
    _WORKER_CALLS["n"] += 1
    return {"pid": os.getpid(), "calls": _WORKER_CALLS["n"]}


@register_job_type("t-bad-return", sample_params={"n": 1},
                   sample_result={"never": True})
def _bad_return_job(params, ctx):
    """Test job: return a value that cannot cross the worker pipe."""
    del ctx
    return {"n": params["n"], "fn": lambda: None}


class TestJobSpecParams:
    @pytest.mark.parametrize("params", [
        {},
        {"empty-dict": {}},
        {"empty-list": []},
        # A list of [str, value] pairs must stay a list — the shape of
        # the pass-pipeline job's own documented params.
        {"passes": [["synthesis-stage", {}]]},
        {"a": [["k", 1], ["k2", 2]]},
        {"nested": {"list": [1, [2, {"d": []}]], "n": None}},
    ])
    def test_params_dict_round_trips(self, params):
        assert JobSpec("t-echo", params=params).params_dict == params

    def test_list_of_pairs_is_not_a_dict(self):
        # These name *different* computations; conflating them would
        # let the content-addressed cache serve one for the other.
        pairs = JobSpec("t-echo", params={"a": [["k", 1]]})
        mapping = JobSpec("t-echo", params={"a": {"k": 1}})
        assert pairs != mapping
        assert pairs.spec_hash != mapping.spec_hash
        assert pairs.params_dict == {"a": [["k", 1]]}
        assert mapping.params_dict == {"a": {"k": 1}}

    def test_key_order_canonical(self):
        a = JobSpec("t-echo", params={"x": 1, "y": 2})
        b = JobSpec("t-echo", params={"y": 2, "x": 1})
        assert a == b
        assert a.spec_hash == b.spec_hash


class TestDagExecution:
    def test_deps_run_first_and_feed_results(self):
        s = Scheduler(workers=0)
        a = s.submit(JobSpec("t-echo", params={"value": 2}))
        b = s.submit(JobSpec("t-echo", params={"value": 3}))
        c = s.submit(JobSpec("t-dep-sum"), deps=[a, b])
        jobs = s.run()
        assert jobs[c].status == SUCCEEDED
        assert jobs[c].result == {"total": 5}

    def test_unknown_dep_rejected_at_submit(self):
        s = Scheduler(workers=0)
        with pytest.raises(SchedulerError):
            s.submit(JobSpec("t-echo", params={"value": 1}),
                     deps=["nope"])

    def test_cycle_rejected_at_run(self):
        s = Scheduler(workers=0)
        a = s.submit(JobSpec("t-echo", params={"value": 1}))
        b = s.submit(JobSpec("t-echo", params={"value": 2}), deps=[a])
        s.jobs[a].deps = (b,)          # force a cycle
        with pytest.raises(SchedulerError):
            s.run()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_inline_and_pool_agree(self, workers):
        s = Scheduler(workers=workers)
        ids = [s.submit(JobSpec("t-echo", params={"value": v}, seed=9))
               for v in range(4)]
        jobs = s.run()
        assert [jobs[j].result for j in ids] == [
            {"value": v, "seed": 9} for v in range(4)]


class TestFaultInjection:
    def test_crash_is_retried_and_recovers(self, tmp_path):
        marker = tmp_path / "crashed"
        s = Scheduler(workers=2)
        jid = s.submit(JobSpec("t-crash-once",
                               params={"marker": str(marker)},
                               retries=1, retry_backoff=0.01))
        jobs = s.run()
        assert jobs[jid].status == SUCCEEDED
        assert jobs[jid].attempts == 2
        assert jobs[jid].result == {"recovered": True}

    def test_crash_without_retries_fails(self, tmp_path):
        s = Scheduler(workers=2)
        jid = s.submit(JobSpec(
            "t-crash-once",
            params={"marker": str(tmp_path / "never")},
            retries=0))
        # Make the job crash on *every* attempt by pointing the marker
        # somewhere unwritable-by-design: each fresh attempt rewrites
        # it, but retries=0 means the first crash is terminal anyway.
        jobs = s.run()
        assert jobs[jid].status == FAILED
        assert jobs[jid].attempts == 1
        # Depending on timing the crash shows up as a silent death or
        # as the result pipe tearing mid-send; both are crash reports.
        assert ("crash" in jobs[jid].error.lower()
                or "pipe" in jobs[jid].error.lower())

    def test_timeout_does_not_stall_siblings(self):
        s = Scheduler(workers=2)
        slow = s.submit(JobSpec("t-sleep", params={"seconds": 30.0},
                                timeout=0.3))
        fast = [s.submit(JobSpec("t-echo", params={"value": v}))
                for v in range(3)]
        started = time.perf_counter()
        jobs = s.run()
        elapsed = time.perf_counter() - started
        assert jobs[slow].status == TIMEOUT
        assert all(jobs[j].status == SUCCEEDED for j in fast)
        assert elapsed < 10.0     # nowhere near the 30 s sleep

    def test_timeout_is_terminal_by_default(self):
        s = Scheduler(workers=2)
        jid = s.submit(JobSpec("t-sleep", params={"seconds": 30.0},
                               timeout=0.2, retries=3))
        jobs = s.run()
        assert jobs[jid].status == TIMEOUT
        assert jobs[jid].attempts == 1     # retries not spent on timeouts

    def test_retry_on_timeout_opt_in(self):
        s = Scheduler(workers=2)
        jid = s.submit(JobSpec("t-sleep", params={"seconds": 30.0},
                               timeout=0.2, retries=1,
                               retry_backoff=0.01,
                               retry_on_timeout=True))
        jobs = s.run()
        assert jobs[jid].status == TIMEOUT
        assert jobs[jid].attempts == 2

    @pytest.mark.parametrize("workers", [0, 2])
    def test_exception_retries_exhaust_to_failed(self, workers):
        s = Scheduler(workers=workers)
        jid = s.submit(JobSpec("t-fail", params={"n": 7}, retries=2,
                               retry_backoff=0.01))
        jobs = s.run()
        assert jobs[jid].status == FAILED
        assert jobs[jid].attempts == 3
        assert "deliberate failure 7" in jobs[jid].error

    @pytest.mark.parametrize("workers", [0, 2])
    def test_dependents_of_failures_are_skipped(self, workers):
        s = Scheduler(workers=workers)
        bad = s.submit(JobSpec("t-fail", params={"n": 1}))
        child = s.submit(JobSpec("t-echo", params={"value": 1}),
                         deps=[bad])
        grandchild = s.submit(JobSpec("t-echo", params={"value": 2}),
                              deps=[child])
        unrelated = s.submit(JobSpec("t-echo", params={"value": 3}))
        jobs = s.run()
        assert jobs[bad].status == FAILED
        assert jobs[child].status == SKIPPED
        assert jobs[grandchild].status == SKIPPED
        assert jobs[unrelated].status == SUCCEEDED


class TestCancellation:
    def test_cancel_cascades_to_dependents(self):
        s = Scheduler(workers=0)
        a = s.submit(JobSpec("t-echo", params={"value": 1}))
        b = s.submit(JobSpec("t-echo", params={"value": 2}), deps=[a])
        s.cancel(a)
        jobs = s.run()
        assert jobs[a].status == CANCELLED
        assert jobs[b].status == SKIPPED

    def test_cancel_terminates_live_worker(self):
        # Cancelling a job whose worker is already running must kill
        # the worker: the 30 s sleep cannot hold up the run, and the
        # worker must not later report and flip the job to SUCCEEDED.
        s = Scheduler(workers=2)
        slow = s.submit(JobSpec("t-sleep", params={"seconds": 30.0}))
        fast = s.submit(JobSpec("t-echo", params={"value": 1}))

        def on_event(job):
            if job.job_id == fast and job.status == SUCCEEDED:
                s.cancel(slow)

        s.on_event = on_event
        started = time.perf_counter()
        jobs = s.run()
        assert jobs[slow].status == CANCELLED
        assert jobs[fast].status == SUCCEEDED
        assert time.perf_counter() - started < 10.0

    def test_cancel_at_running_event_records_once(self, tmp_path):
        # cancel() fired from the RUNNING transition itself (the watch
        # callback) races worker startup; the job must still end up
        # CANCELLED with exactly one terminal run-database record.
        db = RunDatabase(tmp_path / "runs.sqlite")
        s = Scheduler(workers=2, rundb=db)

        def on_event(job):
            if job.status == RUNNING:
                s.cancel(job.job_id)

        s.on_event = on_event
        jid = s.submit(JobSpec("t-sleep", params={"seconds": 30.0}))
        started = time.perf_counter()
        jobs = s.run()
        assert jobs[jid].status == CANCELLED
        assert time.perf_counter() - started < 10.0
        assert [r.status for r in db.records()] == [CANCELLED]

    def test_counts_summarise_terminal_states(self):
        s = Scheduler(workers=0)
        s.submit(JobSpec("t-echo", params={"value": 1}))
        s.submit(JobSpec("t-fail", params={"n": 2}))
        s.run()
        counts = s.counts()
        assert counts[SUCCEEDED] == 1
        assert counts[FAILED] == 1


def _kill_when_pid_appears(pidfile, sig) -> threading.Thread:
    """Background thread: wait for the worker's pidfile, then signal it."""
    def run():
        deadline = time.time() + 15.0
        while time.time() < deadline:
            try:
                text = pidfile.read_text().strip()
                if text:
                    os.kill(int(text), sig)
                    return
            except (FileNotFoundError, ValueError, ProcessLookupError):
                pass
            time.sleep(0.01)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestPersistentPool:
    def test_sigkill_respawns_retries_and_records_once(self, tmp_path):
        # SIGKILL a warm worker mid-job: the pool must replace it, the
        # job must retry and succeed, siblings must be untouched, and
        # the run database must hold exactly one terminal record per
        # job — a crash neither loses a record nor double-records.
        db = RunDatabase(tmp_path / "runs.sqlite")
        pidfile = tmp_path / "worker.pid"
        with WorkerPool(2) as pool:
            s = Scheduler(pool=pool, rundb=db)
            victim = s.submit(JobSpec(
                "t-pid-sleep", params={"pidfile": str(pidfile)},
                retries=1, retry_backoff=0.01))
            others = [s.submit(JobSpec("t-echo", params={"value": v}))
                      for v in range(3)]
            killer = _kill_when_pid_appears(pidfile, signal.SIGKILL)
            jobs = s.run()
            killer.join()
            assert pool.respawns >= 1
            assert len(pool.workers()) == 2     # still at size
        assert jobs[victim].status == SUCCEEDED
        assert jobs[victim].attempts == 2
        assert jobs[victim].result == {"survived": True}
        assert all(jobs[j].status == SUCCEEDED for j in others)
        records = db.records()
        assert sorted(r.job_id for r in records) == \
            sorted([victim] + others)
        assert all(r.status == SUCCEEDED for r in records)

    def test_sigkill_without_retries_is_a_clean_failure(self, tmp_path):
        db = RunDatabase(tmp_path / "runs.sqlite")
        pidfile = tmp_path / "worker.pid"
        with WorkerPool(1) as pool:
            s = Scheduler(pool=pool, rundb=db)
            jid = s.submit(JobSpec(
                "t-pid-sleep", params={"pidfile": str(pidfile)},
                retries=0))
            killer = _kill_when_pid_appears(pidfile, signal.SIGKILL)
            jobs = s.run()
            killer.join()
        assert jobs[jid].status == FAILED
        assert "crashed" in jobs[jid].error
        assert [r.status for r in db.records()] == [FAILED]

    def test_sigstop_wedge_is_detected_and_replaced(self, tmp_path):
        # A stopped process is alive but silent: only the heartbeat
        # can tell.  The scheduler must declare it wedged, replace it,
        # and retry the job on the fresh worker.
        pidfile = tmp_path / "worker.pid"
        errors = []

        def on_event(job):
            if job.status == PENDING and job.error:
                errors.append(job.error)

        with WorkerPool(1, heartbeat_interval=0.05,
                        heartbeat_timeout=0.5) as pool:
            s = Scheduler(pool=pool, on_event=on_event)
            jid = s.submit(JobSpec(
                "t-pid-sleep", params={"pidfile": str(pidfile)},
                retries=1, retry_backoff=0.01))
            stopper = _kill_when_pid_appears(pidfile, signal.SIGSTOP)
            jobs = s.run()
            stopper.join()
            assert pool.respawns >= 1
        assert jobs[jid].status == SUCCEEDED
        assert jobs[jid].attempts == 2
        assert any("wedged" in e for e in errors)

    def test_shared_pool_keeps_workers_warm(self):
        # Two schedulers over one pool reuse the same worker process —
        # the property that keeps engine caches and solver registries
        # warm across campaign resubmission.
        with WorkerPool(1) as pool:
            s1 = Scheduler(pool=pool)
            a = s1.submit(JobSpec("t-warmth", params={"tag": "a"}))
            r1 = s1.run()[a].result
            s2 = Scheduler(pool=pool)
            b = s2.submit(JobSpec("t-warmth", params={"tag": "b"}))
            r2 = s2.run()[b].result
        assert r1["pid"] == r2["pid"]
        assert r2["calls"] == r1["calls"] + 1

    def test_unpicklable_result_fails_without_killing_worker(self):
        # A result that cannot pickle must surface as a job error, not
        # poison the pipe or cost a worker respawn.
        with WorkerPool(1) as pool:
            s = Scheduler(pool=pool)
            bad = s.submit(JobSpec("t-bad-return", params={"n": 1}))
            good = s.submit(JobSpec("t-echo", params={"value": 4}))
            jobs = s.run()
            assert pool.respawns == 0
        assert jobs[bad].status == FAILED
        assert "picklable" in jobs[bad].error
        assert jobs[good].status == SUCCEEDED

    def test_execution_modes_agree_bit_for_bit(self):
        # Inline and persistent-pool execution must produce identical
        # result payloads for the same DAG.
        def build(**kwargs):
            s = Scheduler(**kwargs)
            ids = [s.submit(JobSpec("t-echo", params={"value": v},
                                    seed=3))
                   for v in range(4)]
            total = s.submit(JobSpec("t-dep-sum"), deps=ids)
            jobs = s.run()
            return [jobs[j].result for j in ids + [total]]

        inline = build(workers=0)
        pooled = build(workers=2)
        assert inline == pooled
