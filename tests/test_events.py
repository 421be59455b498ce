"""Job events: the scheduler's ``on_event`` hook and watch-output parity.

Every transition leaves the scheduler as one :class:`JobEvent` handed
to ``on_event``; the CLI's ``--watch`` printer and the gateway's SSE
streams both render it.  The regression contract is that ``--watch``
output is *byte for byte* what the legacy watch closure printed.
"""

import re

import pytest

from repro.service import Scheduler
from repro.service.events import JobEvent, format_event
from repro.service.jobs import JobSpec

import test_service_scheduler  # noqa: F401  registers the t-* job types


def _legacy_watch_line(job) -> str:
    """The pre-bus CLI watcher, verbatim (the regression reference)."""
    cache = " (cache)" if job.cache_hit else ""
    extra = (f" — {job.error.splitlines()[-1][:60]}"
             if job.error and job.status in
             ("failed", "timeout", "pending") else "")
    return (f"[{job.status:>9}] {job.job_id} "
            f"attempt={job.attempts}{cache}{extra}")


class _FakeJob:
    def __init__(self, **kw):
        self.job_id = kw.get("job_id", "j1")
        self.status = kw.get("status", "succeeded")
        self.attempts = kw.get("attempts", 1)
        self.cache_hit = kw.get("cache_hit", False)
        self.error = kw.get("error", "")
        self.wall_s = 0.0
        self.worker = ""
        self.result = None

        class _Spec:
            job_type = "t-echo"
            spec_hash = "ab" * 32
        self.spec = _Spec()


class TestWatchFormatRegression:
    @pytest.mark.parametrize("fields", [
        {"status": "succeeded", "attempts": 1},
        {"status": "succeeded", "attempts": 2, "cache_hit": True},
        {"status": "failed", "attempts": 3,
         "error": "Traceback...\nValueError: boom"},
        {"status": "timeout", "attempts": 1,
         "error": "x" * 200},                   # truncation at 60
        {"status": "pending", "attempts": 1,
         "error": "worker crashed (signal 9)"},  # retry line
        {"status": "running", "attempts": 1,
         "error": "stale error not shown for running"},
        {"status": "cancelled", "attempts": 0},
    ])
    def test_format_event_matches_legacy_watcher(self, fields):
        job = _FakeJob(**fields)
        event = JobEvent.from_job(job)
        assert format_event(event) == _legacy_watch_line(job)

    def test_cli_watch_prints_bus_events(self, capsys):
        from repro.service.cli import main

        assert main(["sweep", "--widths", "0", "--watch",
                     "--max-iterations", "10"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert lines, out
        # Every watch line is the legacy format, ending succeeded.
        pattern = re.compile(r"^\[ *\w+\] \S+ attempt=\d+")
        assert all(pattern.match(l) for l in lines)
        assert any("succeeded" in l for l in lines)


class TestOnEvent:
    def test_scheduler_reports_lifecycle_to_on_event(self):
        events = []
        s = Scheduler(workers=0, on_event=events.append)
        jid = s.submit(JobSpec("t-echo", params={"value": 5}))
        s.run()
        assert [e.job_id for e in events] == [jid] * len(events)
        statuses = [e.status for e in events]
        assert statuses[0] in ("pending", "running")
        assert statuses[-1] == "succeeded"
        # seq strictly increasing; terminal event carries the result.
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert events[-1].result["value"] == 5
        assert events[-1].terminal

    def test_per_job_run_id_overrides_scheduler_run_id(self):
        events = []
        s = Scheduler(workers=0, on_event=events.append, run_id="shared")
        s.submit(JobSpec("t-echo", params={"value": 1}),
                 run_id="t/alice/s1")
        s.submit(JobSpec("t-echo", params={"value": 2}))
        s.run()
        run_ids = {e.job_id: e.run_id for e in events}
        assert set(run_ids.values()) == {"t/alice/s1", "shared"}

    def test_worker_freed_at_running_event_takes_the_next_job(self):
        # A pooled step never waits, so nothing wakes the caller for an
        # idle worker: one left idle by a job cancelled at its RUNNING
        # event must take the next ready job in the same step.
        s = Scheduler(workers=1)
        first = s.submit(JobSpec("t-sleep", params={"seconds": 30.0}))
        second = s.submit(JobSpec("t-echo", params={"value": 2}))

        def on_event(event):
            if event.job_id == first and event.status == "running":
                s.cancel(first)

        s.on_event = on_event
        s.service_open()
        try:
            handles, deadline = s.service_step()
            assert s.jobs[first].status == "cancelled"
            assert s.jobs[second].status == "running"
            assert handles and deadline is not None
        finally:
            s.service_close()
