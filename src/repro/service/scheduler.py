"""Multiprocess DAG scheduler with crash isolation and a result cache.

Jobs (:class:`~repro.service.jobs.JobSpec`) are submitted with
dependencies forming a DAG.  :meth:`Scheduler.run` drains it:

* **cache first** — before a job is ever dispatched, its
  ``spec_hash`` is looked up in the artifact store; a hit completes
  the job instantly (recorded as ``cache_hit`` in the run database);
* **persistent worker pool** — with ``workers >= 1`` the scheduler
  keeps ``workers`` long-lived processes (:class:`WorkerPool`) that pull
  jobs over duplex pipes.  Workers stay warm between jobs: the
  process-local :func:`repro.netlist.engine_cache` (compiled gate
  programs, parsed netlists) persists for the worker's lifetime, so a
  campaign re-evaluating the same design stops paying cold-start
  costs.  Each worker runs a heartbeat thread; the parent detects
  crashes (pipe EOF, process sentinel) *and* wedged-but-alive workers
  (stale heartbeat), kills the process, respawns a fresh one, and
  retries the job with exponential backoff while the spec's budget
  lasts.  A pool can be shared across schedulers (``pool=``) so
  warmth survives campaign resubmission;
* **timeouts** — a job exceeding ``spec.timeout`` wall seconds has
  its worker killed and replaced without stalling siblings;
* **cancellation** — :meth:`cancel` withdraws a pending job (and
  kills its worker if already running); its dependents are skipped;
* **degradation** — ``workers=0`` runs everything in-process, in
  deterministic submission-DAG order: no pickling, no forks, no
  timeout enforcement — the debugging mode;
* **events** — every state transition leaves the scheduler one way: a
  :class:`~repro.service.events.JobEvent` handed to ``on_event``,
  synchronously, once the transition is stored and recorded;
* **stepping** — a pooled step (:meth:`Scheduler.service_step`) never
  waits: it returns the handles and the deadline it would wait on, so
  :meth:`Scheduler.run` waits on them with
  :func:`multiprocessing.connection.wait` and the gateway on its event
  loop, on one thread.

Serial, inline, and pooled execution are bit-identical on the
result-bearing fields: warm caches are keyed by content (transport
digests, generated source), and no SAT solver outlives its job, so
model-dependent solver state never reaches a surfaced result.

The scheduler is deliberately *not* a thread pool around shared
memory: worker isolation is the point.  The paper's campaign shape —
many independent flow evaluations, each seconds long — wants process
granularity, and the artifact store (not IPC) is the durable data
plane.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
import uuid
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .events import JobEvent
from .jobs import JobContext, JobSpec, run_job
from .rundb import RunDatabase, RunRecord
from .store import ArtifactStore

#: Job lifecycle states.  Terminal: succeeded / failed / timeout /
#: cancelled / skipped.
PENDING = "pending"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"
SKIPPED = "skipped"

_TERMINAL = frozenset({SUCCEEDED, FAILED, TIMEOUT, CANCELLED, SKIPPED})


@dataclass
class Job:
    """Scheduler-side state of one submitted spec."""

    job_id: str
    spec: JobSpec
    deps: Tuple[str, ...] = ()
    status: str = PENDING
    attempts: int = 0
    result: Optional[object] = None
    error: str = ""
    cache_hit: bool = False
    wall_s: float = 0.0
    worker: str = ""
    not_before: float = 0.0     # backoff gate for the next attempt
    run_id: str = ""            # per-job override of the scheduler's

    @property
    def done(self) -> bool:
        return self.status in _TERMINAL


def _worker_loop(conn, heartbeat_interval: float) -> None:
    """Persistent worker entry point: serve jobs until told to stop.

    Protocol (duplex pipe, parent <-> worker):

    * parent sends ``(task_id, spec_bytes, store_root, seed,
      dep_results)`` tuples, or ``None`` to shut down;
    * worker replies ``("done", task_id, "ok"|"error", payload)`` per
      task, interleaved with ``("hb", monotonic_time)`` heartbeats
      from a daemon thread (send-locked — the pipe is shared).

    Warm state lives in the process, not this function: the engine
    cache is a module-level singleton that survives between tasks,
    and :class:`~repro.service.store.ArtifactStore`
    handles are kept per root so store counters accumulate.  A task id
    travels with every result so the parent can discard output from a
    task it has already written off (timeout, cancellation) — though
    in practice kills replace the whole process and pipe.
    """
    import pickle
    import signal
    import threading

    # Terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included; the parent owns worker shutdown (pipe
    # close / terminate), so let it drain instead of dying mid-recv
    # with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A forked worker inherits the parent's handlers; SIGTERM must
    # still end the worker, not raise inside the job it is running.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            with send_lock:
                try:
                    conn.send(("hb", time.monotonic()))
                except (BrokenPipeError, OSError):
                    return

    threading.Thread(target=beat, daemon=True).start()
    stores: Dict[str, ArtifactStore] = {}
    try:
        while True:
            try:
                task = conn.recv()
            except (EOFError, OSError):
                break
            if task is None:
                break
            task_id, spec_bytes, store_root, seed, dep_results = task
            try:
                spec: JobSpec = pickle.loads(spec_bytes)
                store = (stores.setdefault(store_root,
                                           ArtifactStore(store_root))
                         if store_root else None)
                ctx = JobContext(seed=seed, store=store,
                                 dep_results=dep_results)
                result = run_job(spec, ctx)
                reply = ("done", task_id, "ok", result)
            except BaseException:   # noqa: BLE001 — pipe is the report
                reply = ("done", task_id, "error",
                         traceback.format_exc())
            try:
                with send_lock:
                    conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            except Exception:   # unpicklable result; pipe still clean
                with send_lock:
                    try:
                        conn.send(("done", task_id, "error",
                                   "result not picklable:\n"
                                   + traceback.format_exc()))
                    except (BrokenPipeError, OSError):
                        break
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


class SchedulerError(Exception):
    """Raised for structural scheduling mistakes (cycles, bad deps)."""


class _PoolWorker:
    """Parent-side handle on one persistent worker process."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.last_beat = time.perf_counter()

    @property
    def label(self) -> str:
        return f"pid{self.process.pid}"


class WorkerPool:
    """A fixed-size set of persistent worker processes.

    Standalone so it can outlive any one :class:`Scheduler`: pass the
    same pool to successive schedulers (``Scheduler(pool=...)``) and
    the workers' process-local caches — compiled netlist programs and
    parsed netlists — stay warm across campaign resubmissions (no SAT
    solver outlives its job).  Context-manager friendly::

        with WorkerPool(4) as pool:
            Scheduler(pool=pool, store=store).run_campaign_a()
            Scheduler(pool=pool, store=store).run_campaign_b()

    ``heartbeat_interval`` is how often each worker beats;
    ``heartbeat_timeout`` is how long the scheduler lets a *busy*
    worker go silent before declaring it wedged and replacing it
    (generous by default: a pure-Python job never starves the beat
    thread for seconds, but a C-extension busy loop could).
    Crash-killed and wedged workers are replaced in place via
    :meth:`respawn`, keeping the pool at size; ``respawns`` counts
    replacements for tests and telemetry.
    """

    def __init__(self, workers: int,
                 heartbeat_interval: float = 0.2,
                 heartbeat_timeout: Optional[float] = None) -> None:
        if workers < 1:
            raise SchedulerError(
                f"pool needs at least one worker, got {workers}")
        self.size = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else max(25 * heartbeat_interval, 5.0))
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._workers: List[_PoolWorker] = []
        self.started = False
        self.respawns = 0

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> _PoolWorker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_loop,
            args=(child_conn, self.heartbeat_interval),
            daemon=True)
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def start(self) -> "WorkerPool":
        if not self.started:
            self._workers = [self._spawn() for _ in range(self.size)]
            self.started = True
        return self

    def workers(self) -> List[_PoolWorker]:
        """Current worker handles (replaced objects after respawns)."""
        self.start()
        return list(self._workers)

    def respawn(self, worker: _PoolWorker) -> _PoolWorker:
        """Kill ``worker`` and replace it in place with a fresh one.

        Uses SIGKILL, not SIGTERM: a stopped (``SIGSTOP``) process
        queues SIGTERM until continued, which would hang the join.
        """
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass
        worker.process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        replacement = self._spawn()
        self._workers[self._workers.index(worker)] = replacement
        self.respawns += 1
        return replacement

    def shutdown(self) -> None:
        """Stop all workers: polite ``None``, then the hammer."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []
        self.started = False

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __len__(self) -> int:
        return self.size


class _PoolTask:
    """One job in flight on a pool worker."""

    def __init__(self, job: Job, task_id: str, started: float) -> None:
        self.job = job
        self.task_id = task_id
        self.started = started


#: Task ids are process-global so two schedulers sharing one pool can
#: never mis-attribute a stale in-flight result to each other.
_TASK_IDS = itertools.count(1)


class Scheduler:
    """Executes a job DAG over a worker pool with a durable cache.

    ``workers`` bounds concurrent worker processes (0 = in-process).
    ``store`` (optional) enables the content-addressed result cache;
    ``rundb`` (optional) records every outcome.  ``on_event`` is
    called as ``on_event(event)`` with a
    :class:`~repro.service.events.JobEvent` at each status transition,
    synchronously, after the transition is stored and recorded; it is
    the only way a transition leaves the scheduler (the CLI's watch
    printer and the gateway's job table and event streams read it),
    and it may call :meth:`cancel` itself.

    With ``workers >= 1`` jobs execute on a :class:`WorkerPool` of
    long-lived workers; pass an existing ``pool`` to share warm
    workers across schedulers (the pool then outlives this run).
    """

    def __init__(self, workers: int = 0,
                 store: Optional[ArtifactStore] = None,
                 rundb: Optional[RunDatabase] = None,
                 run_id: Optional[str] = None,
                 on_event: Optional[Callable[[JobEvent], None]] = None,
                 pool: Optional[WorkerPool] = None) -> None:
        if workers < 0:
            raise SchedulerError(f"workers must be >= 0, got {workers}")
        self.workers = pool.size if pool is not None else workers
        self.store = store
        self.rundb = rundb
        self.run_id = run_id or (
            f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}")
        self.on_event = on_event
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []     # submission order
        self._shared_pool = pool
        self._pool: Optional[WorkerPool] = pool
        self._busy: Dict[_PoolWorker, _PoolTask] = {}
        self._ids = itertools.count(1)

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec, deps: Sequence[str] = (),
               job_id: Optional[str] = None,
               run_id: Optional[str] = None) -> str:
        """Register a job; returns its id.  ``deps`` are prior job ids.

        ``run_id`` overrides the scheduler-wide run id for this job's
        run-database record and event stream — the gateway uses it to
        namespace each tenant submission inside one long-lived
        scheduler.
        """
        job_id = job_id or f"j{next(self._ids):04d}-{spec.job_type}"
        if job_id in self.jobs:
            raise SchedulerError(f"duplicate job id {job_id!r}")
        for dep in deps:
            if dep not in self.jobs:
                raise SchedulerError(
                    f"job {job_id!r} depends on unknown job {dep!r} "
                    "(submit dependencies first)")
        job = Job(job_id, spec, tuple(deps), run_id=run_id or "")
        self.jobs[job_id] = job
        self._order.append(job_id)
        return job_id

    def forget(self, job_id: str) -> None:
        """Drop a *terminal* job from the table.

        Long-lived schedulers (the gateway's) would otherwise grow
        their job table without bound.  Refuses to drop a live job or
        one a non-terminal job still depends on — dependency state is
        resolved through the table.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return
        if not job.done:
            raise SchedulerError(
                f"cannot forget live job {job_id!r} "
                f"(status {job.status})")
        for other in self.jobs.values():
            if not other.done and job_id in other.deps:
                raise SchedulerError(
                    f"cannot forget {job_id!r}: live job "
                    f"{other.job_id!r} depends on it")
        del self.jobs[job_id]
        self._order.remove(job_id)

    def cancel(self, job_id: str) -> None:
        """Withdraw a job; its dependents will be skipped.

        A job already running on a worker has its worker killed and
        respawned and its slot freed — the worker never reports, so
        the cancelled status is final (``_finish`` refuses double
        transitions regardless).
        In-process (``workers=0``) execution cannot interrupt a job
        mid-run; there cancellation applies only to jobs that have
        not started.
        """
        job = self.jobs[job_id]
        if job.done:
            return
        for worker, task in list(self._busy.items()):
            if task.job is job:
                del self._busy[worker]
                self._pool.respawn(worker)
                break
        self._finish(job, CANCELLED)

    # -- state transitions ---------------------------------------------

    def _emit(self, job: Job) -> None:
        if self.on_event is not None:
            self.on_event(JobEvent.from_job(
                job, run_id=job.run_id or self.run_id,
                with_result=(job.status == SUCCEEDED)))

    def _finish(self, job: Job, status: str, result=None,
                error: str = "", wall_s: float = 0.0,
                worker: str = "", cache_hit: bool = False) -> None:
        if job.done:
            # Terminal states are final: a worker reporting after its
            # job was cancelled must not resurrect it (or append a
            # second, contradictory run-database record).
            return
        job.status = status
        job.result = result
        job.error = error
        job.wall_s = wall_s
        job.worker = worker
        job.cache_hit = cache_hit
        if (status == SUCCEEDED and not cache_hit
                and self.store is not None and job.spec.cacheable):
            self.store.put(job.spec.spec_hash,
                           {"result": result,
                            "job_type": job.spec.job_type,
                            "seed": job.spec.seed})
        if self.rundb is not None:
            self.rundb.record(RunRecord(
                run_id=job.run_id or self.run_id, job_id=job.job_id,
                job_type=job.spec.job_type,
                spec_hash=job.spec.spec_hash, status=status,
                attempts=job.attempts, wall_s=wall_s,
                cache_hit=cache_hit, worker=worker, error=error,
                seed=job.spec.seed))
        self._emit(job)

    def _dep_state(self, job: Job) -> str:
        """"ready" | "waiting" | "blocked" from dependency statuses."""
        for dep in job.deps:
            status = self.jobs[dep].status
            if status in (FAILED, TIMEOUT, CANCELLED, SKIPPED):
                return "blocked"
            if status != SUCCEEDED:
                return "waiting"
        return "ready"

    def _serve_from_cache(self, job: Job) -> bool:
        if self.store is None or not job.spec.cacheable:
            return False
        payload = self.store.get(job.spec.spec_hash)
        if payload is None:
            return False
        self._finish(job, SUCCEEDED, result=payload.get("result"),
                     cache_hit=True, worker="cache")
        return True

    def _dep_results(self, job: Job) -> Dict[str, object]:
        return {dep: self.jobs[dep].result for dep in job.deps}

    # -- in-process (workers=0) ----------------------------------------

    def _run_inline(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for job_id in self._order:
                job = self.jobs[job_id]
                if job.done or self._dep_state(job) != "ready":
                    continue
                progressed = True
                if self._serve_from_cache(job):
                    continue
                # Per-job attempt loop: inline mode has no crash
                # isolation and cannot enforce timeouts, but the retry
                # policy still applies to exceptions.
                while True:
                    job.attempts += 1
                    job.status = RUNNING
                    self._emit(job)
                    started = time.perf_counter()
                    ctx = JobContext(
                        seed=job.spec.seed, store=self.store,
                        dep_results=self._dep_results(job))
                    try:
                        result = run_job(job.spec, ctx)
                    except Exception:   # noqa: BLE001
                        status = self._attempt_failed(
                            job, traceback.format_exc(),
                            time.perf_counter() - started, "inline")
                        if status == PENDING:
                            time.sleep(max(
                                0.0, job.not_before
                                - time.perf_counter()))
                            continue
                    else:
                        self._finish(
                            job, SUCCEEDED, result=result,
                            wall_s=time.perf_counter() - started,
                            worker="inline")
                    break
        self._skip_blocked()

    def _attempt_failed(self, job: Job, error: str, wall: float,
                        worker: str, terminal_status: str = FAILED) -> str:
        """Retry ``job`` after backoff while its budget lasts, else end it."""
        if job.done:
            return job.status
        if job.attempts <= job.spec.retries:
            backoff = job.spec.retry_backoff * (
                2 ** (job.attempts - 1))
            job.status = PENDING
            job.not_before = time.perf_counter() + backoff
            job.error = error
            self._emit(job)
            return PENDING
        self._finish(job, terminal_status, error=error, wall_s=wall,
                     worker=worker)
        return terminal_status

    def _skip_blocked(self) -> None:
        """Mark jobs whose dependencies terminally failed as skipped."""
        progressed = True
        while progressed:
            progressed = False
            for job in self.jobs.values():
                if not job.done and self._dep_state(job) == "blocked":
                    failed_deps = [
                        d for d in job.deps
                        if self.jobs[d].status in
                        (FAILED, TIMEOUT, CANCELLED, SKIPPED)]
                    self._finish(
                        job, SKIPPED,
                        error="dependency failed: "
                              + ", ".join(failed_deps))
                    progressed = True

    # -- persistent pool -----------------------------------------------

    def _dispatch(self, job: Job, worker: _PoolWorker) -> None:
        """Hand ``job`` to an idle pool worker."""
        import pickle

        job.attempts += 1
        job.status = RUNNING
        self._emit(job)
        if job.done:
            # cancel() fired from the RUNNING event before the task
            # was sent; the worker was never involved, leave it idle.
            return
        task_id = f"t{next(_TASK_IDS)}"
        spec_bytes = pickle.dumps(job.spec)
        worker.last_beat = time.perf_counter()
        try:
            worker.conn.send((task_id, spec_bytes,
                              str(self.store.root)
                              if self.store is not None else None,
                              job.spec.seed, self._dep_results(job)))
        except (BrokenPipeError, OSError):
            # Worker died between loop iterations; replace it and put
            # the attempt through the normal retry policy.
            self._pool.respawn(worker)
            self._attempt_failed(
                job, "worker died before accepting the job", 0.0,
                worker.label)
            return
        except Exception:
            # Unpicklable dependency results: the job cannot travel.
            self._attempt_failed(
                job, "job could not be shipped to a worker:\n"
                + traceback.format_exc(), 0.0, worker.label)
            return
        self._busy[worker] = _PoolTask(job, task_id,
                                       time.perf_counter())

    def _pool_message(self, worker: _PoolWorker, message) -> None:
        """Process one parent-bound pipe message from ``worker``."""
        if message[0] == "hb":
            worker.last_beat = time.perf_counter()
            return
        _, task_id, status, payload = message
        task = self._busy.get(worker)
        if task is None or task.task_id != task_id:
            return  # stale result for a task already written off
        del self._busy[worker]
        job = task.job
        wall = time.perf_counter() - task.started
        if status == "ok":
            self._finish(job, SUCCEEDED, result=payload, wall_s=wall,
                         worker=worker.label)
        else:
            self._attempt_failed(job, str(payload), wall, worker.label)

    def _pool_worker_died(self, worker: _PoolWorker) -> None:
        """A pool worker's process ended or its pipe broke."""
        task = self._busy.pop(worker, None)
        exitcode = worker.process.exitcode
        self._pool.respawn(worker)
        if task is not None and not task.job.done:
            wall = time.perf_counter() - task.started
            self._attempt_failed(
                task.job,
                f"worker crashed with exit code {exitcode} "
                "before reporting", wall, worker.label)

    def _pool_deadlines(self) -> None:
        """Kill over-budget / wedged workers."""
        now = time.perf_counter()
        for worker, task in list(self._busy.items()):
            job = task.job
            timeout = job.spec.timeout
            if timeout is not None and now - task.started > timeout:
                del self._busy[worker]
                self._pool.respawn(worker)
                wall = now - task.started
                error = (f"timeout: exceeded {timeout:.3f}s budget "
                         f"after {wall:.3f}s")
                if job.spec.retry_on_timeout:
                    self._attempt_failed(job, error, wall, worker.label,
                                         terminal_status=TIMEOUT)
                else:
                    self._finish(job, TIMEOUT, error=error,
                                 wall_s=wall, worker=worker.label)
                continue
            if (worker.process.is_alive() and now > worker.last_beat
                    + self._pool.heartbeat_timeout):
                del self._busy[worker]
                self._pool.respawn(worker)
                wall = now - task.started
                self._attempt_failed(
                    job,
                    "worker wedged: no heartbeat for "
                    f"{now - worker.last_beat:.3f}s", wall,
                    worker.label)

    def service_open(self) -> None:
        """Prepare for stepped pool execution.

        Starts the pool (creating an owned one if none was shared) and
        resets in-flight bookkeeping.  Pair with :meth:`service_close`.
        """
        self._check_acyclic()
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
        self._pool.start()
        self._busy = {}

    def service_step(self) -> Optional[Tuple[List[object],
                                             Optional[float]]]:
        """One scheduling quantum; never waits.

        Reads every worker message and death that is already there,
        enforces timeouts and heartbeats, and dispatches ready jobs
        onto idle workers.  Returns ``None`` when no job is live, else
        ``(handles, deadline)``: the worker pipes and process sentinels
        to wait on, and the ``time.perf_counter()`` instant of the next
        job timeout, heartbeat or backoff gate (``None`` if there is
        none).  Any handle becoming ready, or the deadline passing,
        calls for the next step.  Each step reads every handle, so it
        does not matter which one woke the caller.

        :meth:`run` waits with :func:`multiprocessing.connection.wait`;
        the gateway waits on its event loop.
        """
        pool = self._pool
        handles = self._handles()
        dead = []
        for handle in _conn_wait(list(handles), timeout=0):
            worker = handles[handle]
            if handle is worker.conn:
                try:
                    while worker.conn.poll():
                        self._pool_message(worker, worker.conn.recv())
                except (EOFError, OSError):
                    dead.append(worker)
            elif not worker.process.is_alive():
                dead.append(worker)
        for worker in dict.fromkeys(dead):
            # Drain any result sent before death, then handle it.
            try:
                while worker.conn.poll():
                    self._pool_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            if worker in pool.workers():
                self._pool_worker_died(worker)
        self._pool_deadlines()
        self._skip_blocked()
        # Launch ready jobs onto idle workers (submission order; a
        # job in backoff yields its slot to later ready jobs).  A
        # dispatch that leaves its worker idle (the job was cancelled
        # from its RUNNING event, or never reached the worker) hands
        # the worker to the next ready job.
        now = time.perf_counter()
        idle = [w for w in pool.workers() if w not in self._busy]
        for job_id in self._order:
            if not idle:
                break
            job = self.jobs[job_id]
            if (job.done or job.status == RUNNING
                    or self._dep_state(job) != "ready"
                    or job.not_before > now):
                continue
            if self._serve_from_cache(job):
                continue
            self._dispatch(job, idle[0])
            idle = [w for w in pool.workers() if w not in self._busy]
        self._skip_blocked()
        if all(job.done for job in self.jobs.values()):
            return None
        # What can happen next: a worker message, a worker death
        # (sentinel), or the earliest job timeout, heartbeat or backoff
        # gate.  Event-driven — no fixed-rate polling while jobs run.
        # An instant that passes before the caller waits makes it step
        # again at once, and that step enforces it.
        now = time.perf_counter()
        instants = [job.not_before for job in self.jobs.values()
                    if not job.done and job.status != RUNNING
                    and job.not_before > now]
        for worker, task in self._busy.items():
            instants.append(worker.last_beat + pool.heartbeat_timeout)
            if task.job.spec.timeout is not None:
                instants.append(task.started + task.job.spec.timeout)
        return list(self._handles()), min(instants, default=None)

    def _handles(self) -> Dict[object, _PoolWorker]:
        """Each worker's pipe and process sentinel -> the worker."""
        handles: Dict[object, _PoolWorker] = {}
        for worker in self._pool.workers():
            handles[worker.conn] = worker
            handles[worker.process.sentinel] = worker
        return handles

    def service_close(self) -> None:
        """Tear down stepped execution (shuts down an owned pool)."""
        if self._shared_pool is None and self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._busy = {}

    # -- entry point ---------------------------------------------------

    def run(self) -> Dict[str, Job]:
        """Drain the DAG; returns the final job table."""
        if self.workers == 0:
            self._check_acyclic()
            self._run_inline()
        else:
            self.service_open()
            try:
                while (wait := self.service_step()) is not None:
                    handles, deadline = wait
                    _conn_wait(handles, timeout=None if deadline is None
                               else max(0.0, deadline
                                        - time.perf_counter()))
            finally:
                self.service_close()
        return dict(self.jobs)

    def _check_acyclic(self) -> None:
        state: Dict[str, int] = {}   # 0 visiting, 1 done

        def visit(job_id: str, chain: Tuple[str, ...]) -> None:
            mark = state.get(job_id)
            if mark == 1:
                return
            if mark == 0:
                raise SchedulerError(
                    "dependency cycle: " + " -> ".join(
                        chain + (job_id,)))
            state[job_id] = 0
            for dep in self.jobs[job_id].deps:
                visit(dep, chain + (job_id,))
            state[job_id] = 1

        for job_id in self._order:
            visit(job_id, ())

    # -- results -------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Status -> job count."""
        out: Dict[str, int] = {}
        for job in self.jobs.values():
            out[job.status] = out.get(job.status, 0) + 1
        return out
