"""Multi-tenant evaluation gateway: the service stack over HTTP.

A long-running, stdlib-only ``asyncio`` HTTP server that owns one
shared :class:`~repro.service.scheduler.WorkerPool` (warm workers), a
:class:`~repro.service.rundb.RunDatabase`, and an
:class:`~repro.service.store.ArtifactStore`, and serves every
registered job type and campaign to many tenants at once.  This is
the paper's "security evaluation as a service" stance made literal:
composition checks, locking sweeps, and closure runs submitted by
independent design teams against one warm evaluation backend.

Architecture — one scheduler, one executor thread, an event bus:

* All HTTP handlers run on one asyncio loop (its own thread).  They
  never touch the scheduler directly: submissions and cancellations
  are *commands* on a thread-safe queue.
* One **executor thread** owns the long-lived
  :class:`~repro.service.scheduler.Scheduler` and its pool, alternating
  between command processing and
  :meth:`~repro.service.scheduler.Scheduler.service_step`.  A wake
  pipe is part of the scheduler's wait set, so a new submission
  interrupts the step's sleep instead of riding out its quantum.
  Two threads stepping one pool would race its pipes; one thread,
  by construction, cannot.
* The scheduler publishes every state transition to an
  :class:`~repro.service.events.EventBus`.  A small apply thread
  folds events into the gateway's job table (tenant ownership,
  latest state, results), releases quota, grants artifact
  visibility, and prunes fully-terminal submissions from the
  scheduler; SSE handlers subscribe to the same bus.

Tenancy: every request carries a token (``Authorization: Bearer`` or
``X-Repro-Token``) resolved through a
:class:`~repro.service.tenants.TenantRegistry`.  Requests are
token-bucket rate-limited per tenant (429), live jobs are quota-bound
per tenant (503), run-database records live under per-tenant run-id
namespaces, and artifact pins are tenant-namespaced refs — one
tenant's ``gc`` can never sweep another's inputs.

Gateway-submitted jobs are *bit-identical* to CLI submissions: the
same :class:`~repro.service.jobs.JobSpec` construction — for
campaigns, the same plan function — yields the same ``spec_hash``,
so a job computed over one transport is a cache hit over the other.

Dispatcher-level errors (any route):

    401 unauthenticated     missing or unknown token
    404 not_found           no route matches the path
    405 method_not_allowed  path exists, method does not
    413 too_large           request body over the size cap (the body
                            is left unread, so the connection closes)
    429 rate_limited        token bucket empty (Retry-After set)
    400 bad_request         body is not valid JSON, or not an object
    500 internal            unhandled handler failure
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing.util
import os
import queue
import re
import threading
import time
import traceback
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..netlist import netlist_from_dict
from .campaigns import CAMPAIGN_PLANS
from .events import EventBus, JobEvent
from .jobs import JobSpec, registered_job_types
from .rundb import RunDatabase
from .scheduler import Scheduler
from .store import ArtifactStore, validate_digest
from .tenants import (
    NamespacedRunDatabase,
    Tenant,
    TenantRegistry,
    TokenBucket,
    namespace_run_id,
    tenant_pin_ref,
)

#: Request bodies over this are refused (413) before buffering more.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: User-supplied pin reference names (the tenant namespace prefix is
#: added by the gateway, so a ref can never address another tenant's).
_USER_REF_OK = re.compile(r"\A[A-Za-z0-9._@-]{1,64}\Z")


class GatewayError(Exception):
    """An HTTP error response: status, machine code, human message."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def payload(self) -> Dict[str, object]:
        return {"error": {"code": self.code, "message": self.message}}


# -- request plumbing --------------------------------------------------


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: Dict[str, object]
    #: Why the body cannot be served (too large, not a JSON object);
    #: the dispatcher answers it before routing.
    error: Optional["GatewayError"] = field(default=None, init=False)


@dataclass(frozen=True)
class Route:
    """One API route: method + path pattern -> handler.

    ``pattern`` segments of the form ``{name}`` capture one path
    segment.  ``kind`` is ``"json"`` (handler returns
    ``(status, payload)``) or ``"sse"`` (handler returns a stream
    descriptor the dispatcher serves as Server-Sent Events).
    """

    method: str
    pattern: str
    handler: Callable
    kind: str = "json"

    def match(self, path: str) -> Optional[Dict[str, str]]:
        want = self.pattern.strip("/").split("/")
        have = path.strip("/").split("/")
        if len(want) != len(have):
            return None
        params: Dict[str, str] = {}
        for w, h in zip(want, have):
            if w.startswith("{") and w.endswith("}"):
                if not h:
                    return None
                params[w[1:-1]] = urllib.parse.unquote(h)
            elif w != h:
                return None
        return params


# -- gateway-side job/submission state ---------------------------------


@dataclass
class _JobView:
    """The gateway's durable view of one submitted job.

    Outlives the scheduler's own job entry (which is pruned once a
    submission is fully terminal) so status and results stay
    queryable for the server's lifetime.
    """

    job_id: str
    tenant: str
    submission_id: str
    event: JobEvent
    terminal: bool = False

    def to_dict(self, with_result: bool = True) -> Dict[str, object]:
        e = self.event
        out = {
            "job_id": self.job_id,
            "submission_id": self.submission_id,
            "run_id": self.submission_id,
            "job_type": e.job_type,
            "spec_hash": e.spec_hash,
            "status": e.status,
            "attempts": e.attempts,
            "cache_hit": e.cache_hit,
            "wall_s": e.wall_s,
            "worker": e.worker,
            "error": e.error,
        }
        if with_result and e.status == "succeeded":
            out["result"] = e.result
        return out


@dataclass
class _Submission:
    """One POST of jobs (single job or expanded campaign)."""

    submission_id: str
    tenant: str
    kind: str                   # "job" | campaign name
    job_ids: List[str]
    pinned: List[str]           # input digests pinned under this ref
    remaining: int = 0


@dataclass
class _TenantState:
    """Mutable per-tenant accounting (guarded by the gateway lock)."""

    tenant: Tenant
    bucket: TokenBucket
    in_flight: int = 0
    digests: Set[str] = field(default_factory=set)


# -- request-body -> JobSpec -------------------------------------------


def spec_from_body(body: Dict[str, object]) -> JobSpec:
    """Build the canonical :class:`JobSpec` for a submit-job body.

    This is *the* submission path: the CLI-equivalent spec is built
    from the same fields (job type, params, seed, execution policy),
    so the resulting ``spec_hash`` is transport-independent.  Raises
    :class:`GatewayError` (400) on malformed bodies and unregistered
    job types — every *registered* type is accepted, which
    ``scripts/check_api.py`` proves against the registry.
    """
    job_type = body.get("job_type")
    if not isinstance(job_type, str) or not job_type:
        raise GatewayError(400, "bad_request",
                           "missing or invalid 'job_type'")
    if job_type not in registered_job_types():
        raise GatewayError(
            400, "bad_request",
            f"unknown job type {job_type!r}; registered: "
            + ", ".join(sorted(registered_job_types())))
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise GatewayError(400, "bad_request",
                           "'params' must be an object")
    timeout = body.get("timeout")
    try:
        return JobSpec(
            job_type, params=params,
            seed=int(body.get("seed", 0)),
            timeout=None if timeout is None else float(timeout),
            retries=int(body.get("retries", 0)),
            retry_backoff=float(body.get("retry_backoff", 0.05)),
            retry_on_timeout=bool(body.get("retry_on_timeout", False)),
            cacheable=bool(body.get("cacheable", True)))
    except (TypeError, ValueError) as exc:
        raise GatewayError(400, "bad_request",
                           f"invalid job spec: {exc}") from None


# -- route handlers ----------------------------------------------------
#
# Module-level async functions taking (gw, tenant, params, body,
# query): the explicit ``tenant`` argument is the scoping contract
# (statically audited — no handler can be registered without it).


async def handle_submit_job(gw: "Gateway", tenant: Tenant,
                            params: Dict[str, str],
                            body: Dict[str, object],
                            query: Dict[str, str]):
    """Submit one job of any registered type.

    Body: ``{"job_type", "params", "seed", "timeout", "retries",
    "retry_backoff", "retry_on_timeout", "cacheable"}`` (all but
    ``job_type`` optional).  Digest-shaped strings in ``params`` must
    name artifacts visible to the submitting tenant.

    Errors:
        400 bad_request     malformed body / unknown job type
        404 not_found       params reference an artifact not visible
        503 quota_exceeded  tenant's max_in_flight reached
    """
    del params, query
    spec = spec_from_body(body)
    gw._require_param_digests(tenant, spec)
    return 202, await gw._submit(tenant, [spec], pins=[], kind="job")


async def handle_submit_campaign(gw: "Gateway", tenant: Tenant,
                                 params: Dict[str, str],
                                 body: Dict[str, object],
                                 query: Dict[str, str]):
    """Submit a named campaign, planned server-side into jobs.

    Body: ``{"campaign": "sweep"|"closure"|"compose", ...}``; the other
    fields are the keyword arguments of the campaign's plan in
    :data:`~repro.service.campaigns.CAMPAIGN_PLANS` (bench/widths,
    benches/thresholds, design/stacks/engine, seed, ...), the same
    plan the CLI and the library campaign clients use.  Input
    netlists are published and pinned under a tenant-scoped ref for
    the submission's lifetime.

    Errors:
        400 bad_request     unknown campaign / malformed fields
        503 quota_exceeded  tenant's max_in_flight reached
    """
    del params, query
    name = body.get("campaign")
    plan = CAMPAIGN_PLANS.get(name) if isinstance(name, str) else None
    if plan is None:
        raise GatewayError(
            400, "bad_request",
            f"unknown campaign {name!r}; choose from "
            f"{sorted(CAMPAIGN_PLANS)}")
    fields = {k: v for k, v in body.items() if k != "campaign"}
    try:
        specs, input_digests = plan(gw.store, **fields)
    except (TypeError, ValueError) as exc:
        raise GatewayError(400, "bad_request",
                           f"invalid {name} campaign: {exc}") from None
    return 202, await gw._submit(tenant, specs, pins=input_digests,
                                 kind=name)


async def handle_list_jobs(gw: "Gateway", tenant: Tenant,
                           params: Dict[str, str],
                           body: Dict[str, object],
                           query: Dict[str, str]):
    """List the tenant's jobs (newest first; ``?limit=N``, ``?status=``).

    Errors:
        400 bad_request     non-integer limit
    """
    del params, body
    try:
        limit = int(query.get("limit", 200))
    except ValueError:
        raise GatewayError(400, "bad_request",
                           "'limit' must be an integer") from None
    status = query.get("status")
    with gw._lock:
        views = [v for v in gw._jobs.values() if v.tenant == tenant.name]
    views.reverse()
    if status:
        views = [v for v in views if v.event.status == status]
    return 200, {"jobs": [v.to_dict(with_result=False)
                          for v in views[:max(0, limit)]]}


async def handle_get_job(gw: "Gateway", tenant: Tenant,
                         params: Dict[str, str],
                         body: Dict[str, object],
                         query: Dict[str, str]):
    """One job's current state (includes the result once succeeded).

    Errors:
        404 not_found       unknown job id, or another tenant's job
    """
    del body, query
    view = gw._view_for(tenant, params["job_id"])
    return 200, view.to_dict()


async def handle_job_events(gw: "Gateway", tenant: Tenant,
                            params: Dict[str, str],
                            body: Dict[str, object],
                            query: Dict[str, str]):
    """Server-Sent Events stream of one job's state transitions.

    Emits the current state immediately, then every transition as it
    happens (``event: job``, JSON data), ending after the terminal
    one.  Cancelling the job closes the stream cleanly with its
    ``cancelled`` event.

    Errors:
        404 not_found       unknown job id, or another tenant's job
    """
    del body, query
    view = gw._view_for(tenant, params["job_id"])
    with gw._lock:
        snapshot = view.event
    sub = gw.bus.subscribe(job_ids=[view.job_id], replay=True,
                           after_seq=snapshot.seq)
    return "sse", snapshot, sub


async def handle_cancel_job(gw: "Gateway", tenant: Tenant,
                            params: Dict[str, str],
                            body: Dict[str, object],
                            query: Dict[str, str]):
    """Cancel a live job; dependents are skipped, the SSE stream ends.

    Errors:
        404 not_found       unknown job id, or another tenant's job
        409 conflict        job already terminal
    """
    del body, query
    view = gw._view_for(tenant, params["job_id"])
    with gw._lock:
        if view.terminal:
            raise GatewayError(409, "conflict",
                               f"job {view.job_id} is already "
                               f"{view.event.status}")
    status, payload = await gw._command_reply(("cancel", view.job_id))
    if status == "error":
        raise GatewayError(409, "conflict",
                           f"job {view.job_id} can no longer be "
                           f"cancelled: {payload}")
    return 202, {"job_id": view.job_id, "cancelling": True}


async def handle_runs(gw: "Gateway", tenant: Tenant,
                      params: Dict[str, str],
                      body: Dict[str, object],
                      query: Dict[str, str]):
    """Query the tenant's slice of the run database.

    Filters: ``?run=``, ``?type=``, ``?status=``, ``?cache=hit|miss``,
    ``?spec_hash=``.  Run ids are tenant-local submission ids.

    Errors:
        400 bad_request     invalid cache filter
    """
    del params, body
    cache = query.get("cache")
    if cache not in (None, "hit", "miss"):
        raise GatewayError(400, "bad_request",
                           "'cache' must be 'hit' or 'miss'")
    view = NamespacedRunDatabase(gw.rundb, tenant.name) \
        if gw.rundb is not None else None
    if view is None:
        return 200, {"records": [], "runs": []}
    records = view.query(
        run_id=query.get("run"), job_type=query.get("type"),
        status=query.get("status"),
        cache_hit=None if cache is None else cache == "hit",
        spec_hash=query.get("spec_hash"))
    return 200, {"records": [r.as_dict() for r in records],
                 "runs": view.run_ids()}


async def handle_get_artifact(gw: "Gateway", tenant: Tenant,
                              params: Dict[str, str],
                              body: Dict[str, object],
                              query: Dict[str, str]):
    """Download an artifact payload by content digest.

    Only digests visible to the tenant — published by it, named in
    its submissions, or produced by its succeeded jobs — are served;
    everything else is indistinguishable from absent.

    Errors:
        400 bad_request     malformed digest (not 64-hex)
        404 not_found       artifact absent or not visible
    """
    del body, query
    digest = gw._checked_digest(params["digest"])
    gw._require_visible(tenant, digest)
    payload = gw.store.get(digest)
    if payload is None:
        raise GatewayError(404, "not_found",
                           f"artifact {digest} not found")
    return 200, {"digest": digest, "payload": payload}


async def handle_publish_netlist(gw: "Gateway", tenant: Tenant,
                                 params: Dict[str, str],
                                 body: Dict[str, object],
                                 query: Dict[str, str]):
    """Publish an input netlist; returns its content digest.

    Body is the transport dict form
    (:func:`repro.netlist.netlist_to_dict`).  The artifact is pinned
    under the tenant's ``published`` ref (its GC root) and becomes
    visible to — only — the publishing tenant.

    Errors:
        400 bad_request     body is not a valid netlist transport dict,
                            or its netlist does not validate (an
                            undriven fanin, a combinational cycle);
                            nothing is stored or pinned
    """
    del params, query
    try:
        netlist = netlist_from_dict(body)
    except Exception as exc:   # noqa: BLE001 — any parse failure is a 400
        raise GatewayError(400, "bad_request",
                           f"not a netlist transport dict: {exc}") \
            from None
    digest = gw.store.put_netlist(netlist)
    gw.store.pin(digest, ref=tenant_pin_ref(tenant.name, "published"))
    with gw._lock:
        gw._tenant_state[tenant.name].digests.add(digest)
    return 201, {"digest": digest, "name": netlist.name}


async def handle_pin(gw: "Gateway", tenant: Tenant,
                     params: Dict[str, str],
                     body: Dict[str, object],
                     query: Dict[str, str]):
    """Pin a visible artifact under a tenant-scoped reference.

    Body: ``{"ref": name}`` (default ``"default"``).  The stored ref
    is namespaced ``tenant:<name>:<ref>`` — pinning is per-tenant
    ref-counted, and no tenant can release another's pins.

    Errors:
        400 bad_request     malformed digest or ref name
        404 not_found       artifact not visible to this tenant
    """
    del query
    digest = gw._checked_digest(params["digest"])
    gw._require_visible(tenant, digest)
    ref = gw._checked_ref(body.get("ref", "default"))
    gw.store.pin(digest, ref=tenant_pin_ref(tenant.name, ref))
    return 200, {"digest": digest, "ref": ref, "pinned": True}


async def handle_unpin(gw: "Gateway", tenant: Tenant,
                       params: Dict[str, str],
                       body: Dict[str, object],
                       query: Dict[str, str]):
    """Drop one of the tenant's own pin references from an artifact.

    Only refs in the tenant's namespace can be released; the response
    reports whether the ref existed.

    Errors:
        400 bad_request     malformed digest or ref name
        404 not_found       artifact not visible to this tenant
    """
    del query
    digest = gw._checked_digest(params["digest"])
    gw._require_visible(tenant, digest)
    ref = gw._checked_ref(body.get("ref", "default"))
    existed = gw.store.unpin(digest,
                             ref=tenant_pin_ref(tenant.name, ref))
    return 200, {"digest": digest, "ref": ref, "unpinned": existed}


async def handle_status(gw: "Gateway", tenant: Tenant,
                        params: Dict[str, str],
                        body: Dict[str, object],
                        query: Dict[str, str]):
    """The tenant's quota usage and the server's execution footprint.

    Errors:
        (dispatcher-level only)
    """
    del params, body, query
    with gw._lock:
        state = gw._tenant_state[tenant.name]
        own = [v for v in gw._jobs.values() if v.tenant == tenant.name]
        by_status: Dict[str, int] = {}
        for v in own:
            by_status[v.event.status] = by_status.get(
                v.event.status, 0) + 1
        return 200, {
            "tenant": tenant.name,
            "in_flight": state.in_flight,
            "max_in_flight": tenant.max_in_flight,
            "rate": tenant.rate,
            "burst": tenant.burst,
            "jobs": by_status,
            "artifacts_visible": len(state.digests),
            "workers": gw.workers,
        }


#: The gateway's complete API surface.  ``scripts/check_api.py``
#: audits this table: every handler is tenant-scoped, documented, and
#: carries an error-code table.
ROUTES: List[Route] = [
    Route("POST", "/v1/jobs", handle_submit_job),
    Route("POST", "/v1/campaigns", handle_submit_campaign),
    Route("GET", "/v1/jobs", handle_list_jobs),
    Route("GET", "/v1/jobs/{job_id}", handle_get_job),
    Route("GET", "/v1/jobs/{job_id}/events", handle_job_events,
          kind="sse"),
    Route("POST", "/v1/jobs/{job_id}/cancel", handle_cancel_job),
    Route("GET", "/v1/runs", handle_runs),
    Route("GET", "/v1/artifacts/{digest}", handle_get_artifact),
    Route("POST", "/v1/netlists", handle_publish_netlist),
    Route("POST", "/v1/artifacts/{digest}/pin", handle_pin),
    Route("POST", "/v1/artifacts/{digest}/unpin", handle_unpin),
    Route("GET", "/v1/status", handle_status),
]


class Gateway:
    """The multi-tenant evaluation server.  See the module docstring.

    ``start()`` brings up the executor thread, the event-apply
    thread, and the asyncio HTTP server (on its own thread) and
    returns ``(host, port)`` — with ``port=0`` an ephemeral port is
    chosen, which is what tests and the load benchmark use.
    ``shutdown()`` drains: stops accepting, cancels live jobs, shuts
    the worker pool down (no orphan processes), and closes the bus so
    every SSE stream ends.
    """

    def __init__(self, store: ArtifactStore,
                 registry: TenantRegistry,
                 rundb: Optional[RunDatabase] = None,
                 workers: int = 2,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        if workers < 1:
            raise ValueError("gateway needs at least one worker")
        self.store = store
        self.rundb = rundb
        self.registry = registry
        self.workers = workers
        self.host = host
        self.port = port
        self.bus = EventBus()
        self.scheduler = Scheduler(
            workers=workers, store=store, rundb=rundb,
            run_id="gateway", bus=self.bus)
        self._lock = threading.RLock()
        self._jobs: Dict[str, _JobView] = {}
        self._submissions: Dict[str, _Submission] = {}
        self._tenant_state: Dict[str, _TenantState] = {
            t.name: _TenantState(t, TokenBucket(t.rate, t.burst))
            for t in registry.tenants()}
        self._counter = itertools.count(1)
        self._commands: "queue.SimpleQueue" = queue.SimpleQueue()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._stop = threading.Event()
        self._started = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = threading.Thread(
            target=self._executor_main, name="gw-executor", daemon=True)
        self._applier = threading.Thread(
            target=self._apply_events, name="gw-events", daemon=True)
        # Pool respawns fork while client connections are open; the
        # child would inherit duplicate connection fds and keep them
        # open past the server's close (no EOF ever reaches the
        # client).  This hook runs in every forked child and drops
        # the inherited copies.
        self._client_socks: Set[object] = set()
        multiprocessing.util.register_after_fork(
            self, Gateway._close_inherited_sockets)

    def _close_inherited_sockets(self) -> None:
        server = self._server
        socks = list(self._client_socks) + list(
            server.sockets if server is not None else [])
        for sock in socks:
            # asyncio hands out TransportSocket views, which have no
            # close() (the hook would die on AttributeError, silently:
            # multiprocessing swallows after-fork errors); the socket
            # object beneath owns the descriptor.
            try:
                getattr(sock, "_sock", sock).close()
            except OSError:
                pass

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Serve; returns the bound (host, port)."""
        if self._started:
            return self.host, self.port
        self._restore_grants()
        # Fork the initial workers before the server accepts anything,
        # so no connection is open for them to inherit.
        self.scheduler.service_open()
        self._applier.start()
        self._executor.start()
        self._loop = asyncio.new_event_loop()
        loop_ready = threading.Event()

        def run_loop() -> None:
            asyncio.set_event_loop(self._loop)
            loop_ready.set()
            self._loop.run_forever()

        self._loop_thread = threading.Thread(
            target=run_loop, name="gw-http", daemon=True)
        self._loop_thread.start()
        loop_ready.wait()
        fut = asyncio.run_coroutine_threadsafe(
            self._start_server(), self._loop)
        fut.result(timeout=10.0)
        self._started = True
        return self.host, self.port

    async def _start_server(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    def shutdown(self) -> None:
        """Drain and stop: no requests, no live jobs, no workers."""
        if not self._started:
            return
        self._started = False
        # 1. Stop accepting connections.
        fut = asyncio.run_coroutine_threadsafe(
            self._close_server(), self._loop)
        try:
            fut.result(timeout=5.0)
        except Exception:   # noqa: BLE001 — best-effort teardown
            pass
        # 2. Stop the executor: it cancels live jobs (emitting their
        #    terminal events) and shuts the pool down.
        self._stop.set()
        self._wake()
        self._executor.join(timeout=30.0)
        # 3. Close the bus: every SSE stream and the applier end.
        self.bus.close()
        self._applier.join(timeout=10.0)
        # 4. Cancel lingering connection handlers (idle keep-alive
        #    clients), then stop the HTTP loop.
        fut = asyncio.run_coroutine_threadsafe(
            self._cancel_handlers(), self._loop)
        try:
            fut.result(timeout=5.0)
        except Exception:   # noqa: BLE001 — best-effort teardown
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5.0)
        if not self._loop_thread.is_alive():
            self._loop.close()
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    async def _cancel_handlers(self) -> None:
        tasks = [t for t in asyncio.all_tasks()
                 if t is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=2.0)
            except asyncio.TimeoutError:
                pass

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- executor thread -----------------------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _drain_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _command_sync(self, cmd: Tuple) -> None:
        self._commands.put(cmd)
        self._wake()

    async def _command_reply(self, cmd: Tuple) -> Tuple[str, object]:
        """Send a command and await the executor's reply off-loop."""
        reply: "queue.SimpleQueue" = queue.SimpleQueue()
        self._command_sync(cmd + (reply,))
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, reply.get)

    def _executor_main(self) -> None:
        try:
            while not self._stop.is_set():
                self._drain_wake()
                while True:
                    try:
                        cmd = self._commands.get_nowait()
                    except queue.Empty:
                        break
                    self._handle_command(cmd)
                idle = self.scheduler.service_step(
                    max_wait=0.5, extra=(self._wake_r,))
                if idle and not self._stop.is_set():
                    # Nothing live: block on the command queue instead
                    # of spinning through empty scheduling quanta.
                    try:
                        cmd = self._commands.get(timeout=0.25)
                    except queue.Empty:
                        continue
                    self._handle_command(cmd)
        finally:
            # Drain: withdraw everything still live (each cancel emits
            # its terminal event), then shut the pool down — after
            # this, no worker process of ours is left running.
            for job in list(self.scheduler.jobs.values()):
                if not job.done:
                    try:
                        self.scheduler.cancel(job.job_id)
                    except Exception:   # noqa: BLE001
                        pass
            self.scheduler.service_close()

    def _handle_command(self, cmd: Tuple) -> None:
        kind = cmd[0]
        if kind == "submit":
            _, entries, reply = cmd
            try:
                for spec, job_id, run_id in entries:
                    self.scheduler.submit(spec, job_id=job_id,
                                          run_id=run_id)
                reply.put(("ok", [e[1] for e in entries]))
            except Exception as exc:   # noqa: BLE001
                reply.put(("error", f"{exc}"))
        elif kind == "cancel":
            _, job_id, reply = cmd
            try:
                self.scheduler.cancel(job_id)
                reply.put(("ok", job_id))
            except Exception as exc:   # noqa: BLE001
                reply.put(("error", f"{exc}"))
        elif kind == "forget":
            for job_id in cmd[1]:
                try:
                    self.scheduler.forget(job_id)
                except Exception:   # noqa: BLE001
                    pass

    # -- event application ---------------------------------------------

    def _apply_events(self) -> None:
        sub = self.bus.subscribe()
        for event in sub:
            grants: Set[str] = set()
            forget: Optional[List[str]] = None
            unpin: List[Tuple[str, str]] = []
            with self._lock:
                view = self._jobs.get(event.job_id)
                if view is None or event.seq <= view.event.seq:
                    continue
                view.event = event
                if not event.terminal or view.terminal:
                    continue
                view.terminal = True
                state = self._tenant_state.get(view.tenant)
                if state is not None:
                    state.in_flight = max(0, state.in_flight - 1)
                submission = self._submissions.get(view.submission_id)
                if submission is not None:
                    submission.remaining -= 1
                    if submission.remaining <= 0:
                        forget = list(submission.job_ids)
                        unpin = [(d, tenant_pin_ref(
                            submission.tenant,
                            submission.submission_id))
                            for d in submission.pinned]
                if event.status == "succeeded" and event.spec_hash:
                    grants.add(event.spec_hash)
            if grants:
                # One-hop references (e.g. a closure job's published
                # layout) become visible with the result.  Store I/O
                # happens outside the lock.
                refs: Set[str] = set()
                for digest in grants:
                    refs |= self.store.referenced_digests(digest)
                with self._lock:
                    state = self._tenant_state.get(view.tenant)
                    if state is not None:
                        state.digests |= grants | refs
            for digest, ref in unpin:
                try:
                    self.store.unpin(digest, ref=ref)
                except (OSError, ValueError):
                    pass
            if forget:
                self._command_sync(("forget", forget))

    def _restore_grants(self) -> None:
        """Rebuild tenant artifact visibility from the run database.

        A restarted gateway must let tenants fetch results of jobs
        they ran before the restart: every succeeded record in a
        tenant's namespace re-grants its spec hash (and one-hop
        references).
        """
        if self.rundb is None:
            return
        for tenant in self.registry.tenants():
            view = NamespacedRunDatabase(self.rundb, tenant.name)
            granted: Set[str] = set()
            for rec in view.query(status="succeeded"):
                if not rec.spec_hash:
                    continue
                granted.add(rec.spec_hash)
                granted |= self.store.referenced_digests(rec.spec_hash)
            if granted:
                with self._lock:
                    self._tenant_state[tenant.name].digests |= granted

    # -- submission ----------------------------------------------------

    async def _submit(self, tenant: Tenant, specs: List[JobSpec],
                      pins: List[str], kind: str) -> Dict[str, object]:
        with self._lock:
            state = self._tenant_state[tenant.name]
            if state.in_flight + len(specs) > tenant.max_in_flight:
                raise GatewayError(
                    503, "quota_exceeded",
                    f"tenant {tenant.name!r} has {state.in_flight} "
                    f"jobs in flight; submitting {len(specs)} more "
                    f"would exceed max_in_flight="
                    f"{tenant.max_in_flight}")
            submission_id = f"s{next(self._counter):06d}"
            run_id = namespace_run_id(tenant.name, submission_id)
            entries = []
            for spec in specs:
                job_id = (f"g{next(self._counter):06d}"
                          f"-{spec.job_type}")
                entries.append((spec, job_id, run_id))
                self._jobs[job_id] = _JobView(
                    job_id=job_id, tenant=tenant.name,
                    submission_id=submission_id,
                    event=JobEvent(
                        job_id=job_id, status="pending",
                        job_type=spec.job_type,
                        spec_hash=spec.spec_hash, run_id=run_id))
            self._submissions[submission_id] = _Submission(
                submission_id=submission_id, tenant=tenant.name,
                kind=kind, job_ids=[e[1] for e in entries],
                pinned=list(pins), remaining=len(entries))
            state.in_flight += len(specs)
            state.digests |= {spec.spec_hash for spec in specs}
            state.digests |= set(pins)
        for digest in pins:
            self.store.pin(digest, ref=tenant_pin_ref(
                tenant.name, submission_id))
        status, payload = await self._command_reply(
            ("submit", entries))
        if status == "error":
            with self._lock:
                for _, job_id, _ in entries:
                    self._jobs.pop(job_id, None)
                self._submissions.pop(submission_id, None)
                state = self._tenant_state[tenant.name]
                state.in_flight = max(0,
                                      state.in_flight - len(entries))
            raise GatewayError(500, "internal",
                               f"submission failed: {payload}")
        return {
            "submission_id": submission_id,
            "run_id": submission_id,
            "kind": kind,
            "job_ids": [e[1] for e in entries],
            "spec_hashes": [e[0].spec_hash for e in entries],
        }

    # -- per-request helpers -------------------------------------------

    def _view_for(self, tenant: Tenant, job_id: str) -> _JobView:
        with self._lock:
            view = self._jobs.get(job_id)
            if view is None or view.tenant != tenant.name:
                # Another tenant's job is indistinguishable from an
                # absent one — no existence oracle across tenants.
                raise GatewayError(404, "not_found",
                                   f"no job {job_id!r}")
            return view

    @staticmethod
    def _checked_digest(digest: str) -> str:
        try:
            return validate_digest(digest)
        except ValueError as exc:
            raise GatewayError(400, "bad_request", str(exc)) from None

    @staticmethod
    def _checked_ref(ref: object) -> str:
        if not isinstance(ref, str) or not _USER_REF_OK.match(ref):
            raise GatewayError(
                400, "bad_request",
                f"invalid pin ref {ref!r}: letters, digits, '._@-', "
                "max 64 chars")
        return ref

    def _require_visible(self, tenant: Tenant, digest: str) -> None:
        with self._lock:
            if digest not in self._tenant_state[tenant.name].digests:
                raise GatewayError(404, "not_found",
                                   f"artifact {digest} not found")

    def _require_param_digests(self, tenant: Tenant,
                               spec: JobSpec) -> None:
        """Every digest-shaped param must be visible to the tenant."""
        refs: Set[str] = set()
        ArtifactStore._scan_refs(spec.params_dict, refs)
        for digest in sorted(refs):
            self._require_visible(tenant, digest)

    # -- HTTP layer ----------------------------------------------------

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            self._client_socks.add(sock)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            self._client_socks.discard(sock)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Request]:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = line.decode(
                "latin-1").strip().split(" ", 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, sep, value = hline.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = 0
        split = urllib.parse.urlsplit(target)
        request = Request(
            method=method.upper(), path=split.path,
            query={k: v[0] for k, v in
                   urllib.parse.parse_qs(split.query).items()},
            headers=headers, body={})
        if length > MAX_BODY_BYTES:
            request.error = GatewayError(
                413, "too_large", f"body over {MAX_BODY_BYTES} bytes")
            return request
        raw = await reader.readexactly(length) if length > 0 else b""
        if raw:
            try:
                body = json.loads(raw)
            except ValueError:
                body = None
            if not isinstance(body, dict):
                request.error = GatewayError(
                    400, "bad_request", "body is not a JSON object")
            else:
                request.body = body
        return request

    def _authenticate(self, request: Request) -> Tenant:
        token = request.headers.get("x-repro-token")
        if not token:
            auth = request.headers.get("authorization", "")
            if auth.lower().startswith("bearer "):
                token = auth[7:].strip()
        tenant = self.registry.authenticate(token)
        if tenant is None:
            raise GatewayError(401, "unauthenticated",
                               "missing or unknown tenant token")
        with self._lock:
            granted, retry_after = \
                self._tenant_state[tenant.name].bucket.try_acquire()
        if not granted:
            raise GatewayError(
                429, "rate_limited",
                f"tenant {tenant.name!r} over its request rate",
                retry_after=retry_after)
        return tenant

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> bool:
        try:
            if request.error is not None:
                raise request.error
            path_routes = [r for r in ROUTES
                           if r.match(request.path) is not None]
            if not path_routes:
                raise GatewayError(404, "not_found",
                                   f"no route {request.path!r}")
            route = next((r for r in path_routes
                          if r.method == request.method), None)
            if route is None:
                raise GatewayError(
                    405, "method_not_allowed",
                    f"{request.method} not allowed on "
                    f"{request.path!r}; allowed: "
                    + ", ".join(sorted({r.method
                                        for r in path_routes})))
            tenant = self._authenticate(request)
            params = route.match(request.path)
            result = await route.handler(self, tenant, params,
                                         request.body, request.query)
            if route.kind == "sse":
                _, snapshot, sub = result
                await self._stream_sse(writer, snapshot, sub)
                return False
            status, payload = result
            await self._write_json(writer, status, payload)
            return request.headers.get("connection",
                                       "").lower() != "close"
        except GatewayError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = str(max(
                    1, int(exc.retry_after + 0.999)))
            await self._write_json(writer, exc.status, exc.payload(),
                                   extra)
            return exc.status < 500 and exc.code != "too_large"
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception:   # noqa: BLE001 — the 500 of last resort
            err = GatewayError(500, "internal",
                               traceback.format_exc(limit=3))
            await self._write_json(writer, err.status, err.payload())
            return False

    @staticmethod
    async def _write_json(writer: asyncio.StreamWriter, status: int,
                          payload: Dict[str, object],
                          extra_headers: Optional[Dict[str, str]] = None
                          ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode()
        reason = {200: "OK", 201: "Created", 202: "Accepted",
                  400: "Bad Request", 401: "Unauthorized",
                  404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 413: "Payload Too Large",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _stream_sse(self, writer: asyncio.StreamWriter,
                          snapshot: JobEvent, sub) -> None:
        """Serve one job's event stream until its terminal transition.

        The snapshot is sent first; the subscription (replaying
        history after the snapshot's sequence number) supplies every
        later transition exactly once.  A waiting read times out
        twice a second to emit a keep-alive comment — which is also
        how a vanished client is detected promptly.
        """
        loop = asyncio.get_running_loop()
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-store\r\n"
                         b"Connection: close\r\n\r\n")
            event: Optional[JobEvent] = snapshot
            while True:
                if event is not None:
                    data = json.dumps(event.to_dict(),
                                      separators=(",", ":"))
                    writer.write(b"event: job\ndata: "
                                 + data.encode() + b"\n\n")
                    await writer.drain()
                    if event.terminal:
                        break
                event = await loop.run_in_executor(
                    None, sub.get, 0.5)
                if event is None:
                    if sub.closed:
                        break
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
        finally:
            sub.close()
