"""Multi-tenant evaluation gateway: the service stack over HTTP.

A long-running, stdlib-only ``asyncio`` HTTP server that owns one
shared :class:`~repro.service.scheduler.WorkerPool` (warm workers), a
:class:`~repro.service.rundb.RunDatabase`, and an
:class:`~repro.service.store.ArtifactStore`, and serves every
registered job type and campaign to many tenants at once.  This is
the paper's "security evaluation as a service" stance made literal:
composition checks, locking sweeps, and closure runs submitted by
independent design teams against one warm evaluation backend.

Architecture — one thread, one event loop:

* One ``asyncio`` loop, on its own thread, owns everything: the HTTP
  handlers, the long-lived
  :class:`~repro.service.scheduler.Scheduler` and its pool, the job
  table and every SSE stream.  Handlers call the scheduler's
  ``submit`` and ``cancel`` directly and then step it; nothing off the
  loop thread reads gateway state, so no lock guards it.
* A scheduler step never waits
  (:meth:`~repro.service.scheduler.Scheduler.service_step`): it
  returns the worker pipes and sentinels and the next deadline, and
  the loop watches the handles with readers and the deadline with one
  re-armed timer.  Every reader runs the same step, which reads every
  worker, so it does not matter which handle woke it.
* The scheduler's ``on_event`` hook receives each transition on the
  loop thread.  It folds the event into the job table; on a terminal
  event it releases quota, grants artifact visibility and, once a
  submission is finished, unpins its inputs and queues it to be
  forgotten after the step; last, it puts the event on the queue of
  every SSE stream open on the job.

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
import re
import threading
import time
import traceback
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..netlist import netlist_from_dict
from .campaigns import CAMPAIGN_PLANS
from .events import JobEvent
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

#: Seconds an SSE stream waits for an event before it writes a
#: keep-alive comment.
KEEPALIVE_S = 0.5

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
    ``(status, payload)``) or ``"sse"`` (handler returns the job view
    whose transitions the dispatcher serves as Server-Sent Events).
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
    job_ids: List[str]
    pinned: List[str]           # input digests pinned under this ref
    remaining: int = 0


@dataclass
class _TenantState:
    """Mutable per-tenant accounting (owned by the loop thread)."""

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
    return 202, gw._submit(tenant, [spec], pins=[], kind="job")


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
    return 202, gw._submit(tenant, specs, pins=input_digests, kind=name)


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
    return gw._view_for(tenant, params["job_id"])


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
    if view.event.terminal:
        raise GatewayError(409, "conflict",
                           f"job {view.job_id} is already "
                           f"{view.event.status}")
    gw._cancel(view.job_id)
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
    state = gw._tenant_state[tenant.name]
    by_status: Dict[str, int] = {}
    for v in gw._jobs.values():
        if v.tenant == tenant.name:
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

    ``start()`` forks the worker pool, brings the asyncio loop up on
    its own thread with the HTTP server on it, and returns ``(host,
    port)`` — with ``port=0`` an ephemeral port is chosen, which is
    what tests and the load benchmark use.  ``shutdown()`` drains:
    stops accepting, cancels live jobs (every SSE stream ends with its
    job's terminal event), shuts the worker pool down (no orphan
    processes) and closes idle connections, so every connection
    handler ends by itself.
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
        self.scheduler = Scheduler(
            workers=workers, store=store, rundb=rundb,
            run_id="gateway", on_event=self._on_event)
        self._jobs: Dict[str, _JobView] = {}
        self._submissions: Dict[str, _Submission] = {}
        self._tenant_state: Dict[str, _TenantState] = {
            t.name: _TenantState(t, TokenBucket(t.rate, t.burst))
            for t in registry.tenants()}
        self._counter = itertools.count(1)
        #: The queues of the SSE streams open on each live job.
        self._streams: Dict[str, List[asyncio.Queue]] = {}
        #: Job ids of finished submissions, forgotten after the step.
        self._finished: List[str] = []
        #: What the loop waits on for the next step: the worker
        #: handles it has readers on, and the deadline's timer.
        self._watched: List[object] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._started = False
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connections -> whether the handler waits for a request.
        self._conns: Dict[asyncio.StreamWriter, bool] = {}
        # Pool respawns fork while client connections are open; the
        # child would inherit duplicate connection fds and keep them
        # open past the server's close (no EOF ever reaches the
        # client).  This hook runs in every forked child and drops
        # the inherited copies.
        multiprocessing.util.register_after_fork(
            self, Gateway._close_inherited_sockets)

    def _close_inherited_sockets(self) -> None:
        server = self._server
        socks = [w.get_extra_info("socket") for w in self._conns] + list(
            server.sockets if server is not None else [])
        for sock in socks:
            # asyncio hands out TransportSocket views, which have no
            # close() (the hook would die on AttributeError, silently:
            # multiprocessing swallows after-fork errors); the socket
            # object beneath owns the descriptor.
            try:
                getattr(sock, "_sock", sock).close()
            except (AttributeError, OSError):
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
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="gw-loop", daemon=True)
        self._loop_thread.start()
        asyncio.run_coroutine_threadsafe(
            self._start_server(), self._loop).result(timeout=10.0)
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
        fut = asyncio.run_coroutine_threadsafe(self._drain(), self._loop)
        try:
            fut.result(timeout=60.0)
        except Exception:   # noqa: BLE001 — best-effort teardown
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5.0)
        if not self._loop_thread.is_alive():
            self._loop.close()

    async def _drain(self) -> None:
        self._draining = True
        # 1. Stop accepting connections.
        self._server.close()
        # 2. Withdraw every live job (each cancel emits its terminal
        #    event, which ends the job's SSE streams), then shut the
        #    pool down: no worker process of ours is left running.
        self._unwatch()
        for job in list(self.scheduler.jobs.values()):
            if not job.done:
                self.scheduler.cancel(job.job_id)
        self.scheduler.service_close()
        # 3. Close idle keep-alive connections under their handlers:
        #    each reads EOF and ends, as does every busy handler once
        #    its request is answered.
        for writer, idle in self._conns.items():
            if idle:
                writer.close()
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)

    def __enter__(self) -> "Gateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- scheduling ----------------------------------------------------

    def _step(self) -> None:
        """Step the scheduler, then wait for what its step waits on."""
        self._unwatch()
        wait = self.scheduler.service_step()
        for job_id in self._finished:
            self.scheduler.forget(job_id)
        self._finished.clear()
        if wait is None:
            return
        handles, deadline = wait
        for handle in handles:
            self._loop.add_reader(handle, self._step)
        self._watched = handles
        if deadline is not None:
            self._timer = self._loop.call_later(
                max(0.0, deadline - time.perf_counter()), self._step)

    def _unwatch(self) -> None:
        """Drop the readers and the timer of the last step.

        Called before anything that may respawn a worker: a reader must
        go while its descriptor is still open, or the selector keeps a
        registration that a later descriptor with the same number
        cannot replace.
        """
        for handle in self._watched:
            self._loop.remove_reader(handle)
        self._watched = []
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _cancel(self, job_id: str) -> None:
        self._unwatch()
        self.scheduler.cancel(job_id)
        self._step()

    def _on_event(self, event: JobEvent) -> None:
        """Apply one scheduler transition (on the loop thread)."""
        view = self._jobs[event.job_id]
        view.event = event
        if event.terminal:
            state = self._tenant_state[view.tenant]
            state.in_flight -= 1
            if event.status == "succeeded":
                # One-hop references (e.g. a closure job's published
                # layout) become visible with the result.
                state.digests.add(event.spec_hash)
                state.digests |= self.store.referenced_digests(
                    event.spec_hash)
            submission = self._submissions[view.submission_id]
            submission.remaining -= 1
            if submission.remaining == 0:
                del self._submissions[view.submission_id]
                ref = tenant_pin_ref(submission.tenant,
                                     submission.submission_id)
                for digest in submission.pinned:
                    try:
                        self.store.unpin(digest, ref=ref)
                    except (OSError, ValueError):
                        pass
                self._finished.extend(submission.job_ids)
        streams = (self._streams.pop(event.job_id, []) if event.terminal
                   else self._streams.get(event.job_id, []))
        for events in streams:
            events.put_nowait(event)

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
            granted = self._tenant_state[tenant.name].digests
            for rec in view.query(status="succeeded"):
                if rec.spec_hash:
                    granted.add(rec.spec_hash)
                    granted |= self.store.referenced_digests(
                        rec.spec_hash)

    # -- submission ----------------------------------------------------

    def _submit(self, tenant: Tenant, specs: List[JobSpec],
                pins: List[str], kind: str) -> Dict[str, object]:
        state = self._tenant_state[tenant.name]
        if state.in_flight + len(specs) > tenant.max_in_flight:
            raise GatewayError(
                503, "quota_exceeded",
                f"tenant {tenant.name!r} has {state.in_flight} "
                f"jobs in flight; submitting {len(specs)} more "
                f"would exceed max_in_flight={tenant.max_in_flight}")
        submission_id = f"s{next(self._counter):06d}"
        run_id = namespace_run_id(tenant.name, submission_id)
        job_ids = []
        for spec in specs:
            job_id = f"g{next(self._counter):06d}-{spec.job_type}"
            self.scheduler.submit(spec, job_id=job_id, run_id=run_id)
            self._jobs[job_id] = _JobView(
                job_id=job_id, tenant=tenant.name,
                submission_id=submission_id,
                event=JobEvent(
                    job_id=job_id, status="pending",
                    job_type=spec.job_type,
                    spec_hash=spec.spec_hash, run_id=run_id))
            job_ids.append(job_id)
        self._submissions[submission_id] = _Submission(
            submission_id=submission_id, tenant=tenant.name,
            job_ids=job_ids, pinned=list(pins),
            remaining=len(job_ids))
        state.in_flight += len(specs)
        state.digests |= {spec.spec_hash for spec in specs}
        state.digests |= set(pins)
        for digest in pins:
            self.store.pin(digest, ref=tenant_pin_ref(
                tenant.name, submission_id))
        self._step()
        return {
            "submission_id": submission_id,
            "run_id": submission_id,
            "kind": kind,
            "job_ids": job_ids,
            "spec_hashes": [spec.spec_hash for spec in specs],
        }

    # -- per-request helpers -------------------------------------------

    def _view_for(self, tenant: Tenant, job_id: str) -> _JobView:
        view = self._jobs.get(job_id)
        if view is None or view.tenant != tenant.name:
            # Another tenant's job is indistinguishable from an
            # absent one — no existence oracle across tenants.
            raise GatewayError(404, "not_found", f"no job {job_id!r}")
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
        self._conns[writer] = True
        try:
            while not self._draining:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._conns[writer] = False
                if not await self._dispatch(request, writer):
                    break
                self._conns[writer] = True
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            del self._conns[writer]
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
                await self._stream_sse(writer, result)
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
                          view: _JobView) -> None:
        """Serve one job's event stream until its terminal transition.

        The snapshot is taken and the stream's queue registered in one
        loop step, so the queue receives exactly the transitions after
        the snapshot: none is missed and none needs replaying.  While
        it waits, the stream writes a keep-alive comment every
        :data:`KEEPALIVE_S` seconds — which is also how a vanished
        client is detected promptly.
        """
        event: Optional[JobEvent] = view.event
        # Transitions, and None when a keep-alive is due.
        events: "asyncio.Queue[Optional[JobEvent]]" = asyncio.Queue()
        if not event.terminal:
            self._streams.setdefault(view.job_id, []).append(events)
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-store\r\n"
                         b"Connection: close\r\n\r\n")
            while True:
                if event is None:
                    writer.write(b": keep-alive\n\n")
                else:
                    data = json.dumps(event.to_dict(),
                                      separators=(",", ":"))
                    writer.write(b"event: job\ndata: "
                                 + data.encode() + b"\n\n")
                await writer.drain()
                if event is not None and event.terminal:
                    return
                tick = self._loop.call_later(KEEPALIVE_S,
                                             events.put_nowait, None)
                event = await events.get()
                tick.cancel()
        finally:
            streams = self._streams.get(view.job_id, [])
            if events in streams:
                streams.remove(events)
