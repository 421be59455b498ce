"""Job event bus: push-based state streaming for CLI watch and SSE.

The scheduler publishes a :class:`JobEvent` at every job state
transition.  Anything that wants to observe a run — the CLI's
``--watch`` mode, a gateway SSE stream, the gateway's own job table —
subscribes and *receives* events instead of polling scheduler state.
One implementation serves every consumer, which is what keeps the CLI
watch output and the gateway's event stream in lockstep: both render
the same :class:`JobEvent` sequence, one as text
(:func:`format_event`), one as JSON (:meth:`JobEvent.to_dict`).

Threading model: ``publish`` may be called from any thread (the
scheduler's executor thread, an inline run on the main thread);
subscribers drain their own :class:`queue.SimpleQueue` from whatever
thread (or event loop, via an executor) they like.  A bounded history
ring lets late subscribers replay what they missed — the gateway's
SSE handler attaches *after* a job was submitted and still sees its
earlier transitions.  Events carry a process-wide monotonically
increasing ``seq`` so replay and live delivery can be deduplicated.
"""

from __future__ import annotations

import itertools
import queue
import threading
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: Process-global sequence numbers: two buses (or two schedulers on
#: one bus) can never hand out colliding or non-monotonic sequence
#: numbers, so consumers can always dedupe on ``seq`` alone.
_SEQ = itertools.count(1)
_SEQ_LOCK = threading.Lock()

#: Events an :class:`EventBus` retains for replay.
HISTORY = 4096


def _next_seq() -> int:
    with _SEQ_LOCK:
        return next(_SEQ)


@dataclass(frozen=True)
class JobEvent:
    """One job state transition, as published by the scheduler.

    ``result`` is populated only on a successful terminal transition —
    subscribers that just render status lines ignore it, while the
    gateway's job table keeps it so a client can fetch the result
    without a second trip through the artifact store.
    """

    job_id: str
    status: str
    job_type: str = ""
    spec_hash: str = ""
    attempts: int = 0
    cache_hit: bool = False
    wall_s: float = 0.0
    worker: str = ""
    error: str = ""
    run_id: str = ""
    result: Optional[object] = None
    seq: int = field(default_factory=_next_seq)

    @property
    def terminal(self) -> bool:
        return self.status in ("succeeded", "failed", "timeout",
                               "cancelled", "skipped")

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (the SSE ``data:`` payload)."""
        return asdict(self)

    @classmethod
    def from_job(cls, job, run_id: str = "",
                 with_result: bool = False) -> "JobEvent":
        """Build an event from a scheduler :class:`~.scheduler.Job`."""
        return cls(
            job_id=job.job_id, status=job.status,
            job_type=job.spec.job_type, spec_hash=job.spec.spec_hash,
            attempts=job.attempts, cache_hit=job.cache_hit,
            wall_s=job.wall_s, worker=job.worker, error=job.error,
            run_id=run_id,
            result=job.result if with_result else None)


def format_event(event: JobEvent) -> str:
    """The CLI watch line for one event.

    This is the historical ``--watch`` output format, byte for byte:
    porting watch from a scheduler callback to the bus must not change
    what users (and log scrapers) see.
    """
    cache = " (cache)" if event.cache_hit else ""
    extra = (f" — {event.error.splitlines()[-1][:60]}"
             if event.error and event.status in
             ("failed", "timeout", "pending") else "")
    return (f"[{event.status:>9}] {event.job_id} "
            f"attempt={event.attempts}{cache}{extra}")


class Subscription:
    """One subscriber's queue-backed view of a bus.

    Iterating yields events until the subscription (or its bus) is
    closed; :meth:`get` gives timeout-controlled access for consumers
    that must interleave with other work (the SSE writer checking for
    client disconnects).  Closing is idempotent and unblocks any
    waiting reader via a sentinel.
    """

    _CLOSE = object()

    def __init__(self, bus: "EventBus",
                 job_ids: Optional[Sequence[str]] = None) -> None:
        self._bus = bus
        self._queue: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._job_ids = frozenset(job_ids) if job_ids is not None \
            else None
        self._closed = False

    def _wants(self, event: JobEvent) -> bool:
        return self._job_ids is None or event.job_id in self._job_ids

    def _deliver(self, event: JobEvent) -> None:
        if not self._closed and self._wants(event):
            self._queue.put(event)

    def get(self, timeout: Optional[float] = None
            ) -> Optional[JobEvent]:
        """Next event, ``None`` on timeout or once closed and drained."""
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is self._CLOSE:
            self._closed = True
            return None
        return item    # type: ignore[return-value]

    def close(self) -> None:
        """Detach from the bus and unblock any waiting reader."""
        self._bus._detach(self)
        self._queue.put(self._CLOSE)

    @property
    def closed(self) -> bool:
        return self._closed

    def __iter__(self) -> Iterator[JobEvent]:
        while True:
            event = self.get()
            if event is None and self._closed:
                return
            if event is not None:
                yield event


class EventBus:
    """Publish/subscribe fan-out of :class:`JobEvent` transitions.

    A replay ring keeps the last :data:`HISTORY` events: a subscriber
    created with ``replay=True`` first receives (matching) retained
    events in publication order, then live ones.  The ring is a memory
    bound, not a durability promise — the run database is the system
    of record; the bus is the low-latency push path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: List[Subscription] = []
        self._history: "deque[JobEvent]" = deque(maxlen=HISTORY)
        self._closed = False

    def publish(self, event: JobEvent) -> None:
        """Fan ``event`` out to subscribers (thread-safe, non-blocking)."""
        with self._lock:
            if self._closed:
                return
            self._history.append(event)
            subs = list(self._subs)
        for sub in subs:
            sub._deliver(event)

    def subscribe(self, job_ids: Optional[Sequence[str]] = None,
                  replay: bool = False,
                  after_seq: int = 0) -> Subscription:
        """Attach a subscriber, optionally replaying retained history.

        ``job_ids`` filters delivery to those jobs; ``replay`` first
        enqueues retained events with ``seq > after_seq`` — the SSE
        resume path (a client reconnecting with a last-seen sequence
        number sees each transition exactly once).
        """
        sub = Subscription(self, job_ids=job_ids)
        with self._lock:
            backlog = [e for e in self._history
                       if replay and e.seq > after_seq]
            self._subs.append(sub)
        for event in backlog:
            sub._deliver(event)
        if self._closed:
            sub.close()
        return sub

    def _detach(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    def history(self, job_id: Optional[str] = None) -> List[JobEvent]:
        """Retained events (optionally one job's), oldest first."""
        with self._lock:
            return [e for e in self._history
                    if job_id is None or e.job_id == job_id]

    def close(self) -> None:
        """Close every subscription; further publishes are dropped."""
        with self._lock:
            self._closed = True
            subs = list(self._subs)
        for sub in subs:
            sub.close()
