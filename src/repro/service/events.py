"""Job events: one record per scheduler state transition.

The scheduler hands a :class:`JobEvent` to its ``on_event`` callback at
every job state transition, synchronously, on the thread that made the
transition.  Every observer of a run reads this one record: the CLI's
``--watch`` mode prints it as text (:func:`format_event`), and the
gateway folds it into its job table and writes it to the job's
Server-Sent Events streams as JSON (:meth:`JobEvent.to_dict`).  So
watch output and event streams stay in lockstep by construction.

Events carry a process-wide, monotonically increasing ``seq``: a
consumer that sees events of one job from several sources can order
them, and the SSE wire format keeps the field.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

#: Process-global sequence numbers: two schedulers in one process never
#: hand out colliding or non-monotonic sequence numbers.
_SEQ = itertools.count(1)


@dataclass(frozen=True)
class JobEvent:
    """One job state transition, as the scheduler reports it.

    ``result`` is populated only on a successful terminal transition —
    observers that just render status lines ignore it, while the
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
    seq: int = field(default_factory=_SEQ.__next__)

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
    the watch printer and the gateway's event streams render the same
    event, and neither may change what users (and log scrapers) see.
    """
    cache = " (cache)" if event.cache_hit else ""
    extra = (f" — {event.error.splitlines()[-1][:60]}"
             if event.error and event.status in
             ("failed", "timeout", "pending") else "")
    return (f"[{event.status:>9}] {event.job_id} "
            f"attempt={event.attempts}{cache}{extra}")
