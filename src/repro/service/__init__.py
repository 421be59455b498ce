"""Flow execution service: artifact store, scheduler, run database.

The paper's Sec. IV agenda — security evaluation at every stage, with
cross-effect composition studies — means running *many* flow variants
over *many* designs.  This package turns the repository's flow engine
into a job-serving layer:

* :mod:`~repro.service.store` — content-addressed on-disk artifact
  store; identical flows are cache hits across processes and
  invocations;
* :mod:`~repro.service.jobs` — declarative, picklable job specs
  resolved through a registry, hash-stable for cache addressing;
* :mod:`~repro.service.scheduler` — DAG execution on a warm worker
  pool with per-job timeouts, bounded retry-with-backoff, crash
  isolation, cancellation, and in-process degradation at
  ``workers=0``;
* :mod:`~repro.service.rundb` — indexed SQLite log of every job
  outcome with a query API;
* :mod:`~repro.service.campaigns` — existing workloads (locking
  sweep, composition matrix, security closure) planned once and
  routed through the service with serial result parity;
* :mod:`~repro.service.events` — the job event record that the
  scheduler's ``on_event`` hook hands to CLI ``--watch`` output and to
  gateway SSE streams;
* :mod:`~repro.service.tenants` — tenant identity, rate limits, and
  namespaced run-database / pin views for the gateway;
* :mod:`~repro.service.gateway` / :mod:`~repro.service.client` — the
  multi-tenant HTTP evaluation gateway and its blocking client
  (imported lazily; ``from repro.service.gateway import Gateway``);
* ``python -m repro.service`` — submit, watch, inspect, and
  ``serve``.
"""

from .store import ArtifactStore, GcReport, validate_digest
from .rundb import (
    RunDatabase,
    RunRecord,
    migrate_jsonl,
    render_records,
)
from .jobs import (
    JobContext,
    JobSpec,
    JobType,
    evaluate_variants,
    job_function,
    register_job_type,
    registered_job_types,
    run_job,
)
from .scheduler import (
    CANCELLED,
    FAILED,
    PENDING,
    RUNNING,
    SKIPPED,
    SUCCEEDED,
    TIMEOUT,
    Job,
    Scheduler,
    SchedulerError,
    WorkerPool,
)
from .campaigns import (
    BENCH_CIRCUITS,
    DEFAULT_STACKS,
    CampaignError,
    composition_matrix_campaign,
    locking_sweep_campaign,
    security_closure_campaign,
)
from .events import JobEvent, format_event
from .tenants import (
    NamespacedRunDatabase,
    Tenant,
    TenantRegistry,
    TokenBucket,
    namespace_run_id,
    split_run_id,
    tenant_pin_ref,
)

__all__ = [
    "ArtifactStore", "GcReport", "validate_digest",
    "RunDatabase",
    "RunRecord", "render_records", "migrate_jsonl",
    "JobContext", "JobSpec", "JobType", "evaluate_variants",
    "job_function", "register_job_type", "registered_job_types", "run_job",
    "Job", "Scheduler", "SchedulerError", "WorkerPool",
    "PENDING", "RUNNING", "SUCCEEDED", "FAILED", "TIMEOUT",
    "CANCELLED", "SKIPPED",
    "BENCH_CIRCUITS", "DEFAULT_STACKS", "CampaignError",
    "composition_matrix_campaign", "locking_sweep_campaign",
    "security_closure_campaign",
    "JobEvent", "format_event",
    "Tenant", "TenantRegistry", "TokenBucket",
    "NamespacedRunDatabase", "namespace_run_id", "split_run_id",
    "tenant_pin_ref",
]
