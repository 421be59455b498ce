"""Campaign clients: existing workloads routed through the service.

A *campaign* is a family of independent flow evaluations — the
locking sweep from :mod:`repro.core.dse`, the composition cross-effect
matrix from :mod:`repro.core.composition`, benchmark fan-out — turned
into job specs and drained through the scheduler.  Each of the sweep,
closure and compose campaigns has one *plan* (:func:`plan_sweep`,
:func:`plan_closure`, :func:`plan_compose`): a function from campaign
fields to ``(specs, input_digests)`` that runs nothing and holds the
campaign's defaults in its signature.  The library clients below, the
CLI and the gateway's ``POST /v1/campaigns`` (:data:`CAMPAIGN_PLANS`)
all plan through it, so a campaign hashes — and caches — identically
over every transport.

Every client here guarantees **result parity**: the deterministic
fields of a campaign run with ``workers=N`` are identical to the
serial implementation, point for point, because both call the same
per-item kernels on the same (round-tripped) inputs.
"""

from __future__ import annotations

import tempfile
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..core.dse import LockingSweepPoint
from ..netlist import Netlist, c17, ripple_carry_adder
from .events import EventBus
from .jobs import JobSpec
from .rundb import RunDatabase
from .scheduler import SUCCEEDED, Job, Scheduler, WorkerPool
from .store import ArtifactStore

#: A planned campaign: its job specs, and the input digests to pin
#: while they run.
Plan = Tuple[List[JobSpec], List[str]]


def _present_sbox() -> Netlist:
    from ..crypto import present_sbox_netlist

    return present_sbox_netlist()


#: Named benchmark circuits reachable from the CLI and the gateway.
BENCH_CIRCUITS: Dict[str, Callable[[], Netlist]] = {
    "c17": c17,
    "rca8": lambda: ripple_carry_adder(8),
    "rca16": lambda: ripple_carry_adder(16),
    "present-sbox": _present_sbox,
}

#: The cross-effect matrix evaluated by the composition benchmarks.
DEFAULT_STACKS: Dict[str, List[str]] = {
    "duplication": ["duplication"],
    "parity": ["parity"],
    "wddl": ["wddl"],
}

#: Closure thresholds: probing and FIA exposure, Trojan insertability.
CLOSURE_THRESHOLDS: Dict[str, float] = {
    "probing": 0.05, "fia": 0.30, "trojan": 0.05}

#: Composition-engine parameters of a compose campaign.
COMPOSE_ENGINE: Dict[str, object] = {"n_traces": 4000, "noise_sigma": 0.25}


class CampaignError(Exception):
    """Raised when a campaign finishes with failed jobs."""

    def __init__(self, message: str, jobs: Dict[str, object]) -> None:
        super().__init__(message)
        self.jobs = jobs


# -- planning ----------------------------------------------------------


def _require_list(value: object, what: str) -> None:
    if isinstance(value, str) or not isinstance(value, Sequence) \
            or not value:
        raise ValueError(f"{what} must be a non-empty list, "
                         f"got {value!r}")


def resolve_labels(labels: Sequence[str], table: Mapping[str, object],
                   what: str) -> List[object]:
    """The ``table`` entries for ``labels``, in order.

    The one check for campaign labels (benchmark circuits,
    countermeasure stacks): raises ValueError unless ``labels`` is a
    non-empty list of keys of ``table``, naming every unknown label and
    the valid choices.
    """
    _require_list(labels, f"{what} labels")
    unknown = [label for label in labels if label not in table]
    if unknown:
        raise ValueError(f"unknown {what} label(s) {unknown}; choose "
                         f"from {sorted(table)}")
    return [table[label] for label in labels]


def bench_netlists(benches: Sequence[Union[str, Netlist]]
                   ) -> List[Netlist]:
    """Netlists for :data:`BENCH_CIRCUITS` labels (netlists pass as is)."""
    if isinstance(benches, Sequence) and benches \
            and all(isinstance(b, Netlist) for b in benches):
        return list(benches)
    return [make() for make in resolve_labels(benches, BENCH_CIRCUITS,
                                              "bench")]


def stack_table(stacks: Union[None, Sequence[str],
                              Mapping[str, Sequence[str]]] = None
                ) -> Dict[str, List[str]]:
    """Label -> countermeasure stack for a compose campaign.

    ``None`` is the whole :data:`DEFAULT_STACKS` matrix, a list of
    labels picks rows from it, and a mapping is taken as given.
    """
    if stacks is None:
        stacks = DEFAULT_STACKS
    elif not isinstance(stacks, Mapping):
        stacks = dict(zip(stacks, resolve_labels(stacks, DEFAULT_STACKS,
                                                 "stack")))
    return {label: list(stack) for label, stack in stacks.items()}


def _policy(seed: int, timeout: Optional[float],
            retries: int) -> Dict[str, object]:
    """The seed and execution policy every job of a campaign shares."""
    return {"seed": int(seed), "retries": int(retries),
            "timeout": None if timeout is None else float(timeout)}


def plan_sweep(store: ArtifactStore,
               bench: Union[str, Netlist] = "c17",
               widths: Sequence[int] = (0, 2, 4),
               seed: int = 0,
               max_iterations: int = 400,
               timeout: Optional[float] = None,
               retries: int = 1) -> Plan:
    """Locking sweep: one ``locking-point`` job per key width.

    ``bench`` is a :data:`BENCH_CIRCUITS` label or a netlist, published
    to ``store``.  The width-0 baseline is a job like any other (seed
    threaded uniformly).
    """
    policy = _policy(seed, timeout, retries)
    _require_list(widths, "widths")
    (netlist,) = bench_netlists([bench])
    input_hash = store.put_netlist(netlist)
    specs = [JobSpec(
        "locking-point",
        params={"netlist": input_hash, "key_bits": int(bits),
                "max_iterations": int(max_iterations)},
        **policy) for bits in widths]
    return specs, [input_hash]


def plan_closure(store: ArtifactStore,
                 benches: Sequence[Union[str, Netlist]] = ("c17", "rca8"),
                 thresholds: Mapping[str, float] = CLOSURE_THRESHOLDS,
                 num_layers: Optional[int] = None,
                 max_iterations: int = 4,
                 placement_iterations: int = 2000,
                 seed: int = 0,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> Plan:
    """Security closure: one ``closure`` job per design.

    ``benches`` holds :data:`BENCH_CIRCUITS` labels or netlists,
    published to ``store``; empty ``thresholds`` mean the defaults.
    """
    policy = _policy(seed, timeout, retries)
    params = {"thresholds": dict(thresholds or CLOSURE_THRESHOLDS),
              "num_layers": None if num_layers is None else int(num_layers),
              "max_iterations": int(max_iterations),
              "placement_iterations": int(placement_iterations)}
    input_hashes = [store.put_netlist(netlist)
                    for netlist in bench_netlists(benches)]
    specs = [JobSpec("closure", params={"netlist": input_hash, **params},
                     **policy) for input_hash in input_hashes]
    return specs, input_hashes


def plan_compose(store: ArtifactStore,
                 design: str = "masked-and",
                 stacks: Union[None, Sequence[str],
                               Mapping[str, Sequence[str]]] = None,
                 engine: Mapping[str, object] = COMPOSE_ENGINE,
                 seed: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 1) -> Plan:
    """Cross-effect matrix: one ``composition-stack`` job per stack.

    ``stacks`` is read by :func:`stack_table`; empty ``engine`` means
    the defaults.  Designs travel by registry name, so nothing is
    published to ``store``.
    """
    del store
    policy = _policy(seed, timeout, retries)
    engine = dict(engine or COMPOSE_ENGINE)
    specs = [JobSpec(
        "composition-stack",
        params={"design": str(design), "stack": stack, "engine": engine},
        **policy) for stack in stack_table(stacks).values()]
    return specs, []


#: Campaign name -> plan.  ``POST /v1/campaigns`` serves every entry,
#: passing the request body's fields as the plan's keyword arguments.
CAMPAIGN_PLANS: Dict[str, Callable[..., Plan]] = {
    "sweep": plan_sweep,
    "closure": plan_closure,
    "compose": plan_compose,
}


# -- running -----------------------------------------------------------


def _campaign_store(store: Optional[ArtifactStore]) -> ArtifactStore:
    """The caller's store, or a throwaway one for a single campaign.

    Workers exchange inputs and results through the store, so even a
    cache-less campaign needs a shared directory; an ephemeral one
    under the system temp root serves (and demonstrates) that without
    polluting a real cache.
    """
    if store is not None:
        return store
    return ArtifactStore(tempfile.mkdtemp(prefix="repro-service-"))


def _run(plan: Plan, what: str, store: ArtifactStore, workers: int,
         rundb: Optional[RunDatabase], pool: Optional[WorkerPool],
         bus: Optional[EventBus]) -> List[Job]:
    """Run a plan; its jobs, in spec order.

    Input netlists are published before any job runs and may sit idle
    longer than a GC grace window on a long campaign, so they are
    pinned under the run id — explicit GC roots — until it returns.
    Raises :class:`CampaignError` if any job did not succeed.
    """
    specs, input_digests = plan
    scheduler = Scheduler(workers=workers, store=store, rundb=rundb,
                          pool=pool, bus=bus)
    job_ids = [scheduler.submit(spec) for spec in specs]
    for digest in input_digests:
        store.pin(digest, ref=scheduler.run_id)
    try:
        jobs = scheduler.run()
    finally:
        for digest in input_digests:
            store.unpin(digest, ref=scheduler.run_id)
    bad = [job for job in jobs.values() if job.status != SUCCEEDED]
    if bad:
        details = "; ".join(
            f"{job.job_id}: {job.status}"
            f"{' — ' + job.error.splitlines()[-1] if job.error else ''}"
            for job in bad[:5])
        raise CampaignError(
            f"{what}: {len(bad)} of {len(jobs)} jobs did not succeed "
            f"({details})", jobs)
    return [jobs[job_id] for job_id in job_ids]


def locking_sweep_campaign(netlist: Netlist,
                           key_widths: Sequence[int],
                           *,
                           workers: int = 0,
                           store: Optional[ArtifactStore] = None,
                           rundb: Optional[RunDatabase] = None,
                           pool: Optional[WorkerPool] = None,
                           bus: Optional[EventBus] = None,
                           **fields) -> List[LockingSweepPoint]:
    """:func:`repro.core.dse.sweep_locking` as a service campaign.

    Plans with :func:`plan_sweep` (``fields``: ``seed``,
    ``max_iterations``, ``timeout``, ``retries``) and fans the jobs
    out over ``workers`` processes.  Deterministic fields (key bits,
    area, DIP iterations, gave-up flag) are bit-identical to the
    serial sweep; ``attack_seconds`` is wall time and — uniquely —
    honest about where the work actually ran.
    """
    store = _campaign_store(store)
    jobs = _run(plan_sweep(store, netlist, key_widths, **fields),
                "locking sweep", store, workers, rundb, pool, bus)
    return [LockingSweepPoint(
        key_bits=int(job.result["key_bits"]),
        area=float(job.result["area"]),
        sat_attack_iterations=int(job.result["sat_attack_iterations"]),
        attack_seconds=float(job.result["attack_seconds"]),
        attack_gave_up=bool(job.result["attack_gave_up"]),
    ) for job in jobs]


def security_closure_campaign(netlists: Sequence[Netlist],
                              *,
                              workers: int = 0,
                              store: Optional[ArtifactStore] = None,
                              rundb: Optional[RunDatabase] = None,
                              pool: Optional[WorkerPool] = None,
                              bus: Optional[EventBus] = None,
                              **fields) -> Dict[str, Dict[str, object]]:
    """Security-close a batch of designs: one ``closure`` job each.

    Plans with :func:`plan_closure` (``fields``: ``thresholds``,
    ``num_layers``, ``max_iterations``, ``placement_iterations``,
    ``seed``, ``timeout``, ``retries``).  Each design runs the full
    place -> route -> analyse -> ECO loop of
    :func:`repro.physical.closure.security_closure` independently, so
    a design-suite closure parallelizes embarrassingly.  Returns
    design name -> closure result dict (wall times already stripped by
    the job, so the mapping is bit-identical across worker counts).
    """
    netlists = bench_netlists(netlists)
    store = _campaign_store(store)
    jobs = _run(plan_closure(store, netlists, **fields),
                "security closure", store, workers, rundb, pool, bus)
    return {netlist.name: job.result
            for netlist, job in zip(netlists, jobs)}


def composition_matrix_campaign(
        *,
        stacks: Union[None, Sequence[str],
                      Mapping[str, Sequence[str]]] = None,
        engine_params: Optional[Mapping[str, object]] = None,
        workers: int = 0,
        store: Optional[ArtifactStore] = None,
        rundb: Optional[RunDatabase] = None,
        pool: Optional[WorkerPool] = None,
        bus: Optional[EventBus] = None,
        **fields) -> Dict[str, Dict[str, object]]:
    """Cross-effect matrix: one ``composition-stack`` job per stack.

    Plans with :func:`plan_compose` (``engine_params`` is its
    ``engine``; ``fields``: ``design``, ``seed``, ``timeout``,
    ``retries``).  The serial equivalent walks the stacks one at a
    time through :meth:`~repro.core.composition.CompositionEngine.
    compose`; here every stack is an independent job (they share
    nothing but the design factory name), so the matrix parallelizes
    embarrassingly.  Returns stack label -> cross-effect row
    (see :meth:`~repro.core.composition.CompositionEngine.
    evaluate_stack_row`).
    """
    stacks = stack_table(stacks)
    store = _campaign_store(store)
    jobs = _run(plan_compose(store, stacks=stacks, engine=engine_params,
                             **fields),
                "composition matrix", store, workers, rundb, pool, bus)
    return {label: job.result for label, job in zip(stacks, jobs)}
