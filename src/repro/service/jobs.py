"""Picklable job specs and the job-type registry.

A job is data, not code: a :class:`JobSpec` names a registered *job
type* and carries JSON-able parameters, a seed, and an execution
policy (timeout, retries).  Workers look the type up in the registry
and run its function — so specs cross process boundaries as small
pickles, hash stably into artifact-store keys, and can be audited
statically (``scripts/check_jobs.py``).

Job functions take ``(params, ctx)`` where ``ctx`` is a
:class:`JobContext` giving the seed, an artifact store opened in the
worker, and the results of dependency jobs.  They must be
deterministic in ``(params, seed)`` — that is the contract that makes
the content-addressed cache sound — and return a JSON-able dict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from ..netlist import canonical_json, stable_hash

#: Registered job types: name -> (function, sample params for audit).
_JOB_TYPES: Dict[str, "JobType"] = {}


@dataclass(frozen=True)
class JobType:
    """A registered job kind: its function and auditable samples."""

    name: str
    fn: Callable
    #: Parameters exercising the spec path (never *run* by the audit);
    #: every registered type must provide them so ``check_jobs`` can
    #: prove pickle round-trip and hash stability.
    sample_params: Mapping[str, object] = field(default_factory=dict)
    #: A representative return value.  The audit proves it pickles and
    #: is JSON-able — i.e. the result can cross the worker pipe and
    #: carries no process-local handles (compiled programs, solver
    #: engines, open stores), which is the contract that keeps warm
    #: workers' caches *inside* the worker.
    sample_result: Mapping[str, object] = field(default_factory=dict)
    #: Result version, folded into :attr:`JobSpec.spec_hash` when
    #: nonzero.  Bumped when a change makes the job return different
    #: results for the same ``(params, seed)``, so a persistent store
    #: cannot serve results computed before the change.
    version: int = 0


def register_job_type(name: str,
                      sample_params: Optional[Mapping[str, object]] = None,
                      sample_result: Optional[Mapping[str, object]] = None,
                      version: int = 0):
    """Decorator: register ``fn`` as the implementation of ``name``.

    ``version`` is a constant of the registration (see
    :attr:`JobType.version`); version 0 keeps the unversioned hash.
    """
    def wrap(fn: Callable) -> Callable:
        if name in _JOB_TYPES:
            raise ValueError(f"duplicate job type {name!r}")
        _JOB_TYPES[name] = JobType(name, fn, dict(sample_params or {}),
                                   dict(sample_result or {}), version)
        return fn
    return wrap


def registered_job_types() -> Dict[str, JobType]:
    """Name -> :class:`JobType` view of the registry (copy)."""
    return dict(_JOB_TYPES)


def job_function(name: str) -> Callable:
    """The implementation of a registered job type."""
    try:
        return _JOB_TYPES[name].fn
    except KeyError:
        known = ", ".join(sorted(_JOB_TYPES))
        raise KeyError(
            f"unknown job type {name!r}; registered: {known}") from None


@dataclass
class JobContext:
    """Execution-side view handed to a job function."""

    seed: int = 0
    store: Optional[object] = None      # ArtifactStore, opened per worker
    dep_results: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class JobSpec:
    """What to run: a declarative, picklable, hashable job description.

    ``params`` must be JSON-able (scalars / lists / dicts) — enforced
    eagerly so a bad spec fails at submission, in the submitting
    process, not inside a worker.  ``timeout`` is wall seconds (None =
    unbounded); ``retries`` is the number of *additional* attempts
    granted after a crash; ``retry_backoff`` the base delay, doubled
    per attempt.  Timeouts are terminal by default
    (``retry_on_timeout=False``): a job that exceeds its budget once
    is presumed to again.  ``cacheable=False`` opts a job out of the
    artifact-store result cache, so it runs afresh on every
    submission.
    """

    job_type: str
    #: Canonical JSON encoding of the params mapping.  A string keeps
    #: the spec hashable and makes round-tripping *unambiguous*: a
    #: list of two-element lists stays a list and an empty dict stays
    #: a dict, which no tuple-based freezing can guarantee.  Key order
    #: is canonical, so two specs differing only in dict insertion
    #: order are equal.
    params_json: str = "{}"
    seed: int = 0
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.05
    retry_on_timeout: bool = False
    cacheable: bool = True

    def __init__(self, job_type: str,
                 params: Optional[Mapping[str, object]] = None,
                 seed: int = 0, timeout: Optional[float] = None,
                 retries: int = 0, retry_backoff: float = 0.05,
                 retry_on_timeout: bool = False,
                 cacheable: bool = True) -> None:
        # canonical_json raises TypeError on non-JSON values.
        object.__setattr__(self, "params_json",
                           canonical_json(dict(params or {})))
        object.__setattr__(self, "job_type", job_type)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "timeout", timeout)
        object.__setattr__(self, "retries", retries)
        object.__setattr__(self, "retry_backoff", retry_backoff)
        object.__setattr__(self, "retry_on_timeout", retry_on_timeout)
        object.__setattr__(self, "cacheable", cacheable)

    @property
    def params_dict(self) -> Dict[str, object]:
        """Parameters back as a plain dict (fresh parse, lossless)."""
        return json.loads(self.params_json)

    @property
    def spec_hash(self) -> str:
        """Content hash of the *computation* this spec names.

        Covers job type, parameters, seed and the registered result
        version (when nonzero) — not the execution policy
        (timeout/retries), which changes how hard we try, not what is
        computed.  This is the artifact-store key: same hash, same
        result.
        """
        doc = {"job_type": self.job_type, "params": self.params_dict,
               "seed": self.seed}
        job_type = _JOB_TYPES.get(self.job_type)
        if job_type is not None and job_type.version:
            doc["version"] = job_type.version
        return stable_hash(doc)

    def describe(self) -> str:
        return f"{self.job_type}[{self.spec_hash[:10]}]"


def run_job(spec: JobSpec, ctx: JobContext):
    """Execute a spec's function in the current process."""
    return job_function(spec.job_type)(spec.params_dict, ctx)


# ----------------------------------------------------------------------
# Stock job types — the service's production workloads
# ----------------------------------------------------------------------


@register_job_type("locking-point", sample_params={
    "netlist": "0" * 64, "key_bits": 4, "max_iterations": 100,
    "baseline_area": None}, sample_result={
    "key_bits": 4, "area": 12.5, "sat_attack_iterations": 3,
    "attack_seconds": 0.01, "attack_gave_up": False}, version=1)
def _locking_point_job(params: Dict[str, object], ctx: JobContext):
    """One point of a locking sweep: lock at ``key_bits``, SAT-attack.

    ``params['netlist']`` is an artifact-store digest; the worker
    rebuilds the netlist (insertion order preserved), so the seeded
    site selection — and therefore the attack transcript — is
    bit-identical to a serial run on the original object.  Version 1:
    the attack's miter is structurally hashed with constants folded
    (:class:`~repro.formal.CircuitEncoder`), so the solver meets
    distinguishing inputs in another order and
    ``sat_attack_iterations`` moves.
    """
    from ..core.dse import measure_locking_point

    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    baseline = params.get("baseline_area")
    point = measure_locking_point(
        netlist, int(params["key_bits"]), seed=ctx.seed,
        max_iterations=int(params.get("max_iterations", 400)),
        baseline_area=None if baseline is None else float(baseline))
    return {
        "key_bits": point.key_bits,
        "area": point.area,
        "sat_attack_iterations": point.sat_attack_iterations,
        "attack_seconds": point.attack_seconds,
        "attack_gave_up": point.attack_gave_up,
    }


@register_job_type("composition-stack", sample_params={
    "design": "masked-and", "stack": ["duplication"],
    "engine": {"n_traces": 400, "noise_sigma": 0.25,
               "n_fault_vectors": 16}}, sample_result={
    "design": "masked-and", "stack": ["duplication"],
    "baseline": {"tvla_max_t": 2.12, "tvla_leaks": 0.0,
                 "leaky_nets": 0.0, "fia_coverage": 0.0,
                 "fia_silent": 48.0, "area": 41.1, "delay": 340.0,
                 "key_bits": 0.0},
    "final": {"tvla_max_t": 1.57, "tvla_leaks": 0.0, "leaky_nets": 0.0,
              "fia_coverage": 1.0, "fia_silent": 0.0, "area": 94.45,
              "delay": 502.0, "key_bits": 0.0},
    "area_factor": 2.3, "flagged": False, "notes": [],
    "cross_effects": [{"countermeasure": "duplication-detect",
                       "metric": "tvla_max_t", "before": 2.12,
                       "after": 1.57, "harmful": False, "note": ""}]},
    version=3)
def _composition_stack_job(params: Dict[str, object], ctx: JobContext):
    """One cross-effect matrix row: compose a named stack, re-verify.

    Designs and stack entries are addressed by name
    (:mod:`repro.core.designs`) because designs hold closures that
    cannot cross process boundaries.  Version 1: rows carry the
    confirmed TVLA verdict (``tvla_leaks``) and count confirmed leaking
    nets.  Version 2: each stack entry is a registered flow pass
    (:data:`~repro.core.designs.STACK_PASSES`), so cross effects carry
    the pass name — ``timing-reassociation`` reads ``reassoc-timing``;
    all other values are unchanged.  Version 3: a design draws each
    TVLA trace set as packed columns from another RNG stream, so the
    TVLA and masking values of rows move.
    """
    from ..core import CompositionEngine

    engine_params = dict(params.get("engine", {}))
    engine = CompositionEngine(seed=ctx.seed, **{
        k: v for k, v in engine_params.items()
        if k in ("n_traces", "noise_sigma", "n_fault_vectors",
                 "tvla_threshold")})
    return engine.evaluate_stack_row(str(params["design"]),
                                     list(params["stack"]))


@register_job_type("netlist-ppa", sample_params={"netlist": "0" * 64},
                   sample_result={"area": 10.0, "delay": 3.0,
                                  "leakage_power": 0.2, "cells": 6})
def _netlist_ppa_job(params: Dict[str, object], ctx: JobContext):
    """PPA report of a stored netlist (cheap; DAG glue and smoke tests)."""
    from ..netlist import ppa_report

    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    ppa = ppa_report(netlist)
    return {"area": ppa.area, "delay": ppa.delay,
            "leakage_power": ppa.leakage_power,
            "cells": netlist.num_cells()}


@register_job_type("route", sample_params={
    "netlist": "0" * 64, "num_layers": None,
    "placement_iterations": 2000}, sample_result={
    "layout": "0" * 64, "nets": 5, "wirelength": 42, "vias": 3,
    "failed_nets": []}, version=2)
def _route_job(params: Dict[str, object], ctx: JobContext):
    """Place and maze-route a stored netlist; publish the layout.

    Placement (annealing, seeded from the spec) and routing are both
    deterministic in ``(params, seed)``, so the routed geometry — and
    therefore the returned wirelength/via/failure figures — is
    bit-identical wherever the job runs.  The full
    :class:`~repro.physical.routing.RoutedLayout` dict is published to
    the store under its content digest for downstream jobs.  Version 1:
    the annealer counts a net once for a gate that reads it on two
    fanins, so placements of netlists with such gates changed.
    Version 2: the router's permissive (rip-up) search runs in a window
    that doubles until it finds a path, so some congested layouts
    changed.
    """
    from ..physical import annealing_placement, maze_route

    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    placement = annealing_placement(
        netlist, iterations=int(params.get("placement_iterations", 2000)),
        seed=ctx.seed).placement
    num_layers = params.get("num_layers")
    if num_layers is None:
        layout = maze_route(netlist, placement)
    else:
        layout = maze_route(netlist, placement,
                            num_layers=int(num_layers))
    doc = layout.to_dict()
    digest = stable_hash(doc)
    ctx.store.put(digest, doc)
    return {"layout": digest,
            "nets": len(layout.nets),
            "wirelength": layout.total_wirelength,
            "vias": layout.total_vias,
            "failed_nets": list(layout.failed)}


@register_job_type("closure", sample_params={
    "netlist": "0" * 64,
    "thresholds": {"probing": 0.05, "fia": 0.30, "trojan": 0.05},
    "num_layers": None, "max_iterations": 4,
    "placement_iterations": 2000}, sample_result={
    "closed": True, "iterations": 2, "layout": "0" * 64,
    "metrics": {"probing": 0.01}}, version=2)
def _closure_job(params: Dict[str, object], ctx: JobContext):
    """Run iterative security closure on a stored netlist.

    Returns :meth:`~repro.physical.closure.ClosureResult.to_dict` with
    the trace's wall times stripped
    (:func:`~repro.flow.manager.strip_wall_times`) — the one
    non-deterministic part — so the result is a pure function of
    ``(params, seed)`` and the artifact cache stays sound.  The closed
    layout is published to the store under ``result['layout']``.
    Version 1: the annealer counts a net once for a gate that reads it
    on two fanins, so closures of netlists with such gates changed.
    Version 2: the router's permissive search runs in a doubling
    window, so some closed layouts changed, and a closure that leaves
    a net unrouted is no longer ``converged``.
    """
    from ..flow import strip_wall_times
    from ..physical import ClosureThresholds, security_closure

    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    bounds = {k: float(v)
              for k, v in dict(params.get("thresholds", {})).items()}
    num_layers = params.get("num_layers")
    result = security_closure(
        netlist,
        thresholds=ClosureThresholds(**bounds),
        num_layers=None if num_layers is None else int(num_layers),
        max_iterations=int(params.get("max_iterations", 4)),
        placement_iterations=int(
            params.get("placement_iterations", 2000)),
        seed=ctx.seed)
    doc = result.to_dict()
    doc["trace"] = strip_wall_times(doc["trace"])
    layout_doc = result.layout.to_dict()
    layout_digest = stable_hash(layout_doc)
    ctx.store.put(layout_digest, layout_doc)
    doc["layout"] = layout_digest
    return doc


def evaluate_variants(netlist, variants, n_vectors: int = 64,
                      seed: int = 0):
    """Score a family of variant specs on shared seeded random vectors.

    The per-variant kernel behind the ``variant-eval`` and
    ``variant-batch`` job types.  The stimulus depends only on
    ``(netlist, n_vectors, seed)`` and each variant's packed slice is
    bit-identical to evaluating that variant alone, so a variant's
    result is a pure function of ``(netlist, variant, n_vectors,
    seed)`` — batching is invisible to the artifact cache.  Returns one
    JSON-able dict per variant: hex-packed output words, the vector
    count, and a stable digest of the outputs.
    """
    import random

    from ..netlist import (
        VariantFamily, VariantSpec, get_compiled, random_stimulus,
    )

    specs = [v if isinstance(v, VariantSpec) else VariantSpec.from_dict(v)
             for v in variants]
    rng = random.Random(seed)
    stimulus = random_stimulus(netlist.inputs, n_vectors, rng)
    family = VariantFamily(netlist, specs)
    words = family.eval_words(stimulus, n_vectors)
    compiled = get_compiled(netlist)
    mask = (1 << n_vectors) - 1
    results = []
    for v in range(len(specs)):
        shift = v * n_vectors
        outputs = {
            o: hex((words[compiled.index[o]] >> shift) & mask)
            for o in netlist.outputs
        }
        results.append({
            "outputs": outputs,
            "n_vectors": n_vectors,
            "digest": stable_hash(outputs),
        })
    return results


@register_job_type("variant-eval", sample_params={
    "netlist": "0" * 64,
    "variant": {"inputs": {}, "forces": {}, "flips": ["g0"],
                "opcodes": {}},
    "n_vectors": 16}, sample_result={
    "outputs": {"out": "0xffff"}, "n_vectors": 16,
    "digest": "0" * 64})
def _variant_eval_job(params: Dict[str, object], ctx: JobContext):
    """Score one design variant on seeded random vectors.

    The cache unit of a variant sweep: the spec hash covers (netlist
    digest, canonical variant delta, vector count, seed).  A
    ``variant-batch`` job publishes its per-variant results under these
    exact spec hashes, so serial and batched executions interleave in
    the artifact cache bit-identically.
    """
    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    return evaluate_variants(
        netlist, [params["variant"]],
        n_vectors=int(params.get("n_vectors", 64)), seed=ctx.seed)[0]


@register_job_type("variant-batch", sample_params={
    "netlist": "0" * 64,
    "variants": [{"inputs": {}, "forces": {}, "flips": ["g0"],
                  "opcodes": {}}],
    "n_vectors": 16}, sample_result={
    "results": [{"outputs": {"out": "0xffff"}, "n_vectors": 16,
                 "digest": "0" * 64}],
    "variant_hashes": ["0" * 64]})
def _variant_batch_job(params: Dict[str, object], ctx: JobContext):
    """Score a whole variant family in one batched evaluation.

    All variants share one lowering of the stored netlist
    (:class:`~repro.netlist.VariantFamily`), and each per-variant
    result is also published to the store under the spec hash of the
    equivalent ``variant-eval`` job — later per-variant resubmissions
    are pure cache hits.
    """
    from ..netlist import VariantSpec

    netlist_digest = str(params["netlist"])
    netlist = ctx.store.get_netlist(netlist_digest)
    if netlist is None:
        raise RuntimeError(f"input netlist {netlist_digest!r} not in store")
    n_vectors = int(params.get("n_vectors", 64))
    canonical = [VariantSpec.from_dict(v).to_dict()
                 for v in params["variants"]]
    results = evaluate_variants(netlist, canonical,
                                n_vectors=n_vectors, seed=ctx.seed)
    variant_hashes = []
    for variant, result in zip(canonical, results):
        eval_spec = JobSpec(
            "variant-eval",
            params={"netlist": netlist_digest, "variant": variant,
                    "n_vectors": n_vectors},
            seed=ctx.seed)
        ctx.store.put(eval_spec.spec_hash,
                      {"result": result,
                       "job_type": "variant-eval",
                       "seed": ctx.seed})
        variant_hashes.append(eval_spec.spec_hash)
    return {"results": results, "variant_hashes": variant_hashes}


@register_job_type("pass-pipeline", sample_params={
    "netlist": "0" * 64,
    "passes": [["synthesis", {}]]}, sample_result={
    "trace": {"passes": []}, "result_netlist": "0" * 64},
    version=7)
def _pass_pipeline_job(params: Dict[str, object], ctx: JobContext):
    """Run a named pass pipeline over a stored netlist.

    ``params['passes']`` is a list of ``[pass name, ctor kwargs]``
    pairs resolved through the flow pass registry.  The transformed
    netlist is published back into the store and the
    :class:`~repro.flow.manager.FlowTrace` dict is returned without its
    wall times (:func:`~repro.flow.manager.strip_wall_times`), so the
    result is a pure function of ``(params, seed)``;
    ``FlowTrace.from_dict`` reconstructs the trace client-side.
    The manager gets no checker and no goal, so the trace holds no
    property re-check: a pass's declared effects are recorded, not
    measured.  Version 1: wall times stripped.  Version 2: the ``atpg``
    pass keeps only first-detecting patterns of a 1024-pattern block
    and reports their count.  (``mask-insertion`` drawing one RNG word
    per masked stimulus, from the same change, moves nothing here: no
    trace set is drawn in this job.)  Version 3:
    :meth:`~repro.netlist.Netlist.sweep_dangling` bumps the mutation
    epoch once per call, not once per removal wave, so trace epochs
    after sweeping passes read lower.  Version 4: the ``synthesis``
    pass's summary says "mapped to std library" only when it maps, so
    its summary with ``map_library=False`` changed.  Version 5: ATPG
    observes a fault at an output through the net of that name, so
    ``atpg`` answers changed for netlists whose input is also an
    output: such a netlist no longer raises ``KeyError``, the stuck
    input is seen only through its readers, and when none exposes it
    the fault is counted neither detected nor redundant.  Version 6:
    the ``placement`` pass's annealer counts a net once for a gate
    that reads it on two fanins, so its placements of netlists with
    such gates changed.  Version 7: the ``route`` pass's permissive
    search runs in a doubling window, so some routed layouts changed,
    and ``reassoc-timing`` sweeps dangling gates once per run instead
    of once per rebuilt tree, so its trace epoch reads lower.
    """
    from ..flow import (PassManager, create_pass, netlist_design,
                        strip_wall_times)

    netlist = ctx.store.get_netlist(str(params["netlist"]))
    if netlist is None:
        raise RuntimeError(
            f"input netlist {params['netlist']!r} not in store")
    passes = [create_pass(str(name), **dict(kwargs))
              for name, kwargs in params["passes"]]
    manager = PassManager(seed=ctx.seed)
    outcome = manager.run(netlist_design(netlist, seed=ctx.seed), passes)
    result_digest = ctx.store.put_netlist(outcome.design.netlist)
    return {"trace": strip_wall_times(outcome.trace.to_dict()),
            "result_netlist": result_digest}
