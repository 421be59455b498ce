#!/usr/bin/env python
"""Static audit of the service job-type registry.

Every registered :class:`repro.service.JobType` must produce specs
that are safe to ship across process boundaries and to use as cache
addresses.  For each type, using its declared ``sample_params``, the
audit checks (without *running* anything):

* the implementation is a module-level function (picklable by
  reference) with a docstring,
* ``sample_params`` are declared and canonically JSON-able,
* the spec pickle round-trips to an equal spec,
* the spec hash is *stable*: identical across repeated computation,
  across the pickle round trip, and across params-dict insertion
  order — the property that makes the artifact store a cache rather
  than a lottery,
* the hash ignores execution policy (timeout/retries) but depends on
  the seed,
* the registered result ``version`` is an int >= 0, and a nonzero
  version changes the hash (version 0 keeps the unversioned one), so
  a persistent store never serves results of an older version,
* the declared ``sample_result`` is picklable *and* JSON-able — the
  result must cross the worker pipe and land in the artifact store,
  so it must not smuggle process-local handles (compiled programs,
  solver engines, open stores) out of a warm worker,
* the job function captures no closure state (``__closure__`` is
  empty): a persistent worker runs many jobs, and captured mutable
  state would make results depend on execution history instead of
  ``(params, seed)``.

Run directly (exit 1 on problems) or import :func:`audit` from a test.

Usage::

    PYTHONPATH=src python scripts/check_jobs.py
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def audit() -> List[str]:
    """Return one problem string per registry violation (empty = clean)."""
    from repro.netlist import canonical_json, stable_hash
    from repro.service import JobSpec, registered_job_types

    problems: List[str] = []
    for name, job_type in sorted(registered_job_types().items()):
        fn = job_type.fn
        where = f"{fn.__module__}.{fn.__qualname__}"

        if not (fn.__doc__ or "").strip():
            problems.append(f"{name}: job function {where} has no "
                            "docstring")
        try:
            unpickled = pickle.loads(pickle.dumps(fn))
        except Exception as exc:   # noqa: BLE001
            problems.append(
                f"{name}: job function {where} is not picklable "
                f"({type(exc).__name__}: {exc}) — it must be a "
                "module-level function")
        else:
            if unpickled is not fn:
                problems.append(
                    f"{name}: job function {where} does not pickle "
                    "by reference")

        if getattr(fn, "__closure__", None):
            problems.append(
                f"{name}: job function {where} captures closure "
                "state — warm-worker results must depend only on "
                "(params, seed), not on captured objects")

        sample_result = dict(job_type.sample_result)
        if not sample_result:
            problems.append(
                f"{name}: no sample_result declared — the audit "
                "cannot prove the result crosses the worker pipe")
        else:
            try:
                canonical_json(sample_result)
            except (TypeError, ValueError) as exc:
                problems.append(
                    f"{name}: sample_result is not JSON-able ({exc}) "
                    "— results must be storable artifacts, free of "
                    "process-local handles")
            try:
                clone = pickle.loads(pickle.dumps(sample_result))
            except Exception as exc:   # noqa: BLE001
                problems.append(
                    f"{name}: sample_result is not picklable "
                    f"({type(exc).__name__}: {exc}) — results must "
                    "cross the worker pipe")
            else:
                if clone != sample_result:
                    problems.append(
                        f"{name}: sample_result != pickle round trip")

        sample = dict(job_type.sample_params)
        if not sample and name not in ():
            problems.append(
                f"{name}: no sample_params declared — the audit "
                "cannot prove spec portability")
        try:
            canonical_json(sample)
        except (TypeError, ValueError) as exc:
            problems.append(
                f"{name}: sample_params are not canonically JSON-able "
                f"({exc})")
            continue

        try:
            spec = JobSpec(name, params=sample, seed=7)
        except Exception as exc:   # noqa: BLE001
            problems.append(
                f"{name}: JobSpec construction failed on "
                f"sample_params ({type(exc).__name__}: {exc})")
            continue

        # Pickle round trip: equal spec, equal hash.
        try:
            clone = pickle.loads(pickle.dumps(spec))
        except Exception as exc:   # noqa: BLE001
            problems.append(
                f"{name}: spec is not picklable "
                f"({type(exc).__name__}: {exc})")
            continue
        if clone != spec:
            problems.append(f"{name}: spec != pickle round trip")
        if clone.spec_hash != spec.spec_hash:
            problems.append(
                f"{name}: spec hash changes across pickling")

        # Hash stability: recomputation and key-order independence.
        if spec.spec_hash != JobSpec(name, params=sample,
                                     seed=7).spec_hash:
            problems.append(f"{name}: spec hash is not deterministic")
        reordered = dict(reversed(list(sample.items())))
        if spec.spec_hash != JobSpec(name, params=reordered,
                                     seed=7).spec_hash:
            problems.append(
                f"{name}: spec hash depends on params insertion order")

        # Policy out, seed in.
        if spec.spec_hash != JobSpec(name, params=sample, seed=7,
                                     timeout=1.0, retries=5).spec_hash:
            problems.append(
                f"{name}: spec hash leaks execution policy "
                "(timeout/retries must not change what is computed)")
        if spec.spec_hash == JobSpec(name, params=sample,
                                     seed=8).spec_hash:
            problems.append(f"{name}: spec hash ignores the seed")

        # Result version: a nonzero version must move the hash off the
        # unversioned formula, or stale results stay addressable.
        version = job_type.version
        unversioned = stable_hash({"job_type": name, "params": sample,
                                   "seed": 7})
        if (not isinstance(version, int) or isinstance(version, bool)
                or version < 0):
            problems.append(
                f"{name}: version {version!r} is not an int >= 0")
        elif version and spec.spec_hash == unversioned:
            problems.append(
                f"{name}: version {version} does not change the spec "
                "hash")
        elif not version and spec.spec_hash != unversioned:
            problems.append(f"{name}: version 0 changes the spec hash")
    return problems


def main() -> int:
    problems = audit()
    from repro.service import registered_job_types

    total = len(registered_job_types())
    if problems:
        print(f"job registry audit: {len(problems)} problem(s) "
              f"across {total} registered job types")
        for p in problems:
            print(f"  - {p}")
        return 1
    print(f"job registry audit: {total} job types, all specs "
          "picklable and hash-stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
