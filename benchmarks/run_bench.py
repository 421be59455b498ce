#!/usr/bin/env python
"""Benchmark-regression harness.

Runs the pytest-benchmark suite under ``benchmarks/``, stores the
machine-readable results as ``BENCH_<n>.json`` at the repository root
(``n`` auto-increments), and prints a per-benchmark comparison against
the previous run, flagging regressions beyond a configurable threshold.

Usage::

    python benchmarks/run_bench.py                 # whole suite
    python benchmarks/run_bench.py bench_tvla.py   # one file
    python benchmarks/run_bench.py -k tvla         # pytest filters pass through
    python benchmarks/run_bench.py --jobs 4        # fan out per file

With ``--jobs N`` each bench file becomes one ``pytest-bench`` job
fanned through the :mod:`repro.service` scheduler (N worker
processes, crash isolation, run-database visibility); the per-job
benchmark JSONs are merged into the usual single ``BENCH_<n>.json``,
so comparison and ``--check`` gating are unchanged.

Exit status is non-zero if pytest fails or any benchmark regressed by
more than ``--threshold`` (default 10%).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: ``--check`` scope: the flow-level benchmarks whose overhead the
#: pass-manager refactor must bound (fig1 flows, fig2 masking, AES)
#: plus the SAT-core microbenchmarks (ATPG / SAT attack kernels), the
#: physical-design kernels (maze routing / security closure), the
#: batched variant-sweep benchmarks (masking TVLA / locking keys),
#: the execution-service benchmarks (warm-pool resubmission /
#: indexed run-DB queries), and the HTTP gateway under concurrent
#: client load (submission latency / cache-served throughput).
CHECK_FILES = ("bench_fig1.py", "bench_fig2.py", "bench_aes_netlist.py",
               "bench_sat.py", "bench_closure.py", "bench_variants.py",
               "bench_service.py", "bench_gateway.py")
#: ``--check`` baseline: the pre-pass-manager reference run (PR 1).
BASELINE = REPO_ROOT / "BENCH_1.json"


def check_baseline(runs: Dict[int, Path],
                   exclude: Optional[int] = None) -> Dict[str, float]:
    """Per-benchmark ``--check`` baseline (min-stat seconds).

    Starts from :data:`BASELINE`; benchmarks that did not exist then
    (e.g. the SAT-core microbenchmarks added in PR 3) are anchored to
    the earliest committed ``BENCH_*.json`` that records them, so they
    are gated from their introduction run onward.  ``exclude`` drops
    one run number (the run being judged) from consideration.
    """
    baseline = load_means(BASELINE, stat="min") if BASELINE.exists() else {}
    for n in sorted(runs):
        if n == exclude or runs[n] == BASELINE:
            continue
        for name, seconds in load_means(runs[n], stat="min").items():
            baseline.setdefault(name, seconds)
    return baseline


def existing_runs() -> Dict[int, Path]:
    runs = {}
    for path in REPO_ROOT.iterdir():
        m = BENCH_RE.match(path.name)
        if m:
            runs[int(m.group(1))] = path
    return runs


def load_means(path: Path, stat: str = "mean") -> Dict[str, float]:
    """Benchmark name -> ``stat`` seconds from a pytest-benchmark JSON.

    The ``--check`` gate compares ``min`` — the noise-robust statistic
    (load spikes only ever push a round up, never down) — while the
    human-facing run comparison keeps ``mean``.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return {
        bench["name"]: bench["stats"][stat]
        for bench in data.get("benchmarks", [])
    }


def compare(previous: Dict[str, float], current: Dict[str, float],
            threshold: float, normalize: bool = False) -> int:
    """Print the comparison table; returns the number of regressions.

    With ``normalize``, the median now/prev ratio over the shared
    benchmarks is treated as environmental drift (runs recorded on
    different machines or under different load) and each benchmark is
    flagged only if it regresses beyond ``threshold`` *relative to that
    drift* — i.e. what the code change itself cost, not what the
    machine cost.  A benchmark set where everything slowed uniformly
    passes; one benchmark slowing while its peers did not fails.
    """
    if not previous:
        print("no previous BENCH_*.json to compare against")
        return 0
    drift = 1.0
    if normalize:
        ratios = sorted(current[n] / previous[n] for n in current
                        if n in previous and previous[n] > 0)
        if ratios:
            # Benchmarks that improved beyond the threshold are code
            # improvements, not machine speed — environment does not
            # make one benchmark 30x faster.  Excluding them stops a
            # targeted optimisation from dragging the drift estimate
            # down and falsely flagging its untouched peers.
            env = [r for r in ratios if r > 1.0 / (1.0 + threshold)]
            drift = statistics.median(env or ratios)
            print(f"environment drift (median now/prev over "
                  f"{len(env or ratios)} of {len(ratios)} shared "
                  f"benchmarks): {drift:.2f}x — regressions judged "
                  f"relative to it")
    width = max((len(n) for n in current), default=4)
    print(f"{'benchmark':<{width}}  {'prev (s)':>10}  {'now (s)':>10}  "
          f"{'speedup':>8}")
    regressions = 0
    for name in sorted(current):
        now = current[name]
        prev = previous.get(name)
        if prev is None:
            print(f"{name:<{width}}  {'-':>10}  {now:>10.4f}  {'new':>8}")
            continue
        speedup = prev / now if now > 0 else float("inf")
        marker = ""
        if now > prev * drift * (1 + threshold):
            marker = f"  << REGRESSION (>{threshold:.0%})"
            regressions += 1
        print(f"{name:<{width}}  {prev:>10.4f}  {now:>10.4f}  "
              f"{speedup:>7.2f}x{marker}")
    for name in sorted(set(previous) - set(current)):
        print(f"{name:<{width}}  {previous[name]:>10.4f}  {'-':>10}  "
              f"{'gone':>8}")
    return regressions


def check_summary(baseline: Dict[str, float],
                  current: Dict[str, float]) -> None:
    """One-line ``--check`` recap: median speedup vs the baseline."""
    speedups = [baseline[n] / current[n] for n in current
                if n in baseline and current[n] > 0]
    if speedups:
        print(f"median speedup vs earliest baseline over "
              f"{len(speedups)} benchmark(s): "
              f"{statistics.median(speedups):.2f}x")


def expand_targets(targets) -> list:
    """Flatten targets to individual bench files (fan-out units)."""
    files = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(str(p) for p in path.glob("bench_*.py")))
        else:
            files.append(str(path))
    return files


def run_parallel(targets, flags, out_path: Path, jobs: int,
                 rundb_path: Optional[Path] = None,
                 serialize: bool = False) -> int:
    """Fan one ``pytest-bench`` job per file through the scheduler.

    Jobs are submitted ``cacheable=False`` — wall-clock timings are
    not a pure function of ``(params, seed)``, so serving them from
    the artifact store would defeat the measurement.  Per-job
    benchmark JSONs are merged (``benchmarks`` lists concatenated,
    top-level metadata from the first successful job) into
    ``out_path`` so downstream comparison sees one ordinary run.

    With ``serialize`` (used by ``--check``) each job depends on its
    predecessor, so measurements never overlap: concurrent timing
    runs contend for the same cores and slow short benchmarks
    disproportionately, which the drift-normalized gate cannot tell
    from a real regression.  The jobs still run as isolated worker
    processes with run-database visibility.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.service import JobSpec, RunDatabase, Scheduler

    files = expand_targets(targets)
    if not files:
        print("no bench files matched")
        return 1
    rundb = RunDatabase(rundb_path) if rundb_path else None
    scheduler = Scheduler(workers=jobs, rundb=rundb)
    prev_id = None
    for target in files:
        prev_id = scheduler.submit(
            JobSpec("pytest-bench",
                    params={"target": target,
                            "flags": list(flags),
                            "cwd": str(REPO_ROOT),
                            "pythonpath": str(REPO_ROOT / "src")},
                    cacheable=False),
            deps=([prev_id] if serialize and prev_id else ()),
            job_id=Path(target).stem)
    finished = scheduler.run()

    merged = None
    failures = 0
    for job_id in sorted(finished):
        job = finished[job_id]
        if job.status != "succeeded" or job.result is None:
            print(f"{job_id}: job {job.status}"
                  + (f" — {job.error.splitlines()[-1]}"
                     if job.error else ""))
            failures += 1
            continue
        doc = job.result.get("doc")
        if job.result.get("returncode") != 0 or not doc:
            print(f"{job_id}: pytest exited with "
                  f"{job.result.get('returncode')}")
            tail = job.result.get("tail", "")
            if tail:
                print("\n".join(tail.splitlines()[-15:]))
            failures += 1
            continue
        n = len(doc.get("benchmarks", []))
        print(f"{job_id}: {n} benchmarks")
        if merged is None:
            merged = doc
        else:
            merged["benchmarks"].extend(doc.get("benchmarks", []))
    if merged is not None:
        out_path.write_text(json.dumps(merged, indent=2))
    if failures:
        print(f"{failures} bench job(s) failed")
        return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Unknown arguments are forwarded to pytest.")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="regression threshold as a fraction "
                             "(default: 0.10 = 10%%)")
    parser.add_argument("--compare-only", action="store_true",
                        help="compare the two latest BENCH_*.json "
                             "without running anything")
    parser.add_argument("--check", action="store_true",
                        help="pipeline-overhead check: run only "
                             f"{', '.join(CHECK_FILES)} and compare "
                             f"against the {BASELINE.name} baseline")
    parser.add_argument("--jobs", type=int, default=0,
                        help="fan out one job per bench file through "
                             "the repro.service scheduler with this "
                             "many worker processes (0 = plain pytest)")
    parser.add_argument("--rundb", default=None,
                        help="with --jobs: record job outcomes in this "
                             "SQLite run database")
    args, pytest_args = parser.parse_known_args(argv)

    runs = existing_runs()
    if args.compare_only:
        if args.check:
            if not runs or not BASELINE.exists():
                print(f"--check needs {BASELINE.name} and at least one "
                      "later BENCH_*.json")
                return 1
            latest = sorted(runs)[-1]
            baseline = check_baseline(runs, exclude=latest)
            current = load_means(runs[latest], stat="min")
            # Benchmarks this run introduced have no earlier anchor:
            # keep them in the table (shown as "new") and trim the
            # baseline to the checked scope instead.
            baseline = {n: t for n, t in baseline.items() if n in current}
            bad = compare(baseline, current, args.threshold,
                          normalize=True)
            check_summary(baseline, current)
            return 1 if bad else 0
        if len(runs) < 2:
            print("need at least two BENCH_*.json files to compare")
            return 1
        latest, prior = sorted(runs)[-1], sorted(runs)[-2]
        bad = compare(load_means(runs[prior]), load_means(runs[latest]),
                      args.threshold)
        return 1 if bad else 0

    next_n = max(runs, default=0) + 1
    out_path = REPO_ROOT / f"BENCH_{next_n}.json"
    targets = [a for a in pytest_args if not a.startswith("-")]
    flags = [a for a in pytest_args if a.startswith("-")]
    if not targets:
        targets = ([str(BENCH_DIR / f) for f in CHECK_FILES]
                   if args.check else [str(BENCH_DIR)])
    else:
        # pytest runs from the repo root; resolve bare file names like
        # ``bench_tvla.py`` against the benchmarks directory.
        targets = [
            str(BENCH_DIR / t)
            if not Path(t).exists() and (BENCH_DIR / t).exists() else t
            for t in targets
        ]
    if args.jobs > 0:
        print(f"fanning out through repro.service "
              f"({args.jobs} workers) -> {out_path.name}")
        rc = run_parallel(
            targets, flags, out_path, args.jobs,
            rundb_path=Path(args.rundb) if args.rundb else None,
            serialize=args.check)
        if rc != 0:
            return rc
    else:
        cmd = [
            sys.executable, "-m", "pytest", "-q", *targets, *flags,
            f"--benchmark-json={out_path}",
        ]
        env_path = str(REPO_ROOT / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = (env_path + os.pathsep
                             + env.get("PYTHONPATH", ""))
        print("running:", " ".join(cmd))
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
        if proc.returncode != 0:
            print(f"pytest exited with {proc.returncode}; "
                  f"results (if any) in {out_path.name}")
            return proc.returncode

    current = load_means(out_path)
    print(f"\nwrote {out_path.name} ({len(current)} benchmarks)")
    if args.check:
        baseline = check_baseline(runs)
        current = load_means(out_path, stat="min")
        baseline = {n: t for n, t in baseline.items() if n in current}
        bad = compare(baseline, current, args.threshold, normalize=True)
        check_summary(baseline, current)
    else:
        previous_path = runs.get(max(runs)) if runs else None
        bad = compare(load_means(previous_path) if previous_path else {},
                      current, args.threshold)
    if bad:
        print(f"\n{bad} benchmark(s) regressed more than "
              f"{args.threshold:.0%}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
