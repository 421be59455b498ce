"""``python -m repro.service`` — submit, watch, inspect, and serve.

Subcommands::

    sweep    submit a locking-sweep campaign and print the points
    compose  submit a composition cross-effect campaign
    closure  security-close benchmark designs and print the metrics
    serve    run the multi-tenant HTTP evaluation gateway
    jobs     query the run database (filter by run / type / status)
    runs     list run ids with per-run summaries
    summary  aggregate run-database statistics
    migrate  copy a legacy JSON-lines run log into a SQLite run database
    store    artifact-store statistics
    gc       collect unpinned, unreferenced artifacts (--dry-run)
    pin      pin an artifact digest under a named ref
    unpin    drop a pin ref from an artifact digest

Campaign commands accept ``--workers N`` (0 = in-process), a
``--store`` directory for the persistent artifact cache, and a
``--db`` path for the SQLite run database; ``--watch`` prints each
job state transition as the scheduler makes it — the same
:class:`~repro.service.events.JobEvent` the gateway's SSE streams
carry, rendered by :func:`~repro.service.events.format_event`.  Their
flag defaults are the defaults of the campaign's plan
(:mod:`~repro.service.campaigns`), the same ones an HTTP submission
gets.
"""

from __future__ import annotations

import argparse
import inspect
import json
import signal
import sys
import threading
from typing import Callable, Dict, Optional

from .campaigns import (
    BENCH_CIRCUITS,
    DEFAULT_STACKS,
    bench_netlists,
    composition_matrix_campaign,
    locking_sweep_campaign,
    plan_closure,
    plan_compose,
    plan_sweep,
    security_closure_campaign,
    stack_table,
)
from .events import JobEvent, format_event
from .rundb import RunDatabase, migrate_jsonl, render_records
from .store import ArtifactStore


def _watch(args) -> Optional[Callable[[JobEvent], None]]:
    """The ``on_event`` printer of ``--watch``, or None."""
    if not args.watch:
        return None
    return lambda event: print(format_event(event), flush=True)


def _open_db(args) -> Optional[RunDatabase]:
    return RunDatabase(args.db) if args.db else None


def _open_store(args) -> Optional[ArtifactStore]:
    return ArtifactStore(args.store) if args.store else None


def cmd_sweep(args) -> int:
    try:
        (netlist,) = bench_netlists([args.bench])
    except ValueError as exc:
        print(exc)
        return 2
    widths = [int(w) for w in args.widths.split(",") if w != ""]
    points = locking_sweep_campaign(
        netlist, widths, seed=args.seed,
        max_iterations=args.max_iterations, workers=args.workers,
        store=_open_store(args), rundb=_open_db(args),
        timeout=args.timeout, on_event=_watch(args))
    print(f"\n=== locking sweep: {args.bench} "
          f"(seed {args.seed}, workers {args.workers}) ===")
    print(f"{'key bits':>8} {'area':>8} {'DIP iters':>10} "
          f"{'attack (s)':>11} {'gave up':>8}")
    for p in points:
        print(f"{p.key_bits:>8} {p.area:>8.1f} "
              f"{p.sat_attack_iterations:>10} {p.attack_seconds:>11.3f} "
              f"{str(p.attack_gave_up):>8}")
    return 0


def cmd_compose(args) -> int:
    try:
        stacks = stack_table([s for s in args.stacks.split(",") if s]
                             if args.stacks else None)
    except ValueError as exc:
        print(exc)
        return 2
    matrix = composition_matrix_campaign(
        design=args.design, stacks=stacks,
        engine_params={"n_traces": args.traces,
                       "noise_sigma": args.noise},
        seed=args.seed, workers=args.workers,
        store=_open_store(args), rundb=_open_db(args),
        timeout=args.timeout, on_event=_watch(args))
    print(f"\n=== composition matrix: {args.design} "
          f"(workers {args.workers}) ===")
    print(f"{'stack':<16} {'TVLA |t| in':>12} {'out':>8} "
          f"{'FIA cov in':>11} {'out':>6} {'area x':>7} {'flagged':>8}")
    for label, row in matrix.items():
        print(f"{label:<16} {row['baseline']['tvla_max_t']:>12.2f} "
              f"{row['final']['tvla_max_t']:>8.2f} "
              f"{row['baseline']['fia_coverage']:>11.2f} "
              f"{row['final']['fia_coverage']:>6.2f} "
              f"{row['area_factor']:>7.2f} "
              f"{str(row['flagged']):>8}")
        for note in row["notes"]:
            print(f"  !! {note}")
    return 0


def cmd_closure(args) -> int:
    try:
        netlists = bench_netlists(
            [b for b in args.benches.split(",") if b != ""])
    except ValueError as exc:
        print(exc)
        return 2
    results = security_closure_campaign(
        netlists,
        thresholds={"probing": args.probing, "fia": args.fia,
                    "trojan": args.trojan},
        num_layers=args.layers, max_iterations=args.max_iterations,
        seed=args.seed, workers=args.workers,
        store=_open_store(args), rundb=_open_db(args),
        timeout=args.timeout, on_event=_watch(args))
    print(f"\n=== security closure (seed {args.seed}, "
          f"workers {args.workers}) ===")
    print(f"{'design':<16} {'closed':>6} {'iters':>5} "
          f"{'probing':>15} {'FIA':>15} {'trojan':>15} "
          f"{'CEC':>5} {'area x':>7}")
    for name, row in results.items():
        def arrow(metric):
            return (f"{row['initial_metrics'][metric]:.3f}"
                    f"->{row['metrics'][metric]:.3f}")
        print(f"{name:<16} {str(row['converged']):>6} "
              f"{row['iterations']:>5} {arrow('probing'):>15} "
              f"{arrow('fia'):>15} {arrow('trojan'):>15} "
              f"{str(row['equivalent']):>5} "
              f"{1.0 + row['area_overhead']:>7.2f}")
        for net in row["failed_nets"]:
            print(f"  !! unrouted net {net}")
    return 0


def cmd_jobs(args) -> int:
    if not args.db:
        print("jobs requires --db")
        return 2
    db = RunDatabase(args.db)
    records = db.query(run_id=args.run, job_type=args.type,
                       status=args.status,
                       cache_hit=(None if args.cache is None
                                  else args.cache == "hit"))
    print(render_records(records))
    return 0


def cmd_runs(args) -> int:
    if not args.db:
        print("runs requires --db")
        return 2
    db = RunDatabase(args.db)
    run_ids = db.run_ids()
    if not run_ids:
        print("(no runs)")
        return 0
    for run_id in run_ids:
        s = db.summary(run_id)
        statuses = ", ".join(f"{k}={v}"
                             for k, v in sorted(s["by_status"].items()))
        print(f"{run_id}: {s['records']} jobs ({statuses}), "
              f"cache {s['cache_hit_rate']:.0%}, "
              f"{s['total_wall_s']:.2f}s wall")
    return 0


def cmd_summary(args) -> int:
    if not args.db:
        print("summary requires --db")
        return 2
    print(json.dumps(RunDatabase(args.db).summary(run_id=args.run),
                     indent=2, sort_keys=True))
    return 0


def cmd_store(args) -> int:
    if not args.store:
        print("store requires --store")
        return 2
    store = ArtifactStore(args.store)
    count = len(store)
    pinned = len(store.pinned_digests())
    print(f"store {store.root}: {count} artifacts "
          f"({pinned} pinned), {store.total_bytes()} bytes")
    return 0


def cmd_migrate(args) -> int:
    if not args.db:
        print("migrate requires --db (the JSON-lines source)")
        return 2
    try:
        count = migrate_jsonl(args.db, args.dest)
    except ValueError as exc:
        print(f"migration refused: {exc}")
        return 1
    print(f"migrated {count} records: {args.db} -> {args.dest}")
    return 0


def cmd_gc(args) -> int:
    if not args.store:
        print("gc requires --store")
        return 2
    store = ArtifactStore(args.store)
    report = store.gc(dry_run=args.dry_run, grace_s=args.grace)
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc {store.root}: {verb} {len(report.removed)} artifacts "
          f"({report.bytes_freed} bytes); kept "
          f"{report.kept_pinned} pinned, "
          f"{report.kept_referenced} referenced, "
          f"{report.kept_recent} in grace window")
    for digest in report.removed:
        print(f"  - {digest}")
    return 0


def cmd_pin(args) -> int:
    if not args.store:
        print("pin requires --store")
        return 2
    store = ArtifactStore(args.store)
    try:
        if args.digest not in store:
            print(f"warning: {args.digest} not (yet) in store; "
                  "pin recorded anyway")
        store.pin(args.digest, ref=args.ref)
    except ValueError as exc:
        print(f"pin refused: {exc}")
        return 2
    print(f"pinned {args.digest} [{args.ref}] "
          f"(refs: {', '.join(store.pins(args.digest))})")
    return 0


def cmd_unpin(args) -> int:
    if not args.store:
        print("unpin requires --store")
        return 2
    store = ArtifactStore(args.store)
    try:
        existed = store.unpin(args.digest, ref=args.ref)
    except ValueError as exc:
        print(f"unpin refused: {exc}")
        return 2
    refs = store.pins(args.digest)
    state = "unpinned" if existed else "no such ref on"
    print(f"{state} {args.digest} [{args.ref}]"
          + (f" (remaining refs: {', '.join(refs)})" if refs else ""))
    return 0 if existed else 1


def cmd_serve(args) -> int:
    """Run the multi-tenant HTTP gateway until SIGINT or SIGTERM."""
    from .gateway import Gateway     # lazy: asyncio only when serving
    from .tenants import Tenant, TenantRegistry

    if not args.store:
        print("serve requires --store (the shared artifact cache)")
        return 2
    tenants = []
    for entry in args.tenant or []:
        name, sep, token = entry.partition("=")
        if not sep or not name or not token:
            print(f"invalid --tenant {entry!r}: expected NAME=TOKEN")
            return 2
        try:
            tenants.append(Tenant(
                name, token, rate=args.rate, burst=args.burst,
                max_in_flight=args.max_in_flight))
        except ValueError as exc:
            print(f"invalid tenant: {exc}")
            return 2
    if not tenants:
        print("warning: no --tenant given; serving a single "
              "'default' tenant with token 'dev-token' "
              "(development only)")
        tenants = [Tenant("default", "dev-token", rate=args.rate,
                          burst=args.burst,
                          max_in_flight=args.max_in_flight)]
    store = ArtifactStore(args.store)
    rundb = RunDatabase(args.db) if args.db else None
    gateway = Gateway(store, TenantRegistry(tenants), rundb=rundb,
                      workers=args.workers, host=args.host,
                      port=args.port)
    # A service manager stops the server with SIGTERM: drain exactly
    # as on Ctrl-C, or the pool workers outlive the server.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    host, port = gateway.start()
    print(f"gateway listening on http://{host}:{port} "
          f"({len(tenants)} tenant(s), {gateway.workers} workers)",
          flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\ndraining...", flush=True)
    finally:
        gateway.shutdown()
    print("gateway stopped")
    return 0


def _plan_defaults(plan: Callable) -> Dict[str, object]:
    """A campaign plan's keyword defaults, read from its signature."""
    return {name: param.default
            for name, param in inspect.signature(plan).parameters.items()
            if param.default is not inspect.Parameter.empty}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plan: Optional[Dict[str, object]] = None):
        p.add_argument("--db", default=None,
                       help="SQLite run-database path")
        p.add_argument("--store", default=None,
                       help="artifact-store root directory")
        if plan is not None:
            p.add_argument("--workers", type=int, default=0,
                           help="worker processes (0 = in-process)")
            p.add_argument("--seed", type=int, default=plan["seed"])
            p.add_argument("--timeout", type=float,
                           default=plan["timeout"],
                           help="per-job timeout in seconds")
            p.add_argument("--watch", action="store_true",
                           help="stream job state transitions")

    sweep = _plan_defaults(plan_sweep)
    p = sub.add_parser("sweep", help="locking-sweep campaign")
    p.add_argument("--bench", default=sweep["bench"],
                   help=f"circuit: {sorted(BENCH_CIRCUITS)}")
    p.add_argument("--widths",
                   default=",".join(map(str, sweep["widths"])),
                   help="comma-separated key widths")
    p.add_argument("--max-iterations", type=int,
                   default=sweep["max_iterations"])
    common(p, sweep)
    p.set_defaults(fn=cmd_sweep)

    compose = _plan_defaults(plan_compose)
    p = sub.add_parser("compose", help="composition cross-effect matrix")
    p.add_argument("--design", default=compose["design"])
    p.add_argument("--stacks", default=None,
                   help=f"comma-separated from {sorted(DEFAULT_STACKS)}")
    p.add_argument("--traces", type=int,
                   default=compose["engine"]["n_traces"])
    p.add_argument("--noise", type=float,
                   default=compose["engine"]["noise_sigma"])
    common(p, compose)
    p.set_defaults(fn=cmd_compose)

    closure = _plan_defaults(plan_closure)
    p = sub.add_parser("closure", help="security-closure campaign")
    p.add_argument("--benches", default=",".join(closure["benches"]),
                   help=f"comma-separated from {sorted(BENCH_CIRCUITS)}")
    p.add_argument("--probing", type=float,
                   default=closure["thresholds"]["probing"],
                   help="probing-exposure threshold")
    p.add_argument("--fia", type=float,
                   default=closure["thresholds"]["fia"],
                   help="FIA-exposure threshold")
    p.add_argument("--trojan", type=float,
                   default=closure["thresholds"]["trojan"],
                   help="Trojan-insertability threshold")
    p.add_argument("--layers", type=int, default=closure["num_layers"],
                   help="metal layers in the routing stack")
    p.add_argument("--max-iterations", type=int,
                   default=closure["max_iterations"])
    common(p, closure)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("serve", help="run the HTTP evaluation gateway")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8710,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="warm worker processes")
    p.add_argument("--tenant", action="append", default=None,
                   metavar="NAME=TOKEN",
                   help="register a tenant (repeatable)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="per-tenant request rate (req/s)")
    p.add_argument("--burst", type=int, default=100,
                   help="per-tenant rate-limit burst size")
    p.add_argument("--max-in-flight", type=int, default=64,
                   help="per-tenant live-job quota")
    common(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("jobs", help="query job records")
    p.add_argument("--run", default=None)
    p.add_argument("--type", default=None)
    p.add_argument("--status", default=None)
    p.add_argument("--cache", choices=("hit", "miss"), default=None)
    common(p)
    p.set_defaults(fn=cmd_jobs)

    p = sub.add_parser("runs", help="list runs with summaries")
    common(p)
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser("summary", help="aggregate statistics")
    p.add_argument("--run", default=None)
    common(p)
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("store", help="artifact-store statistics")
    common(p)
    p.set_defaults(fn=cmd_store)

    p = sub.add_parser("migrate",
                       help="copy a JSON-lines run log into SQLite")
    p.add_argument("dest", help="destination SQLite database path")
    common(p)
    p.set_defaults(fn=cmd_migrate)

    p = sub.add_parser("gc", help="collect unreferenced artifacts")
    p.add_argument("--dry-run", action="store_true",
                   help="report without deleting")
    p.add_argument("--grace", type=float, default=300.0,
                   help="in-flight window in seconds (default 300)")
    common(p)
    p.set_defaults(fn=cmd_gc)

    p = sub.add_parser("pin", help="pin an artifact digest")
    p.add_argument("digest")
    p.add_argument("--ref", default="cli",
                   help="pin reference name (default 'cli')")
    common(p)
    p.set_defaults(fn=cmd_pin)

    p = sub.add_parser("unpin", help="drop a pin ref from a digest")
    p.add_argument("digest")
    p.add_argument("--ref", default="cli")
    common(p)
    p.set_defaults(fn=cmd_unpin)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
