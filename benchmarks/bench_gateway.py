"""X14 — the multi-tenant HTTP gateway under concurrent client load.

One in-process gateway (ephemeral port, warm worker pool) serving
``CLIENTS`` concurrent tenants-worth of traffic: every client thread
submits ``PER_CLIENT`` distinct ``netlist-ppa`` jobs over its own
HTTP connection, follows each to its terminal event, and the round is
timed end to end.  Reported: p50/p99 submission latency (request to
receipt), end-to-end jobs/second, and the cache round trip — the
identical round resubmitted must be served 100% from the
content-addressed store, and every receipt's ``spec_hash`` must equal
the locally constructed :class:`~repro.service.JobSpec` hash
(transport parity: HTTP submission addresses the same computation as
in-process construction).

Gates (``run_bench.py --check`` runs this file):

* all ``CLIENTS x PER_CLIENT`` jobs succeed in both rounds,
* round 2 is all cache hits with bit-identical results,
* cold throughput >= ``MIN_COLD_JOBS_PER_S`` and cache-served
  throughput >= ``MIN_WARM_JOBS_PER_S`` (conservative floors —
  an 8-way concurrent load must not collapse the single-scheduler
  command loop),
* p99 submission latency stays under ``MAX_SUBMIT_P99_S``.
"""

import tempfile
import threading
import time

from repro.netlist import c17, netlist_to_dict
from repro.service import ArtifactStore, JobSpec, RunDatabase
from repro.service.client import GatewayClient
from repro.service.gateway import Gateway
from repro.service.tenants import Tenant, TenantRegistry

CLIENTS = 8
PER_CLIENT = 12
WORKERS = 2

MIN_COLD_JOBS_PER_S = 4.0
MIN_WARM_JOBS_PER_S = 10.0
MAX_SUBMIT_P99_S = 2.0


def _percentile(values, q):
    values = sorted(values)
    index = min(len(values) - 1, int(round(q * (len(values) - 1))))
    return values[index]


def _client_round(host, port, token, digest, seeds, submit_latencies,
                  finals, errors):
    """One client thread: submit every seed, then follow each to done."""
    try:
        client = GatewayClient(host, port, token, timeout=60.0)
        receipts = []
        for seed in seeds:
            start = time.perf_counter()
            receipt = client.submit_job(
                "netlist-ppa", {"netlist": digest}, seed=seed)
            submit_latencies.append(time.perf_counter() - start)
            receipts.append((seed, receipt))
        for seed, receipt in receipts:
            final = client.wait(receipt["job_ids"][0], timeout=120.0)
            finals.append((seed, receipt["spec_hashes"][0], final))
        client.close()
    except Exception as exc:   # noqa: BLE001 — surfaced by the caller
        errors.append(exc)


def _round(host, port, token, digest, offset=0):
    """All clients concurrently; returns (latencies, finals, wall_s)."""
    submit_latencies, finals, errors = [], [], []
    threads = []
    start = time.perf_counter()
    for c in range(CLIENTS):
        seeds = [offset + c * PER_CLIENT + i for i in range(PER_CLIENT)]
        threads.append(threading.Thread(
            target=_client_round,
            args=(host, port, token, digest, seeds,
                  submit_latencies, finals, errors)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    assert not errors, errors[:3]
    return submit_latencies, finals, wall_s


def run_gateway_load():
    root = tempfile.mkdtemp(prefix="bench-gateway-")
    store = ArtifactStore(f"{root}/store")
    registry = TenantRegistry([Tenant(
        "bench", "bench-token", rate=10_000.0, burst=10_000,
        max_in_flight=4096)])
    gateway = Gateway(store, registry,
                      rundb=RunDatabase(f"{root}/runs.sqlite"),
                      workers=WORKERS)
    host, port = gateway.start()
    try:
        seed_client = GatewayClient(host, port, "bench-token")
        digest = seed_client.publish_netlist(netlist_to_dict(c17()))
        seed_client.close()

        cold_lat, cold_finals, cold_wall = _round(
            host, port, "bench-token", digest)
        warm_lat, warm_finals, warm_wall = _round(
            host, port, "bench-token", digest)
    finally:
        gateway.shutdown()

    jobs = CLIENTS * PER_CLIENT
    assert len(cold_finals) == len(warm_finals) == jobs
    assert all(f["status"] == "succeeded" for _, _, f in cold_finals)
    assert all(f["status"] == "succeeded" for _, _, f in warm_finals)
    # Round 2 is the same work: 100% cache-served, same results.
    assert all(f["cache_hit"] for _, _, f in warm_finals)
    by_seed = {seed: f["result"] for seed, _, f in cold_finals}
    assert all(f["result"] == by_seed[seed]
               for seed, _, f in warm_finals)
    # Transport parity: every receipt hash is the locally built hash.
    for seed, spec_hash, final in cold_finals + warm_finals:
        expected = JobSpec("netlist-ppa",
                           params={"netlist": digest},
                           seed=seed).spec_hash
        assert spec_hash == expected
        assert final["spec_hash"] == expected

    all_lat = cold_lat + warm_lat
    return {
        "clients": CLIENTS,
        "jobs_per_round": jobs,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "cold_jobs_per_s": jobs / cold_wall,
        "warm_jobs_per_s": jobs / warm_wall,
        "submit_p50_s": _percentile(all_lat, 0.50),
        "submit_p99_s": _percentile(all_lat, 0.99),
        "warm_over_cold": cold_wall / warm_wall,
    }


def test_gateway_concurrent_load(benchmark):
    result = benchmark.pedantic(run_gateway_load, rounds=1,
                                iterations=1)
    print(f"\n=== gateway load ({result['clients']} clients x "
          f"{result['jobs_per_round'] // result['clients']} jobs, "
          f"{WORKERS} workers) ===")
    print(f"cold round : {result['cold_wall_s']:.2f}s "
          f"({result['cold_jobs_per_s']:.1f} jobs/s)")
    print(f"warm round : {result['warm_wall_s']:.2f}s "
          f"({result['warm_jobs_per_s']:.1f} jobs/s, 100% cache, "
          f"{result['warm_over_cold']:.1f}x)")
    print(f"submit lat : p50 {result['submit_p50_s'] * 1e3:.1f}ms, "
          f"p99 {result['submit_p99_s'] * 1e3:.1f}ms")
    assert result["cold_jobs_per_s"] >= MIN_COLD_JOBS_PER_S
    assert result["warm_jobs_per_s"] >= MIN_WARM_JOBS_PER_S
    assert result["submit_p99_s"] <= MAX_SUBMIT_P99_S
