"""Integration tests for the multi-tenant HTTP evaluation gateway.

Every test binds a real gateway on an ephemeral port and talks to it
through :class:`~repro.service.client.GatewayClient` — the same
transport a remote design team would use.  Covered contracts:

* tenant isolation: artifacts, jobs, and run-database slices of one
  tenant are invisible (404, not 403 — no existence oracle) to
  another;
* quotas: token-bucket rate limiting (429 + Retry-After, recovering
  after the bucket refills) and live-job quotas (503, releasing as
  jobs finish);
* SSE: cancelling a job mid-stream delivers its terminal event and
  closes the stream cleanly;
* drain: shutting the server down — in process, or ``serve`` on
  SIGTERM — cancels live jobs and leaves no orphan worker processes
  (reusing the scheduler suite's kill-injection jobs), and a worker
  forked mid-service holds no client connection open;
* transport parity: a campaign computed through the in-process
  campaign API is a 100% cache hit when resubmitted over HTTP, and
  default campaigns plan identically from the CLI, the library and
  HTTP;
* input hygiene: traversal-shaped digests, malformed campaign fields
  and a job type that would run a tenant-chosen command are 400s, never
  paths or tracebacks.
"""

import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.netlist import c17, netlist_to_dict, ripple_carry_adder
from repro.service.campaigns import (
    composition_matrix_campaign,
    locking_sweep_campaign,
    security_closure_campaign,
)
from repro.service.client import GatewayClient, GatewayClientError
from repro.service.gateway import Gateway, GatewayError, spec_from_body
from repro.service.jobs import JobSpec
from repro.service.rundb import RunDatabase
from repro.service.scheduler import Scheduler
from repro.service.store import ArtifactStore
from repro.service.tenants import Tenant, TenantRegistry

from test_service_scheduler import (  # noqa: F401  registers t-* jobs
    _kill_when_pid_appears,
)
from test_service_store import MALFORMED_CYCLE, MALFORMED_UNDRIVEN

TERMINAL = ("succeeded", "failed", "timeout", "cancelled", "skipped")


def _gateway(tmp_path, tenants=None, workers=2):
    store = ArtifactStore(tmp_path / "store")
    rundb = RunDatabase(tmp_path / "runs.sqlite")
    registry = TenantRegistry(tenants or [
        Tenant("alice", "tok-a"), Tenant("bob", "tok-b")])
    gw = Gateway(store, registry, rundb=rundb, workers=workers)
    gw.start()
    return gw


class TestTenantIsolation:
    def test_cross_tenant_artifact_job_and_runs_invisible(self, tmp_path):
        gw = _gateway(tmp_path)
        try:
            alice = GatewayClient(gw.host, gw.port, "tok-a")
            bob = GatewayClient(gw.host, gw.port, "tok-b")
            digest = alice.publish_netlist(netlist_to_dict(c17()))
            receipt = alice.submit_job("netlist-ppa",
                                       {"netlist": digest})
            job_id = receipt["job_ids"][0]
            alice.wait(job_id, timeout=60)

            # Bob's view: the artifact, the job, and the cancel
            # endpoint all 404 — indistinguishable from absent.
            for attempt in (lambda: bob.artifact(digest),
                            lambda: bob.job(job_id),
                            lambda: bob.cancel(job_id)):
                with pytest.raises(GatewayClientError) as err:
                    attempt()
                assert err.value.status == 404
                assert err.value.code == "not_found"
            # Bob cannot run jobs against Alice's input either.
            with pytest.raises(GatewayClientError) as err:
                bob.submit_job("netlist-ppa", {"netlist": digest})
            assert err.value.status == 404

            # Run-database slices are disjoint.
            assert alice.runs()["runs"] != []
            assert bob.runs()["runs"] == []
            assert bob.jobs() == []
            assert alice.jobs() != []
        finally:
            gw.shutdown()

    def test_missing_and_unknown_tokens_are_401(self, tmp_path):
        gw = _gateway(tmp_path)
        try:
            anon = GatewayClient(gw.host, gw.port, "")
            stranger = GatewayClient(gw.host, gw.port, "nope")
            for client in (anon, stranger):
                with pytest.raises(GatewayClientError) as err:
                    client.status()
                assert err.value.status == 401
                assert err.value.code == "unauthenticated"
        finally:
            gw.shutdown()

    def test_tenant_pins_are_namespaced(self, tmp_path):
        gw = _gateway(tmp_path)
        try:
            alice = GatewayClient(gw.host, gw.port, "tok-a")
            digest = alice.publish_netlist(netlist_to_dict(c17()))
            alice.pin(digest, ref="keep")
            refs = gw.store.pins(digest)
            assert "tenant:alice:keep" in refs
            assert "tenant:alice:published" in refs
            # Unpin through the API releases only the tenant's ref.
            assert alice.unpin(digest, ref="keep")["unpinned"]
            assert "tenant:alice:keep" not in gw.store.pins(digest)
        finally:
            gw.shutdown()


class TestQuotas:
    def test_rate_limit_429_then_recovery(self, tmp_path):
        gw = _gateway(tmp_path, tenants=[
            Tenant("alice", "tok-a", rate=20.0, burst=2)])
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            client.status()
            client.status()
            with pytest.raises(GatewayClientError) as err:
                client.status()
            assert err.value.status == 429
            assert err.value.code == "rate_limited"
            assert err.value.retry_after is not None
            assert err.value.retry_after >= 1.0   # integral header
            # The bucket refills at 20/s: after a short wait the
            # tenant is served again — throttled, not locked out.
            time.sleep(0.2)
            assert client.status()["tenant"] == "alice"
        finally:
            gw.shutdown()

    def test_in_flight_quota_503_and_release(self, tmp_path):
        gw = _gateway(tmp_path, tenants=[
            Tenant("alice", "tok-a", max_in_flight=1)], workers=1)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            digest = client.publish_netlist(netlist_to_dict(c17()))
            pidfile = tmp_path / "w.pid"
            receipt = client.submit_job(
                "t-pid-sleep", {"pidfile": str(pidfile)}, retries=0,
                cacheable=False)
            job_id = receipt["job_ids"][0]
            with pytest.raises(GatewayClientError) as err:
                client.submit_job("netlist-ppa", {"netlist": digest})
            assert err.value.status == 503
            assert err.value.code == "quota_exceeded"
            # Finishing (here: cancelling) the live job releases the
            # quota slot.
            client.cancel(job_id)
            final = client.wait(job_id, timeout=30)
            assert final["status"] in ("cancelled", "failed")
            receipt2 = client.submit_job("netlist-ppa",
                                         {"netlist": digest})
            assert client.wait(receipt2["job_ids"][0],
                               timeout=60)["status"] == "succeeded"
        finally:
            gw.shutdown()


class TestEventStreams:
    def test_cancel_during_stream_closes_sse_cleanly(self, tmp_path):
        gw = _gateway(tmp_path, workers=1)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            pidfile = tmp_path / "w.pid"
            receipt = client.submit_job(
                "t-pid-sleep", {"pidfile": str(pidfile)}, retries=0,
                cacheable=False)
            job_id = receipt["job_ids"][0]
            events, done = [], threading.Event()

            def follow():
                streamer = GatewayClient(gw.host, gw.port, "tok-a")
                for event in streamer.events(job_id):
                    events.append(event)
                done.set()

            thread = threading.Thread(target=follow)
            thread.start()
            # Wait until the job is actually on a worker, then cancel.
            deadline = time.time() + 15.0
            while time.time() < deadline and not pidfile.exists():
                time.sleep(0.01)
            client.cancel(job_id)
            assert done.wait(timeout=15.0), events
            thread.join(timeout=5.0)
            assert events, "stream delivered nothing"
            assert events[-1]["status"] in ("cancelled", "failed")
            assert events[-1]["job_id"] == job_id
            # The stream ended *because* of the terminal event — the
            # connection is closed, not hung.
            assert not thread.is_alive()
        finally:
            gw.shutdown()

    def test_stream_of_finished_job_replays_terminal_event(self, tmp_path):
        gw = _gateway(tmp_path)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            digest = client.publish_netlist(netlist_to_dict(c17()))
            receipt = client.submit_job("netlist-ppa",
                                        {"netlist": digest})
            job_id = receipt["job_ids"][0]
            client.wait(job_id, timeout=60)
            # A late subscriber still gets a snapshot + terminal end.
            events = list(client.events(job_id))
            assert events
            assert events[-1]["status"] == "succeeded"
        finally:
            gw.shutdown()


class TestDrain:
    def test_shutdown_leaves_no_orphan_workers(self, tmp_path):
        gw = _gateway(tmp_path, workers=2)
        client = GatewayClient(gw.host, gw.port, "tok-a")
        pidfile = tmp_path / "w.pid"
        receipt = client.submit_job(
            "t-pid-sleep", {"pidfile": str(pidfile)}, retries=0,
            cacheable=False)
        worker_pids = [w.process.pid
                       for w in gw.scheduler._pool.workers()]
        assert worker_pids
        # Wait for the job to be running on a worker, then pull the
        # plug with it still live.
        deadline = time.time() + 15.0
        while time.time() < deadline and not pidfile.exists():
            time.sleep(0.01)
        assert pidfile.exists()
        gw.shutdown()
        # Every worker process is gone — drain, not abandonment.
        for pid in worker_pids:
            deadline = time.time() + 10.0
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {pid} survived shutdown")
        # The gateway's own view records the withdrawal.
        view = gw._jobs[receipt["job_ids"][0]]
        assert view.event.status in ("cancelled", "failed")

    def test_sigkilled_worker_is_replaced_and_job_retries(self, tmp_path):
        # PR 7's kill-injection, over HTTP: a worker dying mid-job
        # must not take the gateway down; the pool respawns and the
        # retried attempt succeeds.
        gw = _gateway(tmp_path, workers=1)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            pidfile = tmp_path / "w.pid"
            receipt = client.submit_job(
                "t-pid-sleep", {"pidfile": str(pidfile)},
                retries=1, retry_backoff=0.01, cacheable=False)
            killer = _kill_when_pid_appears(pidfile, signal.SIGKILL)
            final = client.wait(receipt["job_ids"][0], timeout=60)
            killer.join()
            assert final["status"] == "succeeded"
            assert final["attempts"] == 2
            assert final["result"] == {"survived": True}
            assert gw.scheduler._pool.respawns >= 1
        finally:
            gw.shutdown()

    def test_respawned_worker_holds_no_client_connection(self, tmp_path):
        # A worker forked while a connection is open must not keep its
        # socket alive: when the server closes the connection, the
        # client sees EOF at once, not silence until its own timeout.
        gw = _gateway(tmp_path, workers=1)
        conn = http.client.HTTPConnection(gw.host, gw.port, timeout=10)
        try:
            headers = {"X-Repro-Token": "tok-a"}
            conn.request("GET", "/v1/status", headers=headers)
            assert conn.getresponse().read()
            # Cancelling a running job kills its worker; the
            # replacement is forked with the connection still open.
            client = GatewayClient(gw.host, gw.port, "tok-a")
            pidfile = tmp_path / "w.pid"
            receipt = client.submit_job(
                "t-pid-sleep", {"pidfile": str(pidfile)}, retries=0,
                cacheable=False)
            deadline = time.time() + 15.0
            while time.time() < deadline and not pidfile.exists():
                time.sleep(0.01)
            assert pidfile.exists()
            client.cancel(receipt["job_ids"][0])
            assert gw.scheduler._pool.respawns == 1
            conn.request("GET", "/v1/status",
                         headers={**headers, "Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            assert conn.sock.recv(1) == b""     # EOF, not a timeout
        finally:
            conn.close()
            gw.shutdown()

    def test_sigterm_drains_serve_and_exits_zero(self, tmp_path):
        # A service manager stops ``serve`` with SIGTERM: the server
        # must drain like on Ctrl-C — exit 0, no pool worker left.
        # Output goes to a file: orphaned workers would hold a pipe
        # open and hang the read.
        if not os.path.isdir("/proc"):
            pytest.skip("needs /proc to find the server's children")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log = tmp_path / "serve.log"
        with open(log, "w") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve",
                 "--port", "0", "--workers", "2",
                 "--tenant", "alice=tok-a",
                 "--store", str(tmp_path / "store")],
                stdout=out, stderr=subprocess.STDOUT, env=env)
        workers = []
        try:
            deadline = time.time() + 60.0
            while len(workers) < 2:
                assert proc.poll() is None and time.time() < deadline, \
                    log.read_text()
                if "gateway listening" in log.read_text():
                    workers = _children(proc.pid)
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0, log.read_text()
            assert "gateway stopped" in log.read_text()
            deadline = time.time() + 10.0
            while any(_alive(pid) for pid in workers) \
                    and time.time() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            for pid in [proc.pid] + workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()


def _proc_stat(pid):
    """(parent pid, state) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[1]), fields[0]


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and (_proc_stat(entry) or (0,))[0] == pid]


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[1] not in ("Z", "X")


class TestTransportParity:
    def test_campaign_resubmitted_over_http_is_all_cache_hits(
            self, tmp_path):
        # Compute the sweep through the in-process campaign API
        # (the CLI path), then submit the same campaign over HTTP
        # against the same store: every job must be a cache hit with
        # an identical spec hash — transport never changes the
        # addressed computation.
        store = ArtifactStore(tmp_path / "store")
        locking_sweep_campaign(c17(), [0, 2], seed=0,
                               max_iterations=50, store=store)
        gw = Gateway(store, TenantRegistry([Tenant("alice", "tok-a")]),
                     rundb=RunDatabase(tmp_path / "runs.sqlite"),
                     workers=1)
        gw.start()
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            receipt = client.submit_campaign(
                "sweep", bench="c17", widths=[0, 2],
                max_iterations=50, seed=0)
            finals = client.wait_all(receipt["job_ids"], timeout=120)
            assert all(f["status"] == "succeeded" for f in finals)
            assert all(f["cache_hit"] for f in finals)
            # Receipt hashes equal locally constructed spec hashes.
            input_hash = store.put_netlist(c17())
            expected = [JobSpec(
                "locking-point",
                params={"netlist": input_hash, "key_bits": bits,
                        "max_iterations": 50},
                seed=0, retries=1).spec_hash for bits in (0, 2)]
            assert receipt["spec_hashes"] == expected
        finally:
            gw.shutdown()

    def test_default_campaigns_plan_identically_everywhere(
            self, tmp_path, monkeypatch):
        # Every default field of sweep, closure and compose is the same
        # from the CLI, the library clients and POST /v1/campaigns, so
        # a default campaign is one set of spec hashes — one set of
        # cache entries — whatever the transport.  In-process runs are
        # stopped after planning; the gateway's jobs are cancelled by
        # its shutdown.
        class Planned(Exception):
            pass

        planned = []

        def record_plan(scheduler):
            planned.append([job.spec.spec_hash
                            for job in scheduler.jobs.values()])
            raise Planned

        monkeypatch.setattr(Scheduler, "run", record_plan)
        from repro.service.cli import main

        store = ArtifactStore(tmp_path / "store")
        library = {
            "sweep": lambda: locking_sweep_campaign(
                c17(), [0, 2, 4], store=store),
            "closure": lambda: security_closure_campaign(
                [c17(), ripple_carry_adder(8)], store=store),
            "compose": lambda: composition_matrix_campaign(store=store),
        }
        gw = Gateway(store, TenantRegistry([Tenant("alice", "tok-a")]),
                     workers=1)
        gw.start()
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            for name, run_library in library.items():
                over_http = client.submit_campaign(name)["spec_hashes"]
                with pytest.raises(Planned):
                    main([name, "--store", str(store.root)])
                with pytest.raises(Planned):
                    run_library()
                assert planned == [over_http, over_http], name
                planned.clear()
        finally:
            gw.shutdown()

    def test_job_resubmission_across_transports_caches(self, tmp_path):
        gw = _gateway(tmp_path, workers=1)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            digest = client.publish_netlist(netlist_to_dict(c17()))
            first = client.submit_job("netlist-ppa",
                                      {"netlist": digest}, seed=9)
            f1 = client.wait(first["job_ids"][0], timeout=60)
            assert f1["status"] == "succeeded"
            assert not f1["cache_hit"]
            second = client.submit_job("netlist-ppa",
                                       {"netlist": digest}, seed=9)
            f2 = client.wait(second["job_ids"][0], timeout=60)
            assert f2["cache_hit"]
            assert f2["result"] == f1["result"]
            assert f1["spec_hash"] == f2["spec_hash"] == JobSpec(
                "netlist-ppa", params={"netlist": digest},
                seed=9).spec_hash
        finally:
            gw.shutdown()


class TestInputHygiene:
    @pytest.mark.parametrize("bad", [
        "..%2F..%2Fetc%2Fpasswd", "..", "ab", "AB" * 32,
        ("ab" * 32)[:-1] + "g"])
    def test_traversal_shaped_digests_are_400(self, tmp_path, bad):
        import http.client
        import json as _json

        gw = _gateway(tmp_path)
        try:
            conn = http.client.HTTPConnection(gw.host, gw.port,
                                              timeout=10)
            conn.request("GET", f"/v1/artifacts/{bad}",
                         headers={"X-Repro-Token": "tok-a"})
            response = conn.getresponse()
            payload = _json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
            conn.close()
        finally:
            gw.shutdown()

    def test_unknown_route_404_and_wrong_method_405(self, tmp_path):
        import http.client

        gw = _gateway(tmp_path)
        try:
            conn = http.client.HTTPConnection(gw.host, gw.port,
                                              timeout=10)
            conn.request("GET", "/v1/nope",
                         headers={"X-Repro-Token": "tok-a"})
            response = conn.getresponse()
            assert response.status == 404
            response.read()
            conn.request("POST", "/v1/runs",
                         headers={"X-Repro-Token": "tok-a"})
            response = conn.getresponse()
            assert response.status == 405
            response.read()
            conn.close()
        finally:
            gw.shutdown()

    @pytest.mark.parametrize("body", [
        {"campaign": "sweep", "widths": ["x"]},
        {"campaign": "sweep", "seed": "abc"},
        {"campaign": "sweep", "max_iterations": "lots"},
        {"campaign": "sweep", "timeout": "soon"},
        {"campaign": "closure", "thresholds": "x"},
        {"campaign": "closure", "num_layers": "two"},
        {"campaign": "compose", "engine": [1, 2]},
    ])
    def test_malformed_campaign_fields_are_400(self, tmp_path, body):
        import http.client
        import json as _json

        gw = _gateway(tmp_path, workers=1)
        try:
            conn = http.client.HTTPConnection(gw.host, gw.port,
                                              timeout=10)
            headers = {"X-Repro-Token": "tok-a",
                       "Content-Type": "application/json"}
            conn.request("POST", "/v1/campaigns",
                         body=_json.dumps(body), headers=headers)
            response = conn.getresponse()
            payload = _json.loads(response.read())
            assert response.status == 400, payload
            assert payload["error"]["code"] == "bad_request"
            assert "Traceback" not in payload["error"]["message"]
            # A client error keeps the connection open.
            conn.request("GET", "/v1/status", headers=headers)
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            gw.shutdown()

    @pytest.mark.parametrize("body", [MALFORMED_UNDRIVEN, MALFORMED_CYCLE],
                             ids=["undriven-fanin", "cycle"])
    def test_malformed_netlist_is_400_and_not_stored(self, tmp_path, body):
        gw = _gateway(tmp_path, workers=1)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            client.publish_netlist(netlist_to_dict(c17()))
            digests = set(gw.store.digests())
            pinned = gw.store.pinned_digests()
            with pytest.raises(GatewayClientError) as err:
                client.publish_netlist(body)
            assert err.value.status == 400
            assert err.value.code == "bad_request"
            assert set(gw.store.digests()) == digests
            assert gw.store.pinned_digests() == pinned
        finally:
            gw.shutdown()

    def test_pytest_runner_job_type_is_400(self):
        # A job that runs pytest with tenant-chosen target, flags, cwd
        # and PYTHONPATH lets any tenant import arbitrary modules
        # (-p) or delete a directory (--basetemp) on a pool worker.
        with pytest.raises(GatewayError) as err:
            spec_from_body({"job_type": "pytest-bench", "params": {
                "target": "tests", "flags": ["--basetemp=store"],
                "cwd": ".", "pythonpath": "."}})
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_unknown_job_type_and_campaign_are_400(self, tmp_path):
        gw = _gateway(tmp_path)
        try:
            client = GatewayClient(gw.host, gw.port, "tok-a")
            with pytest.raises(GatewayClientError) as err:
                client.submit_job("no-such-type", {})
            assert err.value.status == 400
            with pytest.raises(GatewayClientError) as err:
                client.submit_campaign("no-such-campaign")
            assert err.value.status == 400
        finally:
            gw.shutdown()
