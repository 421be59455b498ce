"""Golden job results: every registered job type's sample params give
the result committed in ``job_goldens.json``, over every transport.

A job result is a pure function of ``(params, seed)`` at a registered
version, and the artifact store serves it by spec hash.  So a change
that moves a result must move the job's ``version`` too.  Each golden
is keyed by ``<job type>@v<version>`` and holds the spec hash and the
SHA-256 of the result's canonical JSON.  A moved result under an
unmoved version fails here with the job's name.

The samples run three ways: inline (:func:`run_job`), on a one-worker
pool (``Scheduler(workers=1)``), and through a gateway on an ephemeral
port (the netlist published with ``POST /v1/netlists``, each spec
submitted with ``POST /v1/jobs``, the result read from the job view).
Every leg must give the inline leg's spec hash and result digest, and
the golden.

The sample params name netlists by a placeholder digest; they run on a
stored ``ripple_carry_adder(4)`` instead, and a variant's flipped net
``g0`` becomes ``fa0_axb``.  Before hashing, wall times and
``attack_seconds`` are dropped and floats are rounded to
:data:`SIGNIFICANT` digits, so neither the clock nor the last bits of
a numpy reduction move a digest.

Regenerate (with a version bump, recorded in CHANGES.md)::

    PYTHONPATH=src python tests/test_job_goldens.py > tests/job_goldens.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.netlist import netlist_to_dict, ripple_carry_adder
from repro.service import (ArtifactStore, JobContext, JobSpec, Scheduler,
                           Tenant, TenantRegistry, registered_job_types,
                           run_job)
from repro.service.client import GatewayClient
from repro.service.gateway import Gateway

GOLDENS = Path(__file__).with_name("job_goldens.json")
PLACEHOLDER = "0" * 64
SEED = 7
#: Significant digits a float keeps before hashing.
SIGNIFICANT = 10
#: Result keys that measure time, not the computation.
TIMING_KEYS = frozenset({"attack_seconds", "wall_ms", "total_wall_ms"})


def stock_job_types():
    """The job types the package registers (tests register their
    own), by name."""
    return {name: job_type
            for name, job_type in sorted(registered_job_types().items())
            if job_type.fn.__module__.startswith("repro.")}


def sample_params(params, netlist_digest):
    """The sample params with every placeholder digest replaced by the
    stored netlist's and the variant net ``g0`` by ``fa0_axb``."""
    if params == PLACEHOLDER:
        return netlist_digest
    if params == "g0":
        return "fa0_axb"
    if isinstance(params, dict):
        return {k: sample_params(v, netlist_digest)
                for k, v in params.items()}
    if isinstance(params, list):
        return [sample_params(v, netlist_digest) for v in params]
    return params


def normalized(value):
    """The result without timings, floats at :data:`SIGNIFICANT`
    digits."""
    if isinstance(value, dict):
        return {k: normalized(v) for k, v in value.items()
                if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [normalized(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.{SIGNIFICANT}g}")
    return value


def digest(value) -> str:
    text = json.dumps(normalized(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_sample(name, job_type, store):
    netlist_digest = store.put_netlist(ripple_carry_adder(4))
    spec = JobSpec(name, seed=SEED, params=sample_params(
        dict(job_type.sample_params), netlist_digest))
    result = run_job(spec, JobContext(seed=SEED, store=store))
    return {"spec_hash": spec.spec_hash, "result": digest(result)}


def key(name, job_type) -> str:
    return f"{name}@v{job_type.version}"


def compute_goldens(store_dir):
    store = ArtifactStore(Path(store_dir) / "store")
    return {key(name, job_type): run_sample(name, job_type, store)
            for name, job_type in stock_job_types().items()}


JOB_TYPES = stock_job_types()


def test_every_job_type_has_a_golden():
    goldens = json.loads(GOLDENS.read_text())
    assert sorted(goldens) == sorted(key(n, t) for n, t in
                                     JOB_TYPES.items())


@pytest.mark.parametrize("name", sorted(JOB_TYPES))
def test_sample_result_matches_golden(name, tmp_path):
    job_type = JOB_TYPES[name]
    golden = json.loads(GOLDENS.read_text()).get(key(name, job_type))
    assert golden is not None, (
        f"no golden for {key(name, job_type)}: a version bump needs a "
        f"new golden")
    store = ArtifactStore(tmp_path / "store")
    assert run_sample(name, job_type, store) == golden, (
        f"{name}: the result moved at version {job_type.version}")


@pytest.fixture(scope="module")
def inline_results(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("inline") / "store")
    return {name: run_sample(name, job_type, store)
            for name, job_type in JOB_TYPES.items()}


@pytest.fixture(scope="module")
def pool_results(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("pool") / "store")
    netlist_digest = store.put_netlist(ripple_carry_adder(4))
    scheduler = Scheduler(workers=1, store=store)
    job_ids = {name: scheduler.submit(JobSpec(
        name, seed=SEED, params=sample_params(
            dict(job_type.sample_params), netlist_digest)))
        for name, job_type in JOB_TYPES.items()}
    jobs = scheduler.run()
    out = {}
    for name, job_id in job_ids.items():
        job = jobs[job_id]
        assert job.status == "succeeded", (name, job.error)
        out[name] = {"spec_hash": job.spec.spec_hash,
                     "result": digest(job.result)}
    return out


@pytest.fixture(scope="module")
def gateway_results(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("gateway") / "store")
    gateway = Gateway(store, TenantRegistry([Tenant("golden", "tok")]),
                      workers=1)
    gateway.start()
    try:
        client = GatewayClient(gateway.host, gateway.port, "tok")
        netlist_digest = client.publish_netlist(
            netlist_to_dict(ripple_carry_adder(4)))
        out = {}
        for name, job_type in JOB_TYPES.items():
            receipt = client.submit_job(name, sample_params(
                dict(job_type.sample_params), netlist_digest), seed=SEED)
            final = client.wait(receipt["job_ids"][0], timeout=120)
            assert final["status"] == "succeeded", (name, final["error"])
            out[name] = {"spec_hash": receipt["spec_hashes"][0],
                         "result": digest(final["result"])}
        client.close()
        return out
    finally:
        gateway.shutdown()


@pytest.mark.parametrize("leg", ["pool", "gateway"])
@pytest.mark.parametrize("name", sorted(JOB_TYPES))
def test_transport_matches_inline_and_golden(name, leg, inline_results,
                                             request):
    golden = json.loads(GOLDENS.read_text()).get(key(name, JOB_TYPES[name]))
    results = request.getfixturevalue(f"{leg}_results")
    assert results[name] == inline_results[name] == golden, (
        f"{name}: the {leg} result differs from the inline one")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(compute_goldens(scratch), sys.stdout, indent=1,
                  sort_keys=True)
        print()
