"""CI gate: the service job-registry static audit, run as a tier-1 test.

Mirrors ``tests/test_check_passes.py`` — the audit is importable for
in-process checks and runnable as a script with exit-code semantics.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import test_service_scheduler  # noqa: F401  registers the t-* job types

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_jobs():
    spec = importlib.util.spec_from_file_location(
        "check_jobs", REPO_ROOT / "scripts" / "check_jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestJobRegistryAudit:
    def test_registry_is_clean(self):
        # Includes the fault-injection job types the scheduler tests
        # register: even process-hostile test jobs must ship auditable
        # specs.
        assert load_check_jobs().audit() == []

    def test_audit_catches_unpicklable_and_undocumented(self):
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()

        def lambda_like(params, ctx):
            return None

        lambda_like.__qualname__ = "make.<locals>.lambda_like"
        jobs_mod._JOB_TYPES["t-bad-audit"] = JobType(
            "t-bad-audit", lambda_like, {})
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-bad-audit"]
        assert "t-bad-audit" in problems
        assert "docstring" in problems
        assert "no sample_params" in problems
        assert check_jobs.audit() == []   # cleanup verified

    def test_audit_catches_non_json_sample_params(self):
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()

        def documented(params, ctx):
            """Documented but with an unserialisable sample."""
            return None

        jobs_mod._JOB_TYPES["t-bad-params"] = JobType(
            "t-bad-params", documented, {"fn": object()})
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-bad-params"]
        assert "t-bad-params" in problems
        assert "JSON" in problems

    def test_audit_catches_unportable_sample_result(self):
        # A result that cannot pickle or JSON-serialise would smuggle
        # a process-local handle out of a warm worker.
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()

        def documented(params, ctx):
            """Documented, but declares a handle-bearing result."""
            return None

        jobs_mod._JOB_TYPES["t-bad-result"] = JobType(
            "t-bad-result", documented, {"n": 1},
            sample_result={"engine": object()})
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-bad-result"]
        assert "t-bad-result" in problems
        assert "sample_result is not JSON-able" in problems
        assert check_jobs.audit() == []

    def test_audit_catches_missing_sample_result(self):
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()

        def documented(params, ctx):
            """Documented, but declares no result shape."""
            return None

        jobs_mod._JOB_TYPES["t-no-result"] = JobType(
            "t-no-result", documented, {"n": 1})
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-no-result"]
        assert "t-no-result: no sample_result declared" in problems

    def test_audit_catches_closure_capture(self):
        # A warm worker runs many jobs; captured mutable state would
        # make results depend on execution history.
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()
        state = {"calls": 0}

        def capturing(params, ctx):
            """Documented, but drags closure state into the worker."""
            state["calls"] += 1
            return {"calls": state["calls"]}

        jobs_mod._JOB_TYPES["t-closure"] = JobType(
            "t-closure", capturing, {"n": 1},
            sample_result={"calls": 1})
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-closure"]
        assert "t-closure" in problems
        assert "captures closure state" in problems

    def test_script_exits_zero_on_clean_registry(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" /
                                 "check_jobs.py")],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "picklable and hash-stable" in proc.stdout


class TestJobResultVersion:
    """``register_job_type(version=...)`` folds into ``spec_hash``."""

    @staticmethod
    def unversioned_hash(job_type, params, seed):
        from repro.netlist import stable_hash

        return stable_hash({"job_type": job_type, "params": params,
                            "seed": seed})

    def test_composition_stack_hash_is_versioned(self):
        from repro.service import JobSpec, registered_job_types

        assert registered_job_types()["composition-stack"].version == 3
        params = {"design": "masked-and", "stack": ["parity"],
                  "engine": {"n_traces": 2000}}
        spec = JobSpec("composition-stack", params=params, seed=1)
        assert spec.spec_hash != self.unversioned_hash(
            "composition-stack", params, 1)

    def test_unversioned_job_types_keep_their_hash(self):
        from repro.service import JobSpec, registered_job_types

        assert registered_job_types()["netlist-ppa"].version == 0
        params = {"netlist": "ab" * 32}
        assert JobSpec("netlist-ppa", params=params, seed=3).spec_hash \
            == self.unversioned_hash("netlist-ppa", params, 3)

    @pytest.mark.parametrize("version", [-1, "1", 1.0, True])
    def test_audit_rejects_invalid_version(self, version):
        from repro.service import jobs as jobs_mod
        from repro.service.jobs import JobType

        check_jobs = load_check_jobs()

        def documented(params, ctx):
            """Documented, with a malformed result version."""
            return None

        jobs_mod._JOB_TYPES["t-bad-version"] = JobType(
            "t-bad-version", documented, {"n": 1},
            sample_result={"n": 1}, version=version)
        try:
            problems = "\n".join(check_jobs.audit())
        finally:
            del jobs_mod._JOB_TYPES["t-bad-version"]
        assert f"t-bad-version: version {version!r} is not an int >= 0" \
            in problems

    def test_audit_catches_version_the_hash_ignores(self, monkeypatch):
        from repro.service import JobSpec

        check_jobs = load_check_jobs()
        monkeypatch.setattr(JobSpec, "spec_hash", property(
            lambda spec: self.unversioned_hash(
                spec.job_type, spec.params_dict, spec.seed)))
        problems = check_jobs.audit()
        assert problems == [
            f"{name}: version {version} does not change the spec hash"
            for name, version in (("closure", 2),
                                  ("composition-stack", 3),
                                  ("locking-point", 1),
                                  ("pass-pipeline", 7),
                                  ("route", 2))]

    def test_composition_sample_result_has_a_real_rows_shape(self):
        from repro.service import (
            JobContext,
            JobSpec,
            registered_job_types,
            run_job,
        )

        def shape(value):
            if isinstance(value, dict):
                return {k: shape(v) for k, v in value.items()}
            if isinstance(value, list):
                return [shape(v) for v in value[:1]]
            return type(value).__name__

        job_type = registered_job_types()["composition-stack"]
        row = run_job(JobSpec("composition-stack",
                              params=job_type.sample_params, seed=1),
                      JobContext(seed=1))
        assert shape(job_type.sample_result) == shape(row)
