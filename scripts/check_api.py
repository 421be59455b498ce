#!/usr/bin/env python
"""Static audit of the evaluation gateway's HTTP API surface.

The gateway's route table is data (:data:`repro.service.gateway.
ROUTES`), so its contracts are checkable without binding a socket:

* every route handler is an ``async`` module-level function whose
  signature carries an explicit ``tenant`` parameter — the
  tenant-scoping contract; a handler that ignores tenancy cannot
  even be registered without showing up here,
* every handler docstring documents its error surface: an
  ``Errors:`` section whose entries are ``NNN code`` pairs drawn
  from the gateway's status/code vocabulary,
* route patterns are well-formed: versioned under ``/v1/``, methods
  restricted to GET/POST, capture segments named, and no two routes
  claim the same (method, pattern),
* every *registered job type* is reachable through the submit
  endpoint: feeding its declared ``sample_params`` to
  :func:`~repro.service.gateway.spec_from_body` must yield a spec
  whose hash equals the directly-constructed
  :class:`~repro.service.jobs.JobSpec` — the transport-parity
  property (an HTTP submission can never hash differently from the
  same CLI submission),
* every campaign plan served by ``POST /v1/campaigns``
  (:data:`repro.service.campaigns.CAMPAIGN_PLANS`) is registered
  under a non-empty name and is callable.

Run directly (exit 1 on problems) or import :func:`audit` from a test.

Usage::

    PYTHONPATH=src python scripts/check_api.py
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path
from typing import List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: ``NNN code`` pairs a handler may document (the gateway vocabulary).
KNOWN_ERRORS = {
    (400, "bad_request"), (401, "unauthenticated"), (404, "not_found"),
    (405, "method_not_allowed"), (409, "conflict"), (413, "too_large"),
    (429, "rate_limited"), (500, "internal"), (503, "quota_exceeded"),
}

_ERROR_LINE = re.compile(r"^(\d{3})\s+([a-z_]+)\b")
_SEGMENT_OK = re.compile(r"\A(\{[a-z_]+\}|[a-z0-9_.-]+)\Z")


def _docstring_errors(doc: str) -> List[str]:
    """The ``NNN code`` pairs listed under a docstring's Errors: section."""
    lines = doc.splitlines()
    out = []
    in_section = False
    for line in lines:
        text = line.strip()
        if text.startswith("Errors:"):
            in_section = True
            continue
        if in_section:
            match = _ERROR_LINE.match(text)
            if match:
                out.append((int(match.group(1)), match.group(2)))
    return out


def audit() -> List[str]:
    """Return one problem string per API violation (empty = clean)."""
    from repro.service.campaigns import CAMPAIGN_PLANS
    from repro.service.gateway import ROUTES, spec_from_body
    from repro.service.jobs import JobSpec, registered_job_types

    problems: List[str] = []

    # -- route table shape --------------------------------------------
    seen = set()
    for route in ROUTES:
        where = f"{route.method} {route.pattern}"
        if (route.method, route.pattern) in seen:
            problems.append(f"{where}: duplicate route")
        seen.add((route.method, route.pattern))
        if route.method not in ("GET", "POST"):
            problems.append(f"{where}: method must be GET or POST")
        if not route.pattern.startswith("/v1/"):
            problems.append(f"{where}: pattern must live under /v1/")
        for segment in route.pattern.strip("/").split("/"):
            if not _SEGMENT_OK.match(segment):
                problems.append(f"{where}: malformed segment "
                                f"{segment!r}")
        if route.kind not in ("json", "sse"):
            problems.append(f"{where}: unknown kind {route.kind!r}")

        # -- handler contract -----------------------------------------
        handler = route.handler
        name = getattr(handler, "__qualname__", repr(handler))
        if not inspect.iscoroutinefunction(handler):
            problems.append(f"{where}: handler {name} is not async")
        if "." in name:
            problems.append(f"{where}: handler {name} is not a "
                            "module-level function")
        params = list(inspect.signature(handler).parameters)
        if "tenant" not in params:
            problems.append(f"{where}: handler {name} takes no "
                            "'tenant' parameter (tenant-scoping "
                            "contract)")
        doc = inspect.getdoc(handler) or ""
        if not doc.strip():
            problems.append(f"{where}: handler {name} has no docstring")
        elif "Errors:" not in doc:
            problems.append(f"{where}: handler {name} docstring has "
                            "no 'Errors:' section")
        else:
            for status, code in _docstring_errors(doc):
                if (status, code) not in KNOWN_ERRORS:
                    problems.append(
                        f"{where}: documents unknown error "
                        f"'{status} {code}'")

    # -- transport parity: every job type reachable and hash-stable ---
    for name, job_type in sorted(registered_job_types().items()):
        body = {"job_type": name,
                "params": dict(job_type.sample_params), "seed": 7}
        try:
            via_http = spec_from_body(body)
        except Exception as exc:   # noqa: BLE001 — any refusal is a bug
            problems.append(f"job type {name}: spec_from_body refused "
                            f"sample_params: {exc}")
            continue
        direct = JobSpec(name, params=dict(job_type.sample_params),
                         seed=7)
        if via_http.spec_hash != direct.spec_hash:
            problems.append(
                f"job type {name}: HTTP-built spec hashes "
                f"{via_http.spec_hash[:12]}…, direct construction "
                f"{direct.spec_hash[:12]}… — transport changes the "
                "cache address")

    # -- campaign registry --------------------------------------------
    for name, plan in sorted(CAMPAIGN_PLANS.items()):
        if not name or not isinstance(name, str):
            problems.append(f"campaign {name!r}: invalid name")
        if not callable(plan):
            problems.append(f"campaign {name}: plan not callable")

    return problems


def main() -> int:
    problems = audit()
    if problems:
        print(f"check_api: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("check_api: API surface is clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
