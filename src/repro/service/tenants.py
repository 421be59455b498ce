"""Tenant model for the evaluation gateway: identity, quotas, views.

A *tenant* is one consumer of the shared evaluation service — a
design team with its own token, its own slice of the run database,
its own artifact pins, and its own throughput budget.  Everything
here is mechanism the gateway composes per request:

* :class:`Tenant` / :class:`TenantRegistry` — token -> identity
  resolution (the gateway's only authentication step);
* :class:`TokenBucket` — classic token-bucket rate limiting backing
  the gateway's 429 responses;
* run-id namespacing (:func:`namespace_run_id` /
  :func:`split_run_id`) — tenant submissions share one physical
  run database but live under ``t/<tenant>/<submission>`` run ids;
* :class:`NamespacedRunDatabase` — a read view of a shared
  :class:`~repro.service.rundb.RunDatabase` that surfaces only one
  tenant's records, with the namespace prefix stripped so tenants
  see their own run ids, not the shared encoding;
* pin-ref namespacing (:func:`tenant_pin_ref`) — a tenant's artifact
  pins live under ``tenant:<name>:<ref>``, so one tenant's ``unpin``
  or ``gc`` can never release another tenant's GC roots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .rundb import RunDatabase, RunRecord

#: Prefix marking a gateway-namespaced run id in the shared database.
_RUN_NS = "t/"

#: Prefix marking a tenant-owned pin reference in the shared store.
_PIN_NS = "tenant:"


@dataclass(frozen=True)
class Tenant:
    """One gateway consumer and its quota envelope.

    ``rate`` is the steady-state request budget (requests/second,
    token-bucket refill) and ``burst`` the bucket capacity;
    ``max_in_flight`` bounds how many of this tenant's jobs may be
    live (pending or running) at once — the backpressure quota behind
    503 responses.
    """

    name: str
    token: str
    rate: float = 50.0
    burst: int = 100
    max_in_flight: int = 64

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or ":" in self.name:
            raise ValueError(
                f"invalid tenant name {self.name!r}: must be non-empty "
                "and contain no '/' or ':'")
        if not self.token:
            raise ValueError(f"tenant {self.name!r} has an empty token")
        if self.rate <= 0 or self.burst < 1 or self.max_in_flight < 1:
            raise ValueError(
                f"tenant {self.name!r}: rate must be > 0, burst and "
                "max_in_flight must be >= 1")


class TenantRegistry:
    """Token -> :class:`Tenant` resolution for the gateway."""

    def __init__(self, tenants: Iterable[Tenant]) -> None:
        self._by_token: Dict[str, Tenant] = {}
        self._by_name: Dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self._by_name:
                raise ValueError(f"duplicate tenant name {tenant.name!r}")
            if tenant.token in self._by_token:
                raise ValueError(
                    f"tenants {self._by_token[tenant.token].name!r} and "
                    f"{tenant.name!r} share a token")
            self._by_name[tenant.name] = tenant
            self._by_token[tenant.token] = tenant
        if not self._by_name:
            raise ValueError("registry needs at least one tenant")

    def authenticate(self, token: Optional[str]) -> Optional[Tenant]:
        """The tenant owning ``token``, or None (the 401 path)."""
        if not token:
            return None
        return self._by_token.get(token)

    def get(self, name: str) -> Optional[Tenant]:
        return self._by_name.get(name)

    def tenants(self) -> List[Tenant]:
        return list(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)


class TokenBucket:
    """Token-bucket rate limiter on :func:`time.monotonic`.

    Starts full.  ``try_acquire`` is the whole API: take one token if
    available, else report how long until one will be.  Not
    thread-safe by itself — the gateway serializes access under its
    state lock.
    """

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._last = time.monotonic()

    def _refill(self) -> None:
        now = time.monotonic()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self) -> Tuple[bool, float]:
        """(granted, retry_after_s).  ``retry_after_s`` is 0 on grant."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


# -- run-id namespacing ------------------------------------------------


def namespace_run_id(tenant: str, submission: str) -> str:
    """The shared-database run id for one tenant submission."""
    return f"{_RUN_NS}{tenant}/{submission}"


def split_run_id(run_id: str) -> Optional[Tuple[str, str]]:
    """(tenant, local run id) for a namespaced id, else None."""
    if not run_id.startswith(_RUN_NS):
        return None
    rest = run_id[len(_RUN_NS):]
    tenant, sep, local = rest.partition("/")
    if not sep or not tenant or not local:
        return None
    return tenant, local


def tenant_pin_ref(tenant: str, ref: str) -> str:
    """The shared-store pin ref for one tenant's named reference."""
    return f"{_PIN_NS}{tenant}:{ref}"


class NamespacedRunDatabase:
    """One tenant's read view of a shared run database.

    The :class:`~repro.service.rundb.RunDatabase` reads the gateway
    serves (``query``/``run_ids``), surfacing only records whose run
    id lives under this tenant's namespace — with the ``t/<tenant>/``
    prefix stripped, so clients see the submission ids they were
    given.  Strictly read-only: the gateway writes through the
    scheduler, never through this view.
    """

    def __init__(self, db: RunDatabase, tenant: str) -> None:
        self._db = db
        self.tenant = tenant

    def _localize(self, rec: RunRecord) -> Optional[RunRecord]:
        split = split_run_id(rec.run_id)
        if split is None or split[0] != self.tenant:
            return None
        data = rec.as_dict()
        data["run_id"] = split[1]
        return RunRecord.from_dict(data)

    def query(self, run_id: Optional[str] = None,
              job_type: Optional[str] = None,
              status: Optional[str] = None,
              cache_hit: Optional[bool] = None,
              since: Optional[float] = None,
              spec_hash: Optional[str] = None) -> List[RunRecord]:
        shared_run = (namespace_run_id(self.tenant, run_id)
                      if run_id is not None else None)
        out = []
        for rec in self._db.query(run_id=shared_run, job_type=job_type,
                                  status=status, cache_hit=cache_hit,
                                  since=since, spec_hash=spec_hash):
            local = self._localize(rec)
            if local is not None:
                out.append(local)
        return out

    def run_ids(self) -> List[str]:
        out = []
        for run_id in self._db.run_ids():
            split = split_run_id(run_id)
            if split is not None and split[0] == self.tenant:
                out.append(split[1])
        return out
