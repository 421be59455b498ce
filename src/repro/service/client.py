"""Blocking HTTP client for the evaluation gateway.

:class:`GatewayClient` wraps the gateway's JSON API in plain method
calls over a persistent ``http.client`` connection — stdlib only,
thread-per-client (the load benchmark runs many of these
concurrently).  Error responses surface as
:class:`GatewayClientError` carrying the HTTP status and the server's
machine-readable error code, so callers can branch on ``429`` /
``rate_limited`` without parsing messages.

The SSE side (:meth:`GatewayClient.events`) opens its own dedicated
connection per stream — event streams are long-lived and would
otherwise wedge the request connection.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Dict, Iterator, List, Optional, Sequence

#: Job statuses after which a job's event stream ends.
_TERMINAL = ("succeeded", "failed", "timeout", "cancelled", "skipped")


class GatewayClientError(Exception):
    """An error response from the gateway (or a transport failure)."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after


class GatewayClient:
    """One tenant's blocking handle on a running gateway."""

    def __init__(self, host: str, port: int, token: str,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 query: Optional[Dict[str, str]] = None
                 ) -> Dict[str, object]:
        if query:
            path = path + "?" + urllib.parse.urlencode(
                {k: v for k, v in query.items() if v is not None})
        payload = None if body is None else json.dumps(body).encode()
        headers = {"X-Repro-Token": self.token}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError,
                    OSError):
                # A keep-alive connection the server closed between
                # requests: reconnect once, then give up honestly.
                self.close()
                if attempt:
                    raise
        try:
            data = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            data = {}
        if response.status >= 400:
            error = data.get("error", {}) if isinstance(data, dict) \
                else {}
            retry_after = response.getheader("Retry-After")
            raise GatewayClientError(
                response.status,
                str(error.get("code", "error")),
                str(error.get("message", raw[:200])),
                retry_after=(float(retry_after)
                             if retry_after else None))
        return data

    # -- API surface ---------------------------------------------------

    def submit_job(self, job_type: str,
                   params: Optional[Dict[str, object]] = None,
                   **fields) -> Dict[str, object]:
        """``POST /v1/jobs``; returns the submission receipt."""
        body: Dict[str, object] = {"job_type": job_type,
                                   "params": params or {}}
        body.update(fields)
        return self._request("POST", "/v1/jobs", body=body)

    def submit_campaign(self, campaign: str,
                        **fields) -> Dict[str, object]:
        """``POST /v1/campaigns``; returns the submission receipt."""
        body: Dict[str, object] = {"campaign": campaign}
        body.update(fields)
        return self._request("POST", "/v1/campaigns", body=body)

    def job(self, job_id: str) -> Dict[str, object]:
        """``GET /v1/jobs/<id>``: current state (+result if done)."""
        return self._request(
            "GET", f"/v1/jobs/{urllib.parse.quote(job_id)}")

    def jobs(self) -> List[Dict[str, object]]:
        """``GET /v1/jobs``: this tenant's latest 200 jobs, newest
        first."""
        data = self._request("GET", "/v1/jobs", query={"limit": "200"})
        return list(data.get("jobs", []))

    def cancel(self, job_id: str) -> Dict[str, object]:
        """``POST /v1/jobs/<id>/cancel``."""
        return self._request(
            "POST", f"/v1/jobs/{urllib.parse.quote(job_id)}/cancel")

    def runs(self) -> Dict[str, object]:
        """``GET /v1/runs``: the tenant's run-database slice."""
        return self._request("GET", "/v1/runs")

    def status(self) -> Dict[str, object]:
        """``GET /v1/status``: quota usage and server footprint."""
        return self._request("GET", "/v1/status")

    def publish_netlist(self, netlist_dict: Dict[str, object]
                        ) -> str:
        """``POST /v1/netlists``; returns the content digest."""
        data = self._request("POST", "/v1/netlists",
                             body=netlist_dict)
        return str(data["digest"])

    def artifact(self, digest: str) -> object:
        """``GET /v1/artifacts/<digest>``; returns the payload."""
        data = self._request(
            "GET", f"/v1/artifacts/{urllib.parse.quote(digest)}")
        return data["payload"]

    def pin(self, digest: str, ref: str = "default"
            ) -> Dict[str, object]:
        """``POST /v1/artifacts/<digest>/pin``."""
        return self._request(
            "POST",
            f"/v1/artifacts/{urllib.parse.quote(digest)}/pin",
            body={"ref": ref})

    def unpin(self, digest: str, ref: str = "default"
              ) -> Dict[str, object]:
        """``POST /v1/artifacts/<digest>/unpin``."""
        return self._request(
            "POST",
            f"/v1/artifacts/{urllib.parse.quote(digest)}/unpin",
            body={"ref": ref})

    # -- event streaming -----------------------------------------------

    def events(self, job_id: str) -> Iterator[Dict[str, object]]:
        """``GET /v1/jobs/<id>/events``: yield SSE events until done.

        Opens a dedicated connection (the stream holds it until the
        job's terminal transition).  Yields each ``data:`` payload as
        a dict; returns after the terminal event (or when the server
        ends the stream, whichever comes first).
        """
        for event in self._stream(job_id):
            if event is not None:
                yield event

    def _stream(self, job_id: str
                ) -> Iterator[Optional[Dict[str, object]]]:
        """:meth:`events`, with ``None`` for each keep-alive comment."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(
                "GET",
                f"/v1/jobs/{urllib.parse.quote(job_id)}/events",
                headers={"X-Repro-Token": self.token})
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    error = json.loads(raw).get("error", {})
                except (json.JSONDecodeError, AttributeError):
                    error = {}
                raise GatewayClientError(
                    response.status,
                    str(error.get("code", "error")),
                    str(error.get("message", raw[:200])))
            while True:
                line = response.readline()
                if not line:
                    return
                text = line.decode("utf-8", "replace").rstrip("\r\n")
                if text.startswith(":"):
                    yield None
                elif text.startswith("data:"):
                    event = json.loads(text[5:].strip())
                    yield event
                    if event.get("status") in _TERMINAL:
                        return
        finally:
            conn.close()

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Follow a job's event stream until terminal; return its state.

        Uses the SSE stream (push, not polling), then reads the job
        view once for the result payload: the gateway updates the
        view before it writes the event, so the view is terminal by
        then.  Raises 504 ``timeout`` when no terminal event arrived
        within ``timeout`` seconds; the stream's keep-alive comments
        bound how late that is noticed.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for event in self._stream(job_id):
            if event is not None and event.get("status") in _TERMINAL:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise GatewayClientError(
                    504, "timeout",
                    f"job {job_id} not terminal within {timeout}s")
        return self.job(job_id)

    def wait_all(self, job_ids: Sequence[str],
                 timeout: Optional[float] = None
                 ) -> List[Dict[str, object]]:
        """:meth:`wait` over several jobs; returns states in order."""
        return [self.wait(job_id, timeout=timeout)
                for job_id in job_ids]
