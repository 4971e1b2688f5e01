"""Blocking HTTP client for the serving tier (tests, examples, scripts).

A thin ``http.client`` wrapper speaking the :mod:`repro.serve.server`
JSON API. Each call opens one connection — simple and stateless; the
concurrency-hungry path (load generation) uses the asyncio client in
:mod:`repro.serve.loadgen` instead. Waiting on a job is a long-poll
(``?wait=``): the server holds the request until the job is terminal,
so a solve that finishes within one hold costs one HTTP request.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

from repro.errors import ReproError


class ServeError(ReproError):
    """The server answered with an error status; carries it as ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def hold_seconds(deadline: float, socket_timeout: float) -> float:
    """How long to ask the server to hold a long-poll: the time left
    before ``deadline`` (a ``perf_counter`` instant), but at most half
    of ``socket_timeout``, so the server answers before the socket
    gives up."""
    return min(max(deadline - time.perf_counter(), 0.0), socket_timeout / 2)


def with_wait(path: str, wait: float | None) -> str:
    """``path`` with a ``?wait=`` long-poll hold, when one is asked."""
    return path if wait is None else f"{path}?wait={wait:.3f}"


class ServeClient:
    """Blocking client for one server address.

    Mutating calls raise :class:`ServeError` on non-2xx responses;
    ``raw_request`` returns ``(status, payload)`` untouched for callers
    that want to observe 4xx behavior (backpressure tests).
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- transport ----------------------------------------------------------

    def raw_request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict | None = None,
    ):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            send_headers = {"Content-Type": "application/json", "Connection": "close"}
            if headers:
                send_headers.update(headers)
            conn.request(method, path, body=payload, headers=send_headers)
            resp = conn.getresponse()
            data = resp.read()
            return resp.status, json.loads(data) if data else {}
        finally:
            conn.close()

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        *,
        headers: dict | None = None,
    ) -> dict:
        status, payload = self.raw_request(method, path, body, headers=headers)
        if status >= 400:
            raise ServeError(status, str(payload.get("error", payload)))
        return payload

    # -- API ----------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/health")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit_points(self, points, weights=None) -> dict:
        body = {"points": np.asarray(points, dtype=float).tolist()}
        if weights is not None:
            body["weights"] = np.asarray(weights, dtype=float).tolist()
        return self._request("POST", "/instances", body)

    def solve(
        self,
        *,
        instance_id=None,
        points=None,
        weights=None,
        trace_id=None,
        wait=None,
        **params,
    ) -> dict:
        """Submit a solve; ``trace_id`` rides in ``X-Repro-Trace-Id`` so
        the caller picks the request's trace id instead of the server
        minting one. ``wait`` (seconds) asks the server to hold the
        answer until the job is terminal or the hold expires."""
        body = dict(params)
        if instance_id is not None:
            body["instance_id"] = instance_id
        if points is not None:
            body["points"] = np.asarray(points, dtype=float).tolist()
            if weights is not None:
                body["weights"] = np.asarray(weights, dtype=float).tolist()
        headers = {"X-Repro-Trace-Id": str(trace_id)} if trace_id is not None else None
        return self._request("POST", with_wait("/solve", wait), body, headers=headers)

    def poll(self, job_id: str, *, wait: float | None = None) -> dict:
        """A job's state; ``wait`` (seconds) long-polls for its terminal one."""
        return self._request("GET", with_wait(f"/jobs/{job_id}", wait))

    def trace(self, job_id: str) -> dict:
        """The stitched request trace for a job (server must be tracing)."""
        return self._request("GET", f"/trace/{job_id}")

    def wait(self, job_id: str, *, timeout: float = 60.0) -> dict:
        """Long-poll until the job is terminal; raises on timeout or failure."""
        deadline = time.perf_counter() + timeout
        job = self.poll(job_id, wait=hold_seconds(deadline, self.timeout))
        return self._settle(job, deadline, timeout)

    def solve_and_wait(self, *, timeout: float = 60.0, **kwargs) -> dict:
        """Submit with a long-poll and block until the result is available."""
        deadline = time.perf_counter() + timeout
        job = self.solve(wait=hold_seconds(deadline, self.timeout), **kwargs)
        return self._settle(job, deadline, timeout)

    def _settle(self, job: dict, deadline: float, timeout: float) -> dict:
        """Long-poll a job while it is pending and ``deadline`` is ahead;
        return it done, or raise when it failed or time ran out."""
        while job["status"] in ("queued", "running") and time.perf_counter() < deadline:
            job = self.poll(job["job_id"], wait=hold_seconds(deadline, self.timeout))
        if job["status"] == "failed":
            raise ServeError(500, f"job {job['job_id']} failed: {job.get('error')}")
        if job["status"] != "done":
            raise ServeError(
                504, f"job {job['job_id']} still {job['status']} after {timeout}s"
            )
        return job

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")
