"""Serving tier: an asyncio HTTP API over :func:`repro.shard.shard_and_solve`.

Turns the library's batch solve path into a long-lived service:

- :mod:`repro.serve.server` — stdlib asyncio HTTP/1.1 server (no web
  framework dependency) with submit-instance / solve / poll / health
  endpoints (solve and poll long-poll with ``?wait=``), an async job
  queue draining into a worker pool that shares one execution backend
  across requests, supervised-retry fault tolerance (a crashed solve
  retries with byte-identical recovery), and content-hash
  instance/result caches behind byte-budget admission control.
- :mod:`repro.serve.client` — blocking :class:`ServeClient` for tests,
  examples, and scripts.
- :mod:`repro.serve.loadgen` — ``python -m repro.serve.loadgen``, the
  concurrent load generator reporting throughput, failure rate, and
  p50/p99 latency.

Run a server with ``python -m repro.serve``; see ``examples/serving.py``
for the embedded form (:func:`serve_in_thread`).
"""

from repro.serve.cache import (
    AdmissionController,
    AdmissionError,
    LruBytesCache,
    StoredInstance,
    estimate_request_bytes,
    payload_hash,
    result_key,
    store_points,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, JobTable, SolveRunner, normalize_params
from repro.serve.server import ServerConfig, ServerHandle, SolveServer, serve_in_thread


def __getattr__(name):
    # Lazy so `python -m repro.serve.loadgen` doesn't import the module
    # twice (package import + runpy) and trip the sys.modules warning.
    if name == "run_loadgen":
        from repro.serve.loadgen import run_loadgen

        return run_loadgen
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "Job",
    "JobTable",
    "LruBytesCache",
    "ServeClient",
    "ServeError",
    "ServerConfig",
    "ServerHandle",
    "SolveRunner",
    "SolveServer",
    "StoredInstance",
    "estimate_request_bytes",
    "normalize_params",
    "payload_hash",
    "result_key",
    "run_loadgen",
    "serve_in_thread",
    "store_points",
]
