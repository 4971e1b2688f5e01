"""Fault injection through the serving tier: crashes are invisible.

The PR 6 contract — supervised retry replays a crashed shard with the
same spawned seed, so recovery is byte-identical — must survive the
trip through the HTTP layer: a server with a fault plan injecting a
crash mid-request returns *exactly* the bytes a clean server returns.

Each request here asks for a ``coreset_size`` below its shard sizes, so
its coreset fan-out has seeding work and runs on the server's pool (an
identity fan-out would run in the job's own thread); the traces assert
that the pool ran it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.obs import trace_to
from repro.serve import ServeClient, ServerConfig, serve_in_thread
from tests.pool_lanes import assert_coreset_batch_on_pool


def _points(n=200, dim=2, seed=0):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _solve_on(config, points, trace_path, **params):
    with trace_to(trace_path), serve_in_thread(config) as handle:
        client = ServeClient(handle.host, handle.port)
        job = client.solve_and_wait(points=points, **params)
        assert job["status"] == "done"
        result, counters = job["result"], client.metrics()["counters"]
    assert_coreset_batch_on_pool(trace_path)
    return result, counters


def _solution(result: dict) -> str:
    # the solution payload; solve_s is a wall-clock measurement and the
    # one field byte-identity does not (and must not) cover
    return json.dumps(
        {k: v for k, v in result.items() if k != "solve_s"}, sort_keys=True
    )


@pytest.mark.parametrize("kind", ["crash", "raise"])
def test_injected_fault_returns_byte_identical_solution(kind, tmp_path):
    pts = _points()
    params = dict(k=4, shards=3, coreset_size=32, seed=11)
    clean, _ = _solve_on(
        ServerConfig(backend="process", backend_workers=2, workers=1),
        pts,
        tmp_path / "clean.jsonl",
        **params,
    )
    faulty, counters = _solve_on(
        ServerConfig(
            backend="process",
            backend_workers=2,
            workers=1,
            fault_plan=FaultPlan.single(kind, index=0),
        ),
        pts,
        tmp_path / "faulty.jsonl",
        **params,
    )
    assert counters["serve.jobs_completed"] == 1
    assert counters.get("serve.jobs_failed", 0) == 0
    # byte-identical, not merely numerically close: serialize both
    assert _solution(faulty) == _solution(clean)


def test_fault_on_every_attempt_fails_the_job_not_the_server(tmp_path):
    pts = _points(seed=1)
    config = ServerConfig(
        backend="process",
        backend_workers=2,
        workers=1,
        fault_plan=FaultPlan.single("crash", index=0, attempt=None),  # every attempt
    )
    trace_path = tmp_path / "failed.jsonl"
    with trace_to(trace_path), serve_in_thread(config) as handle:
        client = ServeClient(handle.host, handle.port)
        job = client.solve(points=pts, k=3, shards=2, coreset_size=32, seed=2)
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="failed"):
            client.wait(job["job_id"])
        assert client.metrics()["counters"]["serve.jobs_failed"] == 1
        # the server is still healthy and can serve an unfaulted shard count
        assert client.health()["status"] == "ok"
    # shard 1's build returned from a pool worker
    assert_coreset_batch_on_pool(trace_path)


def test_process_backend_crash_recovers_byte_identical(tmp_path):
    # The real deployment shape: a process pool worker is crashed by the
    # plan and the supervised retry reproduces the clean answer.
    pts = _points(n=160, seed=2)
    params = dict(k=3, shards=2, coreset_size=32, seed=7)
    clean, _ = _solve_on(
        ServerConfig(backend="process", backend_workers=2, workers=1),
        pts,
        tmp_path / "clean.jsonl",
        **params,
    )
    faulty, counters = _solve_on(
        ServerConfig(
            backend="process",
            backend_workers=2,
            workers=1,
            fault_plan=FaultPlan.single("crash", index=0),
        ),
        pts,
        tmp_path / "faulty.jsonl",
        **params,
    )
    assert counters["serve.jobs_completed"] == 1
    assert _solution(faulty) == _solution(clean)
