"""Long-poll (``?wait=``) on ``POST /solve`` and ``GET /jobs/<id>``.

A held request answers the moment its job turns terminal — 200 with
the job payload, ``done`` or ``failed`` — and an expired hold answers
as the request would without ``wait``. Rigged solvers block on an
event the test releases, so every hold is observed from both sides.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.serve import ServeClient, ServeError, ServerConfig, serve_in_thread


def _points(seed=0, n=80):
    return np.random.default_rng(seed).normal(size=(n, 2))


class _RecordingClient(ServeClient):
    """A client that records the path of every HTTP exchange it makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths: list = []

    def raw_request(self, method, path, body=None, *, headers=None):
        self.paths.append(path)
        return super().raw_request(method, path, body, headers=headers)


@contextmanager
def _blocked_server(**config):
    """A server whose solves block until ``release`` is set; yields
    ``(handle, client, instance_id, started, release)``."""
    started = threading.Event()
    release = threading.Event()

    def blocked_solve(instance, params):
        started.set()
        release.wait(timeout=30)
        return {"cost": 0.0, "seed": params["seed"]}

    config = {"backend": "serial", "workers": 1, **config}
    with serve_in_thread(ServerConfig(solve_fn=blocked_solve, **config)) as handle:
        client = ServeClient(handle.host, handle.port)
        instance_id = client.submit_points(_points())["instance_id"]
        try:
            yield handle, client, instance_id, started, release
        finally:
            release.set()


def _in_thread(fn, *args):
    """Run ``fn(*args)`` on a thread; returns ``(thread, box)`` where
    ``box`` gets ``answer`` (the return value) and ``elapsed_s``."""
    box: dict = {}

    def run():
        t0 = time.perf_counter()
        box["answer"] = fn(*args)
        box["elapsed_s"] = time.perf_counter() - t0

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


def _await(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition not reached in time"
        time.sleep(0.01)


def test_solve_and_wait_is_one_request():
    with serve_in_thread(ServerConfig(backend="serial", workers=1)) as handle:
        client = _RecordingClient(handle.host, handle.port)
        inst = client.submit_points(_points(seed=1))
        before = client.metrics()["counters"]["serve.requests_total"]
        client.paths.clear()
        job = client.solve_and_wait(instance_id=inst["instance_id"], k=3, seed=2)
        assert job["status"] == "done" and job["cached"] is False
        assert len(client.paths) == 1 and client.paths[0].startswith("/solve?wait=")
        after = client.metrics()["counters"]["serve.requests_total"]
        # the first /metrics GET is counted after its own snapshot
        assert after - before - 1 == 1


def test_expired_submit_hold_answers_202_pending():
    with _blocked_server() as (_, client, instance_id, started, _release):
        t0 = time.perf_counter()
        status, payload = client.raw_request(
            "POST", "/solve?wait=0.05", {"instance_id": instance_id, "k": 2}
        )
        assert time.perf_counter() - t0 >= 0.05
        assert status == 202
        assert payload["status"] in ("queued", "running")
        assert started.wait(timeout=10)
        status, payload = client.raw_request("GET", f"/jobs/{payload['job_id']}?wait=0.05")
        assert status == 200 and payload["status"] == "running"


def test_wait_zero_does_not_hold():
    with _blocked_server() as (_, client, instance_id, started, _release):
        status, payload = client.raw_request(
            "POST", "/solve?wait=0", {"instance_id": instance_id, "k": 2}
        )
        assert status == 202 and payload["status"] in ("queued", "running")
        assert started.wait(timeout=10)
        status, payload = client.raw_request("GET", f"/jobs/{payload['job_id']}?wait=0")
        assert status == 200 and payload["status"] == "running"


def test_held_poll_wakes_on_completion_not_on_expiry():
    with _blocked_server() as (_, client, instance_id, started, release):
        job = client.solve(instance_id=instance_id, k=2, seed=5)
        assert started.wait(timeout=10)
        thread, box = _in_thread(
            client.raw_request, "GET", f"/jobs/{job['job_id']}?wait=30"
        )
        time.sleep(0.2)
        assert thread.is_alive()  # held, not answered
        release.set()
        thread.join(timeout=10)
        status, payload = box["answer"]
        assert status == 200
        assert payload["status"] == "done" and payload["result"]["seed"] == 5
        assert box["elapsed_s"] < 10  # woken by the job, not the 30 s hold


def test_identical_held_submits_share_one_wake():
    with _blocked_server() as (_, client, instance_id, started, release):
        body = {"instance_id": instance_id, "k": 2, "seed": 7}
        first, first_box = _in_thread(client.raw_request, "POST", "/solve?wait=30", body)
        assert started.wait(timeout=10)
        second, second_box = _in_thread(client.raw_request, "POST", "/solve?wait=30", body)
        _await(lambda: client.metrics()["counters"].get("serve.coalesced") == 1)
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        (s1, p1), (s2, p2) = first_box["answer"], second_box["answer"]
        assert s1 == s2 == 200
        assert p1["status"] == p2["status"] == "done"
        assert p1["job_id"] == p2["job_id"] and p1["result"] == p2["result"]
        counters = client.metrics()["counters"]
        assert counters["serve.coalesced"] == 1
        assert counters["serve.jobs_completed"] == 1


def test_cache_hit_with_wait_answers_as_without():
    with serve_in_thread(ServerConfig(backend="serial", workers=1)) as handle:
        client = ServeClient(handle.host, handle.port)
        inst = client.submit_points(_points(seed=3))
        body = {"instance_id": inst["instance_id"], "k": 2}
        client.solve_and_wait(**body)
        status, payload = client.raw_request("POST", "/solve?wait=30", body)
        assert status == 200 and payload["cached"] is True


def test_held_failing_job_answers_200_failed():
    def failing_solve(instance, params):
        raise RuntimeError("rigged to fail")

    config = ServerConfig(backend="serial", workers=1, solve_fn=failing_solve)
    with serve_in_thread(config) as handle:
        client = ServeClient(handle.host, handle.port)
        inst = client.submit_points(_points(seed=4))
        status, payload = client.raw_request(
            "POST", "/solve?wait=30", {"instance_id": inst["instance_id"], "k": 2}
        )
        assert status == 200
        assert payload["status"] == "failed" and "rigged to fail" in payload["error"]
        with pytest.raises(ServeError, match="failed") as err:
            client.solve_and_wait(instance_id=inst["instance_id"], k=2, seed=1)
        assert err.value.status == 500


def test_client_deadline_bounds_the_wait():
    with _blocked_server() as (_, client, instance_id, _started, _release):
        t0 = time.perf_counter()
        with pytest.raises(ServeError) as err:
            client.solve_and_wait(instance_id=instance_id, k=2, timeout=0.2)
        assert err.value.status == 504
        assert time.perf_counter() - t0 < 5


def test_held_request_wakes_when_its_instance_was_evicted():
    from repro.serve import store_points

    one_instance = store_points(_points(), None).nbytes
    with _blocked_server(cache_bytes=one_instance * 3 // 2) as (
        handle, client, instance_id, started, release,
    ):
        client.solve(instance_id=instance_id, k=2, seed=0)
        assert started.wait(timeout=10)
        thread, box = _in_thread(
            client.raw_request, "POST", "/solve?wait=30",
            {"instance_id": instance_id, "k": 2, "seed": 1},
        )
        _await(lambda: handle.server._queue.qsize() == 1)
        client.submit_points(_points(seed=9))  # evicts the held job's instance
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        status, payload = box["answer"]
        assert status == 200 and payload["status"] == "failed"
        assert "evicted" in payload["error"]


def test_held_request_gets_a_terminal_payload_at_shutdown():
    with _blocked_server() as (handle, client, instance_id, started, release):
        thread, box = _in_thread(
            client.raw_request, "POST", "/solve?wait=30",
            {"instance_id": instance_id, "k": 2, "seed": 9},
        )
        assert started.wait(timeout=10)
        assert client.shutdown() == {"status": "stopping"}
        time.sleep(0.1)
        release.set()
        thread.join(timeout=10)
        status, payload = box["answer"]
        assert status == 200
        assert payload["status"] == "done" and payload["result"]["seed"] == 9
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        assert handle.server._waiters == {}


def test_waiter_map_is_empty_once_jobs_are_done():
    with _blocked_server(queue_size=1) as (handle, client, instance_id, started, release):
        running = client.solve(instance_id=instance_id, k=2, seed=0)
        assert started.wait(timeout=10)
        queued = client.solve(instance_id=instance_id, k=2, seed=1)
        with pytest.raises(ServeError) as err:  # the 429 path
            client.solve(instance_id=instance_id, k=2, seed=2)
        assert err.value.status == 429
        assert set(handle.server._waiters) == {running["job_id"], queued["job_id"]}
        release.set()
        assert client.wait(queued["job_id"])["status"] == "done"
        _await(lambda: not handle.server._waiters)


def test_shutdown_sweep_answers_a_request_held_on_a_job_that_never_ran():
    """A job still queued when the workers stop is failed by the shutdown
    sweep, and a request held on it gets that terminal payload before
    the server's loop goes away."""
    with _blocked_server() as (handle, client, instance_id, started, release):
        client.solve(instance_id=instance_id, k=2, seed=0)
        assert started.wait(timeout=10)
        thread, box = _in_thread(
            client.raw_request, "POST", "/solve?wait=30",
            {"instance_id": instance_id, "k": 2, "seed": 1},
        )
        queue = handle.server._queue
        _await(lambda: queue.qsize() == 1)

        def take_off_the_queue():  # so no worker ever runs the held job
            queue.get_nowait()
            queue.task_done()

        handle._loop.call_soon_threadsafe(take_off_the_queue)
        _await(lambda: queue.qsize() == 0)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.1)
        release.set()
        stopper.join(timeout=20)
        thread.join(timeout=20)
        assert not stopper.is_alive() and not thread.is_alive()
        status, payload = box["answer"]
        assert status == 200 and payload["status"] == "failed"
        assert payload["error"] == "server stopped before the job ran"
        assert handle.server._waiters == {}
