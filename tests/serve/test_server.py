"""End-to-end API tests against a thread-hosted server.

A module-scoped server (thread backend — fast, and crash injection in
the fault tests goes through the same supervised path) serves the
read-mostly cases; behaviors that need clean counters or a rigged
solver (backpressure, coalescing, shutdown ordering) boot their own.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.pram.backends import ThreadBackend
from repro.serve import ServeClient, ServeError, ServerConfig, serve_in_thread


def _points(seed=0, n=120, dim=2):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _raw_exchange(client, request: bytes, timeout=10.0):
    """Send raw request bytes and read until the server closes;
    returns the response ``(head, body)``."""
    with socket.create_connection((client.host, client.port), timeout=timeout) as sock:
        sock.sendall(request)
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    return head, body


@pytest.fixture(scope="module")
def served():
    config = ServerConfig(backend="thread", backend_workers=2, workers=2)
    with serve_in_thread(config) as handle:
        yield ServeClient(handle.host, handle.port)


class TestBasicApi:
    def test_health(self, served):
        health = served.health()
        assert health["status"] == "ok"
        assert health["backend"] == "thread"
        assert health["queue_capacity"] == 64

    def test_metrics_endpoint(self, served):
        snap = served.metrics()
        assert "counters" in snap
        assert "caches" in snap

    def test_instance_dedup_by_content(self, served):
        pts = _points(seed=1)
        first = served.submit_points(pts)
        second = served.submit_points(pts.copy())
        assert first["instance_id"] == second["instance_id"]
        assert first["cached"] is False
        assert second["cached"] is True

    def test_solve_by_instance_id(self, served):
        inst = served.submit_points(_points(seed=2))
        job = served.solve_and_wait(instance_id=inst["instance_id"], k=3, seed=5)
        assert job["status"] == "done"
        result = job["result"]
        assert len(result["centers"]) == 3
        assert result["cost"] > 0
        assert result["degraded"] is False

    def test_solve_inline_points(self, served):
        job = served.solve_and_wait(points=_points(seed=3), k=2)
        assert job["status"] == "done"
        assert len(job["result"]["centers"]) == 2

    def test_repeat_request_hits_result_cache(self, served):
        inst = served.submit_points(_points(seed=4))
        first = served.solve_and_wait(instance_id=inst["instance_id"], k=3, seed=9)
        second = served.solve(instance_id=inst["instance_id"], k=3, seed=9)
        assert second["status"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_unknown_instance_404(self, served):
        with pytest.raises(ServeError) as err:
            served.solve(instance_id="deadbeef", k=2)
        assert err.value.status == 404

    def test_unknown_param_400(self, served):
        inst = served.submit_points(_points(seed=5))
        with pytest.raises(ServeError) as err:
            served.solve(instance_id=inst["instance_id"], k=2, sharrds=3)
        assert err.value.status == 400

    def test_missing_source_400(self, served):
        with pytest.raises(ServeError) as err:
            served.solve(k=2)
        assert err.value.status == 400

    def test_unknown_job_404(self, served):
        with pytest.raises(ServeError) as err:
            served.poll("job-999999")
        assert err.value.status == 404

    def test_wrong_method_405(self, served):
        status, _ = served.raw_request("GET", "/solve")
        assert status == 405

    def test_unknown_route_404(self, served):
        status, _ = served.raw_request("GET", "/nope")
        assert status == 404

    def test_malformed_json_400(self, served):
        import http.client

        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request(
                "POST", "/solve", body="{not json",
                headers={"Content-Type": "application/json", "Connection": "close"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_nonfinite_points_400(self, served):
        with pytest.raises(ServeError) as err:
            served.submit_points(np.array([[1.0, float("nan")]]))
        assert err.value.status == 400

    @pytest.mark.parametrize("points", [[[0, 1], [2]], [["a", "b"]]], ids=["ragged", "text"])
    def test_unconvertible_points_400(self, served, points):
        status, payload = served.raw_request("POST", "/instances", {"points": points})
        assert status == 400
        assert "points" in payload["error"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_400_then_close(self, served, length):
        """An unreadable Content-Length gets a counted JSON 400, after
        which the server closes the connection (the request's end is
        unknown, so nothing after it can be parsed)."""
        key = 'serve.requests_by_status{status="400"}'
        before = served.metrics()["counters"].get(key, 0)
        request = (
            "POST /instances HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n" '{"points": [[0, 1]]}'
        )
        head, body = _raw_exchange(served, request.encode("latin-1"))
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert served.metrics()["counters"][key] == before + 1

    def test_transfer_encoding_400_then_close(self, served):
        """A chunked body has no Content-Length framing: the request gets
        a counted 400 and the connection closes, so the chunk bytes are
        never parsed as a next request."""
        key = 'serve.requests_by_status{status="400"}'
        before = served.metrics()["counters"].get(key, 0)
        chunk = b'{"points": [[0, 1]]}'
        request = (
            b"POST /instances HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(chunk) + chunk + b"\r\n0\r\n\r\n"
        )
        head, body = _raw_exchange(served, request)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert b"HTTP/1.1" not in body  # one response, nothing after it
        assert "Transfer-Encoding" in json.loads(body)["error"]
        assert served.metrics()["counters"][key] == before + 1

    def test_content_length_over_budget_413_unread(self, served):
        """A Content-Length above the byte budget is refused before any
        of the body is read: a prompt counted 413, then close."""
        counters = served.metrics()["counters"]
        key = 'serve.requests_by_status{status="413"}'
        before = counters.get(key, 0)
        rejected = counters.get("serve.rejected_admission", 0)
        request = (
            b"POST /instances HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 10000000000\r\n\r\n" b'{"points": '
        )
        head, body = _raw_exchange(served, request, timeout=3.0)
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert "admission budget" in json.loads(body)["error"]
        counters = served.metrics()["counters"]
        assert counters[key] == before + 1
        assert counters["serve.rejected_admission"] == rejected + 1


def _post_bytes(client, path, body: bytes):
    """POST raw body bytes; returns ``(status, payload)``."""
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json", "Connection": "close"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestStrictSolveSchema:
    """A malformed or out-of-domain solve parameter is a 400 at submit:
    never truncated, coerced, answered from another request's cache
    entry, or accepted as a job that can only fail."""

    @pytest.fixture(scope="class")
    def sixty(self, served):
        return served.submit_points(_points(seed=50, n=60))["instance_id"]

    @pytest.mark.parametrize(
        "params",
        [{"k": 2.5}, {"k": True}, {"k": 2, "seed": 1.7}, {"k": 2, "shards": 2.9},
         {"k": 61}, {"k": 2, "epsilon": -1}, {"k": 2, "coreset_size": 0},
         {"k": 2, "fallback_slack": -1.0}, {"k": "2"}, {"k": 2, "seed": -3},
         {"k": 2, "solver": "kmedian_lagrangian", "epsilon": 1e-9},
         {"k": 3, "solver": "kmedian", "epsilon": 5e-324},
         {"k": 5, "shards": 2, "coreset_size": 1}],
        ids=["k-fraction", "k-bool", "seed-fraction", "shards-fraction",
             "k-over-n", "epsilon-negative", "coreset-zero", "slack-negative",
             "k-text", "seed-negative", "lagrangian-schedule-too-long",
             "kmedian-epsilon-subnormal", "k-over-merged-coreset"],
    )
    def test_rejected_at_submit(self, served, sixty, params):
        jobs_before = served.health()["jobs"]["total"]
        status, payload = served.raw_request(
            "POST", "/solve", {"instance_id": sixty, **params}
        )
        assert status == 400, payload
        assert served.health()["jobs"]["total"] == jobs_before  # no job made

    def test_fraction_is_not_served_from_a_neighbours_cache_entry(self, served, sixty):
        served.solve_and_wait(instance_id=sixty, k=2, shards=2)
        status, payload = served.raw_request(
            "POST", "/solve", {"instance_id": sixty, "k": 2, "shards": 2.9}
        )
        assert status == 400 and "shards" in payload["error"]

    def test_integral_float_keeps_the_integer_cache_key(self, served, sixty):
        first = served.solve_and_wait(instance_id=sixty, k=3, seed=4)
        again = served.solve(instance_id=sixty, k=3.0, seed=4.0)
        assert again["cached"] is True
        assert again["params"] == first["params"]
        assert again["result"] == first["result"]


class TestTypedEdgeErrors:
    @pytest.mark.parametrize(
        "query", ["wait=abc", "wait=nan", "wait=inf", "wait=-1", "wait=", "wait=1&wait=2"]
    )
    @pytest.mark.parametrize("route", ["solve", "jobs"])
    def test_malformed_wait_400(self, served, query, route):
        inst = served.submit_points(_points(seed=51))
        jobs_before = served.health()["jobs"]["total"]
        if route == "solve":
            status, payload = served.raw_request(
                "POST", f"/solve?{query}", {"instance_id": inst["instance_id"], "k": 2}
            )
        else:
            job = served.solve_and_wait(instance_id=inst["instance_id"], k=2)
            jobs_before += 1
            status, payload = served.raw_request("GET", f"/jobs/{job['job_id']}?{query}")
        assert status == 400
        assert "'wait'" in payload["error"]
        assert served.health()["jobs"]["total"] == jobs_before

    @pytest.mark.parametrize("path", ["/solve", "/instances"])
    def test_non_utf8_body_400(self, served, path):
        status, payload = _post_bytes(served, path, b'{"points": [[0, 1]], "k": "\xff"}')
        assert status == 400
        assert "UTF-8" in payload["error"]

    def test_deeply_nested_body_400(self, served):
        status, payload = _post_bytes(served, "/solve", b"[" * 100_000 + b"]" * 100_000)
        assert status == 400
        assert "nested too deeply" in payload["error"]


class TestConcurrency:
    def test_concurrent_identical_submits_share_one_solve(self):
        config = ServerConfig(backend="thread", backend_workers=2, workers=2)
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            inst = client.submit_points(_points(seed=7, n=200))
            results, errors = [], []

            def one():
                try:
                    c = ServeClient(handle.host, handle.port)
                    job = c.solve_and_wait(
                        instance_id=inst["instance_id"], k=4, seed=3
                    )
                    results.append(job["result"])
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=one) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 6
            assert all(r == results[0] for r in results)
            counters = client.metrics()["counters"]
            # one real solve; everyone else coalesced or cache-served
            assert counters["serve.jobs_completed"] == 1
            shared = counters.get("serve.coalesced", 0) + counters.get(
                "serve.result_cache_hits", 0
            )
            assert shared == 5

    def test_concurrent_distinct_submits_all_solve_fresh(self):
        config = ServerConfig(backend="thread", backend_workers=2, workers=2)
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            inst = client.submit_points(_points(seed=8, n=200))
            results, errors = [], []

            def one(seed):
                try:
                    c = ServeClient(handle.host, handle.port)
                    job = c.solve_and_wait(
                        instance_id=inst["instance_id"], k=4, seed=seed
                    )
                    results.append(job["result"])
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=one, args=(s,)) for s in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 5
            counters = client.metrics()["counters"]
            assert counters["serve.jobs_completed"] == 5
            assert counters.get("serve.result_cache_hits", 0) == 0


class TestBackpressureAndAdmission:
    def test_queue_full_is_429(self):
        release = threading.Event()

        def slow_solve(instance, params):
            release.wait(timeout=30)
            return {"cost": 0.0, "seed": params["seed"]}

        config = ServerConfig(
            backend="serial", workers=1, queue_size=1, solve_fn=slow_solve
        )
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            inst = client.submit_points(_points(seed=9))
            try:
                running = client.solve(instance_id=inst["instance_id"], k=2, seed=0)
                # give the single worker a beat to dequeue the first job
                deadline = time.perf_counter() + 5
                while (
                    client.poll(running["job_id"])["status"] == "queued"
                    and time.perf_counter() < deadline
                ):
                    time.sleep(0.01)
                queued = client.solve(instance_id=inst["instance_id"], k=2, seed=1)
                assert queued["status"] == "queued"
                with pytest.raises(ServeError) as err:
                    client.solve(instance_id=inst["instance_id"], k=2, seed=2)
                assert err.value.status == 429
                assert client.metrics()["counters"]["serve.rejected_backpressure"] == 1
            finally:
                release.set()
            done = client.wait(running["job_id"])
            assert done["result"]["seed"] == 0

    def test_over_budget_instance_413(self):
        config = ServerConfig(backend="serial", budget_bytes=1000)
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            with pytest.raises(ServeError) as err:
                client.submit_points(_points(seed=10, n=500))
            assert err.value.status == 413
            assert client.metrics()["counters"]["serve.rejected_admission"] == 1

    def test_over_budget_solve_413(self):
        # the instance fits but the solve's CSR estimate does not
        config = ServerConfig(backend="serial", budget_bytes=8000)
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            inst = client.submit_points(_points(seed=11, n=64))
            with pytest.raises(ServeError) as err:
                client.solve(
                    instance_id=inst["instance_id"], k=4, neighbors=64, shards=4
                )
            assert err.value.status == 413


class TestLifecycle:
    def test_shutdown_endpoint_stops_the_server(self):
        config = ServerConfig(backend="serial", workers=1)
        handle = serve_in_thread(config)
        client = ServeClient(handle.host, handle.port)
        assert client.shutdown() == {"status": "stopping"}
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        handle.stop()  # idempotent after the fact

    def test_shutdown_drains_running_job_before_stopping(self):
        started = threading.Event()
        release = threading.Event()

        def slow_solve(instance, params):
            started.set()
            release.wait(timeout=30)
            return {"cost": 1.0}

        config = ServerConfig(backend="serial", workers=1, solve_fn=slow_solve)
        handle = serve_in_thread(config)
        client = ServeClient(handle.host, handle.port)
        inst = client.submit_points(_points(seed=12))
        job = client.solve(instance_id=inst["instance_id"], k=2)
        assert started.wait(timeout=10)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        # shutdown must wait on the in-flight job, not abandon it
        time.sleep(0.1)
        assert stopper.is_alive()
        release.set()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert handle.server.jobs.get(job["job_id"]).status == "done"

    def test_borrowed_backend_stays_open(self):
        backend = ThreadBackend(2)
        try:
            config = ServerConfig(backend=backend, workers=1)
            with serve_in_thread(config) as handle:
                client = ServeClient(handle.host, handle.port)
                job = client.solve_and_wait(points=_points(seed=13), k=2)
                assert job["status"] == "done"
            assert not backend.closed
        finally:
            backend.close()

    def test_owned_backend_closes_on_stop(self):
        config = ServerConfig(backend="thread", backend_workers=2, workers=1)
        handle = serve_in_thread(config)
        ServeClient(handle.host, handle.port).health()
        backend = handle.server.backend
        handle.stop()
        assert backend.closed


class TestObservability:
    def test_per_status_request_counters(self):
        config = ServerConfig(backend="serial", workers=1)
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            client.health()
            client.raw_request("GET", "/nope")
            counters = client.metrics()["counters"]
            assert counters['serve.requests_by_status{status="200"}'] >= 1
            assert counters['serve.requests_by_status{status="404"}'] == 1
            assert counters["serve.requests_errored"] == 1
            # the /metrics request itself is counted after its response
            # is built, so at snapshot time exactly two are recorded
            assert counters["serve.requests_total"] == 2

    def test_request_latency_histogram_has_buckets(self, served):
        served.health()
        snap = served.metrics()
        hist = snap["histograms"]["serve.request_latency_s"]
        assert hist["count"] >= 1
        assert "buckets" in hist
        assert hist["buckets"]["+Inf"] == hist["count"]

    def test_trace_id_minted_and_echoed(self, served):
        import http.client

        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request("GET", "/health", headers={"Connection": "close"})
            resp = conn.getresponse()
            minted = resp.getheader("X-Repro-Trace-Id")
            resp.read()
        finally:
            conn.close()
        assert minted and len(minted) == 16

    def test_offered_trace_id_honored(self, served):
        import http.client

        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request(
                "GET", "/health",
                headers={"Connection": "close", "X-Repro-Trace-Id": "my-req.01"},
            )
            resp = conn.getresponse()
            echoed = resp.getheader("X-Repro-Trace-Id")
            resp.read()
        finally:
            conn.close()
        assert echoed == "my-req.01"

    def test_invalid_offered_trace_id_replaced(self, served):
        import http.client

        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request(
                "GET", "/health",
                headers={"Connection": "close", "X-Repro-Trace-Id": "bad id!"},
            )
            resp = conn.getresponse()
            echoed = resp.getheader("X-Repro-Trace-Id")
            resp.read()
        finally:
            conn.close()
        assert echoed != "bad id!"
        assert len(echoed) == 16

    def test_solve_response_carries_trace_id(self, served):
        job = served.solve(points=_points(seed=20), k=2, trace_id="ride-along")
        assert job["trace_id"] == "ride-along"
        polled = served.poll(job["job_id"])
        assert polled["trace_id"] == "ride-along"

    def test_prometheus_exposition_endpoint(self, served):
        import http.client

        from repro.obs import parse_prometheus_text

        served.health()
        conn = http.client.HTTPConnection(served.host, served.port, timeout=10)
        try:
            conn.request(
                "GET", "/metrics?format=prometheus",
                headers={"Connection": "close"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Content-Type").startswith("text/plain")
            text = resp.read().decode("utf-8")
        finally:
            conn.close()
        parsed = parse_prometheus_text(text)
        assert parsed["types"]["serve_requests_total"] == "counter"
        assert parsed["samples"]["serve_requests_total"] >= 1
        assert parsed["types"]["serve_request_latency_s"] == "histogram"

    def test_metrics_json_unchanged_by_default(self, served):
        snap = served.metrics()
        assert "counters" in snap and "gauges" in snap and "histograms" in snap

    def test_trace_endpoint_unknown_job_404(self, served):
        status, _ = served.raw_request("GET", "/trace/job-999999")
        assert status == 404

    def test_trace_endpoint_409_when_not_tracing(self, served):
        job = served.solve_and_wait(points=_points(seed=21), k=2)
        status, payload = served.raw_request("GET", f"/trace/{job['job_id']}")
        assert status == 409
        assert "tracing is not active" in payload["error"]


class TestSloHealth:
    def test_health_has_no_slo_section_by_default(self, served):
        assert "slo" not in served.health()

    def test_health_reports_insufficient_data_cold(self):
        from repro.obs import SloTarget

        config = ServerConfig(
            backend="serial", workers=1,
            slo=SloTarget(p99_latency_s=1.0, min_samples=5),
        )
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            health = client.health()
            assert health["status"] == "ok"
            assert health["slo"]["status"] == "insufficient_data"

    def test_health_ok_within_target(self):
        from repro.obs import SloTarget

        config = ServerConfig(
            backend="serial", workers=1,
            slo=SloTarget(p99_latency_s=30.0, max_error_rate=0.9, min_samples=3),
        )
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            for seed in range(4):
                client.solve_and_wait(points=_points(seed=30 + seed), k=2)
            health = client.health()
            assert health["status"] == "ok"
            assert health["slo"]["status"] == "ok"
            assert health["slo"]["measured"]["count"] >= 3

    def test_degraded_health_is_503_with_reasons(self):
        from repro.obs import SloTarget

        def failing_solve(instance, params):
            raise RuntimeError("rigged to fail")

        config = ServerConfig(
            backend="serial", workers=1, solve_fn=failing_solve,
            slo=SloTarget(max_error_rate=0.1, min_samples=3),
        )
        with serve_in_thread(config) as handle:
            client = ServeClient(handle.host, handle.port)
            inst = client.submit_points(_points(seed=40))
            for seed in range(4):
                job = client.solve(
                    instance_id=inst["instance_id"], k=2, seed=seed
                )
                deadline = time.perf_counter() + 10
                while (
                    client.poll(job["job_id"])["status"] != "failed"
                    and time.perf_counter() < deadline
                ):
                    time.sleep(0.01)
            status, payload = client.raw_request("GET", "/health")
            assert status == 503
            assert payload["status"] == "degraded"
            assert any("error rate" in r for r in payload["slo"]["reasons"])
