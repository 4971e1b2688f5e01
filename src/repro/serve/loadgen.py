"""Load generation against a running serving tier.

``python -m repro.serve.loadgen`` drives N concurrent clients at an
optional target request rate for a fixed request count or duration, and
reports the serving metrics the llm-d-style load harnesses emit:
**throughput (requests/s)**, **time-per-request**, **failure rate**,
and **p50/p90/p99 latency** measured client-side from submit to
terminal job state (so the HTTP edge, queue wait and solve time are all
inside the number — it is the latency a user would see). Each request
long-polls (``POST /solve?wait=``), so a solve that finishes within the
hold costs one HTTP request.

Each request is a fresh solve by default (the seed varies per request,
so every request exercises the full queue → worker → solver path);
``--identical`` repeats one identical request instead, measuring the
result cache. ``--spawn`` boots an in-process server first — the
self-contained smoke CI runs, and the reason a trace activated via
``REPRO_TRACE`` covers both sides of the wire in one file.

The report is importable too: :func:`run_loadgen` returns the dict.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

import numpy as np

from repro.errors import ReproError
from repro.serve.client import hold_seconds, with_wait


async def _http(host, port, method, path, body=None, *, timeout=30.0):
    """One asyncio HTTP/1.1 request (Connection: close); returns
    ``(status, payload)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout
    )
    try:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1]) if len(parts) >= 2 else 500
        length = 0
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=timeout)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = {}
        if length:
            raw = await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
            payload = json.loads(raw)
        return status, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def _run_one(host, port, body, *, timeout):
    """Submit one solve and long-poll it to a terminal state; returns
    ``(ok, latency_s, status)``."""
    t0 = time.perf_counter()
    deadline = t0 + timeout
    path = with_wait("/solve", hold_seconds(deadline, timeout))
    status, payload = await _http(host, port, "POST", path, body, timeout=timeout)
    while status in (200, 202) and payload["status"] in ("queued", "running"):
        if time.perf_counter() >= deadline:
            return False, time.perf_counter() - t0, 504
        path = with_wait(f"/jobs/{payload['job_id']}", hold_seconds(deadline, timeout))
        status, payload = await _http(host, port, "GET", path, timeout=timeout)
    if status not in (200, 202):
        return False, time.perf_counter() - t0, status
    if payload["status"] == "failed":
        return False, time.perf_counter() - t0, 500
    return True, time.perf_counter() - t0, status


async def _loadgen_async(
    host,
    port,
    *,
    clients,
    requests,
    duration,
    qps,
    n,
    dim,
    k,
    seed,
    identical,
    timeout,
    solve_params,
):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    status, payload = await _http(
        host, port, "POST", "/instances", {"points": points.tolist()}, timeout=timeout
    )
    if status != 200:
        raise ReproError(f"instance submission failed: HTTP {status}: {payload}")
    instance_id = payload["instance_id"]

    records: list = []
    alloc = {"i": 0}
    start = time.perf_counter()
    deadline = None if duration is None else start + duration

    def _next_index():
        if deadline is None and alloc["i"] >= requests:
            return None
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        i = alloc["i"]
        alloc["i"] += 1
        return i

    async def _client():
        while True:
            i = _next_index()
            if i is None:
                return
            if qps:
                slot = start + i / qps
                delay = slot - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            body = {"instance_id": instance_id, "k": k, **(solve_params or {})}
            body["seed"] = int(seed) if identical else int(seed) + i
            ok, latency, http_status = await _run_one(
                host, port, body, timeout=timeout
            )
            records.append((ok, latency, http_status))

    await asyncio.gather(*[_client() for _ in range(clients)])
    wall = time.perf_counter() - start

    lat = np.asarray([r[1] for r in records]) if records else np.zeros(0)
    completed = sum(1 for r in records if r[0])
    failed = len(records) - completed
    report = {
        "clients": int(clients),
        "requests_sent": len(records),
        "completed": int(completed),
        "failed": int(failed),
        "failure_rate": (failed / len(records)) if records else 0.0,
        "wall_s": wall,
        "throughput_rps": (completed / wall) if wall > 0 else 0.0,
        "time_per_request_s": float(lat.mean()) if lat.size else 0.0,
        "latency_s": {
            "min": float(lat.min()) if lat.size else 0.0,
            "p50": float(np.percentile(lat, 50)) if lat.size else 0.0,
            "p90": float(np.percentile(lat, 90)) if lat.size else 0.0,
            "p99": float(np.percentile(lat, 99)) if lat.size else 0.0,
            "max": float(lat.max()) if lat.size else 0.0,
        },
        "instance_id": instance_id,
        "identical_requests": bool(identical),
        "n": int(n),
        "dim": int(dim),
        "k": int(k),
        "qps_target": qps,
    }
    # Scrape the server's own SLO verdict (when it evaluates one) so the
    # report carries both views of the run: client-observed latency and
    # server-side health. Raw _http because a degraded server answers
    # 503 and the verdict is exactly what we came for.
    status, payload = await _http(host, port, "GET", "/health", timeout=timeout)
    if status in (200, 503) and isinstance(payload, dict) and "slo" in payload:
        report["slo"] = payload["slo"]
    return report


def run_loadgen(
    host: str,
    port: int,
    *,
    clients: int = 4,
    requests: int = 50,
    duration: float | None = None,
    qps: float | None = None,
    n: int = 240,
    dim: int = 2,
    k: int = 4,
    seed: int = 0,
    identical: bool = False,
    timeout: float = 60.0,
    solve_params: dict | None = None,
) -> dict:
    """Run the load generator; returns the report dict (module docstring).

    ``requests`` is the total across all clients; ``duration`` (seconds)
    replaces it with a deadline when given. ``solve_params`` forwards
    extra solver parameters (``shards``, ``coreset_size``, …) into every
    request body.
    """
    return asyncio.run(
        _loadgen_async(
            host,
            port,
            clients=clients,
            requests=requests,
            duration=duration,
            qps=qps,
            n=n,
            dim=dim,
            k=k,
            seed=seed,
            identical=identical,
            timeout=timeout,
            solve_params=solve_params,
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument("--clients", type=int, default=4, help="concurrent clients")
    parser.add_argument("--requests", type=int, default=50, help="total requests")
    parser.add_argument(
        "--duration", type=float, default=None,
        help="run for this many seconds instead of a fixed request count",
    )
    parser.add_argument("--qps", type=float, default=None, help="target request rate")
    parser.add_argument("--n", type=int, default=240, help="instance point count")
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--identical", action="store_true",
        help="repeat one identical request (measures the result cache)",
    )
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--coreset-size", type=int, default=None)
    parser.add_argument("--neighbors", type=int, default=None)
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--slo-p99", type=float, default=None,
        help="fail (exit 1) when client-observed p99 latency exceeds this "
        "many seconds",
    )
    parser.add_argument(
        "--max-failure-rate", type=float, default=None,
        help="fail (exit 1) when the failure rate exceeds this fraction",
    )
    parser.add_argument(
        "--spawn", action="store_true",
        help="boot an in-process server first (self-contained smoke)",
    )
    parser.add_argument(
        "--spawn-backend", default="process",
        help="execution backend for the spawned server (serial/process)",
    )
    parser.add_argument("--spawn-workers", type=int, default=2)
    parser.add_argument("--spawn-backend-workers", type=int, default=None)
    args = parser.parse_args(argv)

    solve_params = {}
    if args.shards is not None:
        solve_params["shards"] = args.shards
    if args.coreset_size is not None:
        solve_params["coreset_size"] = args.coreset_size
    if args.neighbors is not None:
        solve_params["neighbors"] = args.neighbors

    handle = None
    host, port = args.host, args.port
    try:
        if args.spawn:
            from repro.serve.server import ServerConfig, serve_in_thread

            handle = serve_in_thread(
                ServerConfig(
                    backend=args.spawn_backend,
                    workers=args.spawn_workers,
                    backend_workers=args.spawn_backend_workers,
                )
            )
            host, port = handle.host, handle.port
        report = run_loadgen(
            host,
            port,
            clients=args.clients,
            requests=args.requests,
            duration=args.duration,
            qps=args.qps,
            n=args.n,
            dim=args.dim,
            k=args.k,
            seed=args.seed,
            identical=args.identical,
            timeout=args.timeout,
            solve_params=solve_params or None,
        )
    finally:
        if handle is not None:
            handle.stop()

    from repro.obs.slo import grade_report

    breaches = grade_report(
        report, p99_latency_s=args.slo_p99, max_failure_rate=args.max_failure_rate
    )
    report["breaches"] = breaches
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    if breaches:
        for reason in breaches:
            print(f"SLO BREACH: {reason}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
