"""Workload ``serve-fresh``: an open loop of cache-missing solves against ``python -m repro.serve``.

The server runs in its own process with its default configuration. Set-up
uploads one 400-point, 8-blob instance; the load is an open loop at
:data:`RATE` requests per second from one process with at most
:data:`THREADS` threads, each request a ``ServeClient.solve_and_wait``
with a distinct seed (k=8, 4 shards, coreset 128, 32 neighbours), so
every request misses the result cache. The input is so small that fixed
per-request costs dominate: the HTTP edge, submit plus polling, the job
queue and a supervised ``shard_and_solve``. Because the program's own
client drives the load, client-side changes such as long-polling or
keep-alive reach this workload without editing it.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from repro import PramMachine, shard_and_solve
from repro.bench.workloads import shard_scaling_suite
from repro.obs.report import load_trace
from repro.serve import ServeClient

from perfbench import common, objective, procfs, stats, tracing

N_POINTS = 400
BLOBS = 8
PARAMS = {"k": 8, "shards": 4, "coreset_size": 128, "neighbors": 32}
RATE = 8.0
THREADS = 2
#: Request ``i`` of a run uses seed ``i + 1``; references are recorded for
#: this many seeds, enough for 60 s at :data:`RATE`. Seed 0 is the warm-up.
MAX_REQUESTS = 512
HIT_REQUESTS = 40
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


def make_points(variant: int) -> np.ndarray:
    ((_, points, _),) = shard_scaling_suite(
        variant, sizes=(N_POINTS,), k=PARAMS["k"], n_clusters=BLOBS
    )
    return points


def solve_in_process(points, seed: int):
    """The served solve's in-process twin: same parameters, same seed."""
    return shard_and_solve(
        points, PARAMS["k"], shards=PARAMS["shards"], coreset_size=PARAMS["coreset_size"],
        neighbors=PARAMS["neighbors"], seed=seed, machine=PramMachine(seed=seed),
    )


def reference(variant: int) -> list:
    points = make_points(variant)
    return [
        objective.kmedian_points(points, solve_in_process(points, seed).centers)
        for seed in range(1, MAX_REQUESTS + 1)
    ]


class TimedClient(ServeClient):
    """``ServeClient`` that records the wall time of each HTTP exchange."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list = []

    def raw_request(self, method, path, body=None, *, headers=None):
        t0 = time.perf_counter()
        try:
            return super().raw_request(method, path, body, headers=headers)
        finally:
            self.calls.append((method, path, t0, time.perf_counter()))


class Server:
    """``python -m repro.serve`` in its own session, started and stopped by the benchmark."""

    def __init__(self, workdir, trace_path=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        if trace_path is not None:
            env["REPRO_TRACE"] = str(trace_path)
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            cwd=common.ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True, start_new_session=True,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise

    def _await_listening(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    host, port = line.strip().rsplit("http://", 1)[1].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError(f"server did not come up (exit code {self.proc.poll()})")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self):
        return TimedClient(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        """Shut down over HTTP; escalate to signals; wait for the whole session to end."""
        if self.proc.poll() is None:
            try:
                self.client().shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # unreachable or hung: fall through to signals
                pass
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if self.proc.poll() is not None:
                break
            os.killpg(self.proc.pid, sig)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        self.proc.wait()
        self._await_session_gone()
        self.proc.stdout.close()
        self._log.close()

    def _await_session_gone(self) -> None:
        # the server's pool workers are not our children: poll for them,
        # and kill what is left of the session after a grace period
        grace = time.monotonic() + 10
        deadline = grace + 20
        while True:
            left = [p for p, st in procfs.read_all_stats().items()
                    if st["pgrp"] == self.proc.pid and st["state"] != "Z"]
            if not left:
                return
            now = time.monotonic()
            if now > deadline:
                raise RuntimeError(f"server processes {left} did not exit")
            if now > grace:
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)


def set_up(variant: int, points, workdir, trace_path=None):
    """Server start until ready, instance upload, one warm-up solve; returns ``(server, instance_id, seconds)``."""
    t0 = time.perf_counter()
    server = Server(workdir, trace_path)
    try:
        client = server.client()
        instance_id = client.submit_points(points)["instance_id"]
        client.solve_and_wait(instance_id=instance_id, seed=0, timeout=REQUEST_TIMEOUT_S, **PARAMS)
    except BaseException:
        server.stop()
        raise
    return server, instance_id, time.perf_counter() - t0


def request(server, instance_id, seed: int, due: float) -> dict:
    client = server.client()
    start = time.perf_counter()
    try:
        job = client.solve_and_wait(
            instance_id=instance_id, seed=seed, timeout=REQUEST_TIMEOUT_S, **PARAMS
        )
        error = None
    except Exception as exc:  # refused, failed or timed out: a failed operation
        job, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return {"seed": seed, "due": due, "start": start, "end": end, "job": job,
            "error": error, "calls": client.calls}


def open_loop(server, instance_id, first_seed: int, seconds: float) -> list:
    """Requests due every ``1/RATE`` s for ``seconds``, at most :data:`THREADS` in flight."""
    count = max(int(seconds * RATE), 1)
    if first_seed + count - 1 > MAX_REQUESTS:
        raise ValueError(f"{seconds} s needs seeds past the {MAX_REQUESTS} recorded references")
    t0 = time.perf_counter() + 0.05
    futures = []
    with ThreadPoolExecutor(THREADS) as pool:
        for i in range(count):
            due = t0 + i / RATE
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            futures.append(pool.submit(request, server, instance_id, first_seed + i, due))
        return [f.result() for f in futures]


def metrics_requests_total(server) -> int:
    return int(server.client().metrics()["counters"].get("serve.requests_total", 0))


def check(points, records, refs, tally: common.Tally) -> list:
    """Count failures, check answers; returns the records that succeeded."""
    good = []
    for r in records:
        tally.attempted += 1
        job = r["job"]
        if job is None or job.get("status") != "done":
            tally.op_failed(r["error"] or f"seed {r['seed']}: job {job}")
            continue
        with tally.judging() as verdict:
            result = job["result"]
            centers = np.asarray(result["centers"])
            if tally.check(
                0 < centers.size <= PARAMS["k"] and np.unique(centers).size == centers.size,
                f"seed {r['seed']}: centres {result['centers']}",
            ):
                cost = objective.kmedian_points(points, centers)
                tally.check(objective.agrees(cost, result["true_cost"]),
                            f"seed {r['seed']}: true_cost {result['true_cost']!r} but recomputed {cost!r}")
                tally.ratios.append(cost / refs[r["seed"] - 1])
        if verdict.ok:
            good.append(r)
    return good


def check_identity(points, record, tally: common.Tally):
    """One served answer must be byte-identical to the in-process solve."""
    sol = solve_in_process(points, record["seed"])
    result = record["job"]["result"]
    served = (result["centers"], result["cost"], result["true_cost"], result["movement"])
    local = ([int(c) for c in np.sort(sol.centers)], float(sol.cost), float(sol.true_cost), float(sol.movement))
    tally.check(served == local, f"seed {record['seed']}: served {served} != in-process {local}")
    return sol


def latency(record) -> float:
    """Seconds from when the request was due to its answer: a late start counts."""
    return record["end"] - record["due"]


def lateness(records) -> dict:
    late = [r["start"] - r["due"] for r in records]
    return {"p50": stats.median(late), "max": max(late)}


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    variant = common.variant_of(seed)
    refs = common.load_references("serve-fresh")[variant]
    points = make_points(variant)
    tally = common.Tally()
    setups = []
    server = None
    try:
        for rep in range(common.SETUP_REPS):
            server, instance_id, took = set_up(variant, points, workdir)
            setups.append(took)
            if rep < common.SETUP_REPS - 1:
                server.stop()

        steal0 = procfs.steal_ticks()
        cpu0 = procfs.tree_cpu_ticks(server.pid)
        plain = open_loop(server, instance_id, 1, seconds / 2 if trace else seconds)
        cpu = (procfs.tree_cpu_ticks(server.pid) - cpu0) / procfs.CLK_TCK
        peak_rss = procfs.tree_peak_rss_mib(server.pid)
        steal = procfs.steal_ticks() - steal0
        server.stop()
        server = None

        traced, hits, events, requests_per_solve = [], [], [], 0.0
        if trace:
            trace_path = os.path.join(workdir, "serve-trace.jsonl")
            server, instance_id, _ = set_up(variant, points, workdir, trace_path)
            before = metrics_requests_total(server)
            t_lo = time.perf_counter()
            traced = open_loop(server, instance_id, len(plain) + 1, seconds / 2)
            t_hi = time.perf_counter()
            # the first metrics GET is counted once the second one reads the counter
            requests_per_solve = (metrics_requests_total(server) - before - 1) / len(traced)
            solved = [r for r in traced if r["job"] is not None][:HIT_REQUESTS]
            hits = [request(server, instance_id, r["seed"], time.perf_counter()) for r in solved]
            server.stop()
            server = None
            events = [e for e in load_trace(trace_path)
                      if e.get("ph") != "X" or t_lo * 1e6 <= e["ts"] <= t_hi * 1e6]
    finally:
        if server is not None:
            server.stop()

    good = check(points, plain, refs, tally)
    good_traced = check(points, traced, refs, tally)
    identity = check_identity(points, good[0], tally) if good else None
    for r in hits:
        tally.check(r["job"] is not None and r["job"].get("cached") is True,
                    f"seed {r['seed']}: repeated request was not served from the cache")

    latencies = [latency(r) for r in good]
    record = {
        "tally": tally,
        "end_to_end": common.end_to_end(latencies, [cpu / max(len(plain), 1)], tally, setups, peak_rss),
        "per_layer": {},
        "diagnostics": {
            "steal_ticks": steal,
            "ops": len(plain),
            "setup_s": setups,
            "generator_lateness_s": lateness(plain),
            "latency_tails_s": stats.tails(latencies),
            "cache_hits_in_load": sum(bool(r["job"]["cached"]) for r in good),
        },
    }
    if trace and good_traced and identity is not None:
        n = len(good_traced)
        layers = common.trace_layers(events, n)
        solve_span_s = tracing.total_s(events, "serve.solve", "serve") / n
        layers["shard.stage_coverage"] = common.stage_share(layers, solve_span_s)
        walls = [r["job"]["wall_s"] for r in good_traced]
        solves = [r["job"]["result"]["solve_s"] for r in good_traced]
        submits = [r["calls"][0][3] - r["calls"][0][2] for r in good_traced if r["calls"]]
        layers["serve.submit_s"] = stats.median(submits) if submits else 0.0
        layers["serve.requests_per_solve"] = requests_per_solve
        layers["serve.queue_wait_s"] = stats.median([w - s for w, s in zip(walls, solves)])
        layers["serve.solve_s"] = stats.median(solves)
        layers["serve.edge_s"] = stats.median([r["end"] - r["start"] - w for r, w in zip(good_traced, walls)])
        layers["serve.hit_latency_s"] = stats.median([r["end"] - r["start"] for r in hits]) if hits else 0.0
        layers["pram.work"] = identity.model_costs.work
        layers["pram.depth"] = identity.model_costs.depth
        layers["obs.trace_overhead"] = (
            stats.median([latency(r) for r in good_traced]) / stats.median(latencies) - 1
        )
        record["per_layer"] = layers
        record["diagnostics"]["traced_ops"] = n
        record["diagnostics"]["traced_generator_lateness_s"] = lateness(traced)
        record["events"] = events
    return record
