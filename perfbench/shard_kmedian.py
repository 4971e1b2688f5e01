"""Workload ``shard-kmedian``: sequential ``shard_and_solve`` k-median calls.

One caller solves the 250k-point, 64-blob cloud of
``repro.bench.workloads.shard_scaling_suite`` (k=32, 16 shards, coreset
512 per shard, 64 neighbours) on a 2-worker process pool, the
configuration behind the 250k scale target. Coreset seeding dominates
the solve and the merged local search dispatches every PRAM primitive
through the pool, so both shard-pipeline and primitive-executor changes
show here.
"""

from __future__ import annotations

import os
import time

import numpy as np
from repro import PramMachine, ProcessBackend, shard_and_solve
from repro.bench.workloads import shard_scaling_suite
from repro.obs import set_tracer

from perfbench import common, objective, procfs, stats, tracing

N_POINTS = 250_000
K = 32
SHARDS = 16
CORESET = 512
NEIGHBORS = 64
WORKERS = 2
#: The warm-up call forks the pool and runs every code path once, on a
#: slice small enough that it costs a fraction of a real solve.
WARM_POINTS = 4096
WARM_CORESET = 32


def make_points(variant: int) -> np.ndarray:
    ((_, points, _),) = shard_scaling_suite(variant, sizes=(N_POINTS,), k=K)
    return points


def solve(points, backend, seed: int, *, tracer=None, coreset: int = CORESET):
    machine = PramMachine(backend=backend, seed=seed, tracer=tracer)
    return shard_and_solve(
        points, K, shards=SHARDS, coreset_size=coreset, neighbors=NEIGHBORS,
        solver="kmedian", seed=seed, machine=machine,
    )


def setup(variant: int):
    """Input generation, pool start and one warm-up call; returns ``(points, backend, seconds)``."""
    t0 = time.perf_counter()
    points = make_points(variant)
    backend = ProcessBackend(WORKERS)
    solve(points[:WARM_POINTS], backend, variant, coreset=WARM_CORESET)
    return points, backend, time.perf_counter() - t0


def reference(variant: int) -> float:
    points, backend, _ = setup(variant)
    try:
        return objective.kmedian_points(points, solve(points, backend, variant).centers)
    finally:
        backend.close()


def check(sol, points, ref: float, first, tally: common.Tally) -> None:
    """Recompute the objective, check the k-median sandwich and determinism."""
    centers = np.asarray(sol.centers)
    if not tally.check(
        centers.size <= K and np.unique(centers).size == centers.size,
        f"{centers.size} centres returned for k={K}, or duplicates",
    ):
        return
    cost = objective.kmedian_points(points, centers)
    tally.check(objective.agrees(cost, sol.true_cost),
                f"true_cost {sol.true_cost!r} but recomputed {cost!r}")
    bound = sol.extra["merged_cost_exact"] + sol.movement
    tally.check(sol.true_cost <= bound * (1 + 1e-9),
                f"sandwich broken: true_cost {sol.true_cost!r} > merged_cost_exact + movement {bound!r}")
    if first is not None:
        tally.check(np.array_equal(centers, first.centers), "repeated identical call changed the answer")
    tally.ratios.append(cost / ref)


def run(seed: int, seconds: float, trace: bool) -> dict:
    variant = common.variant_of(seed)
    ref = common.load_references("shard-kmedian")[variant]
    tally = common.Tally()
    setups = []
    for rep in range(common.SETUP_REPS):
        if rep == common.SETUP_REPS - 1:
            procfs.reset_peak_rss(os.getpid())
        points, backend, took = setup(variant)
        setups.append(took)
        if rep < common.SETUP_REPS - 1:
            backend.close()

    def op(tracer=None):
        tally.attempted += 1
        try:
            if tracer is None:
                return solve(points, backend, variant)
            with tracer.span("bench.op", "bench"):
                return solve(points, backend, variant, tracer=tracer)
        except Exception as exc:  # a failed solve is counted, not fatal
            tally.op_failed(f"{type(exc).__name__}: {exc}")
            return None

    steal0 = procfs.steal_ticks()
    try:
        plain = common.measure_ops(seconds / 2 if trace else seconds, op)
        peak_rss = procfs.tree_peak_rss_mib(os.getpid())
        traced, events = [], []
        if trace:
            tracer = tracing.MemoryTracer()
            set_tracer(tracer)  # backend batch spans follow the process-wide tracer
            try:
                traced = common.measure_ops(seconds / 2, lambda: op(tracer))
            finally:
                set_tracer(None)
            events = tracer.events
    finally:
        backend.close()
    steal = procfs.steal_ticks() - steal0

    sols = []
    for _, _, sol in plain + traced:
        if sol is not None:
            with tally.judging():
                check(sol, points, ref, sols[0] if sols else None, tally)
            sols.append(sol)

    plain = [(w, c, sol) for w, c, sol in plain if sol is not None]
    traced = [(w, c, sol) for w, c, sol in traced if sol is not None]
    latencies = [w for w, _, _ in plain]
    record = {
        "tally": tally,
        "end_to_end": common.end_to_end(latencies, [c for _, c, _ in plain], tally, setups, peak_rss),
        "per_layer": {},
        "diagnostics": {
            "steal_ticks": steal,
            "ops": len(plain),
            "latency_s": latencies,
            "cpu_s": [c for _, c, _ in plain],
            "setup_s": setups,
        },
    }
    if trace and traced:
        layers = common.trace_layers(events, len(traced))
        op_s = tracing.total_s(events, "bench.op", "bench") / len(traced)
        layers["shard.stage_coverage"] = common.stage_share(layers, op_s)
        costs = sols[-1].model_costs
        layers["pram.work"] = costs.work
        layers["pram.depth"] = costs.depth
        layers["obs.trace_overhead"] = stats.median([w for w, _, _ in traced]) / stats.median(latencies) - 1
        record["per_layer"] = layers
        record["diagnostics"]["traced_ops"] = len(traced)
        record["events"] = events
    return record
