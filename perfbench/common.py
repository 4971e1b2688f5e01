"""Pieces shared by the workloads: metric names, seeds, the run record."""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from perfbench import procfs, stats, tracing

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

#: ``--seed`` selects one of this many input variants (``seed % VARIANTS``);
#: each has reference objectives recorded in ``references.json``.
#: ``paper-solvers`` solves several variants per run and has its own count.
VARIANTS = 16
#: A seed to confirm a claim on that was not used while developing it
#: (``run.py`` defaults to seed 1).
HELD_OUT_SEED = 11

#: Set-up is repeated this many times per run and its median reported;
#: ``peak_rss_mib`` covers the last set-up and the measured operations.
SETUP_REPS = 3

#: Program environment variables removed before every run, so a stray
#: backend, kernel, tracing, logging or fault setting cannot leak in.
STRIPPED_ENV = (
    "REPRO_BACKEND",
    "REPRO_NUM_WORKERS",
    "REPRO_GRAIN",
    "REPRO_KERNELS",
    "REPRO_TRACE",
    "REPRO_LOG",
    "REPRO_FAULT_PLAN",
)

END_TO_END = {
    "latency_p50_s": "s",
    "cpu_s": "s",
    "objective_rel": "ratio",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

SHARD_STAGES = ("partition", "coreset", "merge", "solve", "true_cost")
PRIMITIVES = ("take_rows", "map", "segmented_argmin", "scatter_add", "segmented_reduce", "where")
SUITE = (
    "greedy.dense", "greedy.knn", "primal_dual.dense", "primal_dual.knn",
    "kcenter.dense", "kcenter.knn", "kmedian.dense", "kmedian.knn", "lagrangian.dense",
)
BUILDERS = ("euclidean_instance", "knn_instance", "euclidean_clustering", "knn_clustering_instance")
LAYERS = ("bench", "core", "shard", "pram", "backend", "serve")


def _per_layer() -> dict:
    out = {f"shard.{s}_s": "s" for s in SHARD_STAGES}
    out["shard.stage_coverage"] = "ratio"
    for p in PRIMITIVES:
        out[f"pram.{p}_s"] = "s"
        out[f"pram.{p}_calls"] = "count"
    out.update({
        "pram.work": "count", "pram.depth": "count",
        "backend.batch_tasks": "count", "backend.exec_s": "s", "backend.queue_wait_s": "s",
    })
    for name in SUITE:
        out[f"core.{name}_s"] = "s"
        out[f"core.{name}_rounds"] = "count"
    out.update({
        "serve.submit_s": "s", "serve.requests_per_solve": "count",
        "serve.queue_wait_s": "s", "serve.solve_s": "s", "serve.edge_s": "s",
        "serve.hit_latency_s": "s",
    })
    out.update({f"metrics.{b}_s": "s" for b in BUILDERS})
    out.update({f"self.{layer}_s": "s" for layer in LAYERS})
    out["obs.trace_overhead"] = "ratio"
    return out


#: Every per-layer metric a traced run reports, with its unit. A layer
#: that does no work in a workload reports 0 there.
PER_LAYER = _per_layer()


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def load_references(workload: str):
    with open(REFERENCES) as fh:
        return json.load(fh)[workload]


class Tally:
    """Operations attempted and failed, and the checks that found wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.errors: list = []
        self.ratios: list = []

    def op_failed(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.wrong.append(message)
        return ok

    @contextmanager
    def judging(self):
        """Checks of one operation's output: the operation counts as
        failed when any of them fails. Yields a verdict with ``.ok``."""
        verdict = SimpleNamespace(ok=True)
        before = len(self.wrong)
        yield verdict
        if len(self.wrong) > before:
            verdict.ok = False
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.wrong


def measure_ops(seconds: float, op) -> list:
    """Call ``op()`` back to back until ``seconds`` have passed (at least once).

    Returns ``(wall_s, cpu_s, value)`` per call; wall and CPU cover
    ``op`` alone, CPU over this process tree.
    """
    out = []
    me = os.getpid()
    t_end = time.perf_counter() + seconds
    while not out or time.perf_counter() < t_end:
        c0 = procfs.tree_cpu_ticks(me)
        t0 = time.perf_counter()
        value = op()
        wall = time.perf_counter() - t0
        out.append((wall, (procfs.tree_cpu_ticks(me) - c0) / procfs.CLK_TCK, value))
    return out


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": int(seed),
        "variant": variant_of(seed),
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(latencies, cpus, tally: Tally, setups, peak_rss_mib) -> dict:
    ratios = tally.ratios
    return {
        "latency_p50_s": stats.median(latencies) if latencies else float("nan"),
        "cpu_s": stats.median(cpus) if cpus else float("nan"),
        "objective_rel": stats.geomean(ratios) if ratios else float("nan"),
        "success_rate": (tally.attempted - tally.failed) / max(tally.attempted, 1),
        "setup_s": stats.median(setups),
        "peak_rss_mib": peak_rss_mib,
    }


def trace_layers(events, ops: int) -> dict:
    """Per-operation shard, pram, backend and self-time metrics from trace events."""
    out = {}
    for stage in SHARD_STAGES:
        out[f"shard.{stage}_s"] = tracing.total_s(events, f"shard.{stage}", "shard") / ops
    for p in PRIMITIVES:
        prim = tracing.spans(events, p, "pram")
        out[f"pram.{p}_s"] = sum(e["dur"] for e in prim) / 1e6 / ops
        out[f"pram.{p}_calls"] = len(prim) / ops
    execs = tracing.spans(events, "exec", "backend")
    out["backend.batch_tasks"] = len(execs) / ops
    out["backend.exec_s"] = sum(e["dur"] for e in execs) / 1e6 / ops
    out["backend.queue_wait_s"] = tracing.total_s(events, "queue_wait", "backend") / ops
    selfs = tracing.self_time_by_layer(events)
    for layer in LAYERS:
        out[f"self.{layer}_s"] = selfs.get(layer, 0.0) / ops
    return out


def stage_share(layers: dict, seconds: float) -> float:
    """Share of ``seconds`` (per operation) that the five shard stages cover."""
    return sum(layers[f"shard.{s}_s"] for s in SHARD_STAGES) / seconds


def finish(record: dict, trace: bool) -> dict:
    """The JSON object a run prints last, built from its run record."""
    names = PER_LAYER if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    tally: Tally = record["tally"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in names.items()}
    return {
        "correct": tally.correct,
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": metrics,
    }
