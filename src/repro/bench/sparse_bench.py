"""Sparse-vs-dense bench: peak memory and wall-clock across the scale axis.

Six tiers, one JSON report (committed as ``BENCH_PR3.json`` /
``BENCH_PR4.json`` / ``BENCH_PR5.json`` / ``BENCH_PR6.json``):

* **overlap** — facility-location sizes where the dense path still
  fits: the same seeded geometry is solved by the dense path and by
  the sparse path on its k-NN truncation. Records wall-clock (min over ``repeats``), solve-phase
  peak memory (tracemalloc), ledger work, and both objectives (plus the
  dense objective of the sparse solution, so the truncation error is
  visible).
* **sparse_scaling** — the ``sparse_scaling_suite`` k-NN instances
  (10k/30k/100k clients by default). For each entry the report records
  the bytes the dense matrix *would* need; tiers over ``--budget-gib``
  are marked ``dense_feasible: false`` and never attempted — that
  marker is the acceptance evidence that the sparse subsystem solves
  instances the dense path cannot hold.
* **clustering_overlap** — the §6.1/§7 clustering solvers, dense vs
  kNN-truncated sparse on the same geometry (PR 4).
* **clustering_scaling** — ``sparse_clustering_suite`` kNN instances up
  to 100k nodes (dense would need 80 GB), k-center + warm-started
  k-median local search on the sparse paths only.
* **shard_scaling** — raw point clouds (250k/1M by default) through
  ``repro.shard.shard_and_solve`` k-median (PR 5). Both the dense
  matrix *and* the single full-point kNN CSR structure are costed
  against ``--budget-gib``; tiers where both are infeasible are the
  scales only the shard-and-conquer pipeline reaches.
* **fault_recovery** — the 250k shard workload re-run on a real process
  pool with one injected worker crash (PR 6): supervised retry must
  reproduce the unfailed run byte-identically at ≤ ~10% wall-clock
  overhead, and degraded-mode drop (retries disabled) must return a
  coverage-accounted widened certificate in under 2× the unfailed
  wall clock.
* **shard_scaling, out-of-core tier** (PR 7) — a 10M-point cloud
  through ``shard_and_solve(..., spill_dir=...)`` on a real process
  pool: partitioned blocks spill to a :class:`repro.shard.ShardStore`
  and every downstream pass streams one shard at a time. Records
  wall-clock and driver **peak RSS** (``/proc/self/status`` VmRSS,
  sampled) alongside the resident 250k/1M tiers — the acceptance
  evidence that the 10M tier completes and the driver's residency
  stays far below the dataset footprint.
* **serving** (PR 9) — the :mod:`repro.serve` loadgen against a live
  thread-hosted server on a real process backend: fresh-solve
  throughput/p50/p99 over concurrent clients, the result-cache speedup
  on repeated identical requests, and a crash-injected server checked
  byte-identical against a clean one through HTTP.

Per-round traces are stored as **summary stats** (count/total/first/
last/median work per round), never as raw per-round sample lists, so
the committed JSON stays small at any scale::

    PYTHONPATH=src python -m repro.bench.sparse_bench --out BENCH_PR4.json
    PYTHONPATH=src python -m repro.bench.sparse_bench --fast   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
import tracemalloc

import numpy as np

from repro.bench.reporting import summarize_rounds
from repro.bench.workloads import (
    shard_scaling_suite,
    sparse_clustering_suite,
    sparse_scaling_suite,
)
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.local_search import parallel_kmedian
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.generators import euclidean_clustering, euclidean_instance
from repro.metrics.sparse import knn_sparsify
from repro.obs.rss import rss_mib as _rss_mib  # noqa: F401  (bench-module API)
from repro.obs.rss import run_with_peak_rss as _run_with_peak_rss
from repro.pram.machine import PramMachine

_ALGORITHMS = {
    "parallel_greedy": (parallel_greedy, "greedy_outer"),
    "parallel_primal_dual": (parallel_primal_dual, "pd_iterations"),
}


def _measure(algorithm: str, instance, *, epsilon: float, seed: int, repeats: int) -> dict:
    """Seeded solve: min wall-clock over ``repeats`` plus one traced
    pass for solve-phase peak memory (tracemalloc slows execution, so
    the memory pass is separate and untimed)."""
    fn, label = _ALGORITHMS[algorithm]
    best_wall = float("inf")
    measure = None
    for _ in range(max(int(repeats), 1)):
        machine = PramMachine(seed=seed)
        t0 = time.perf_counter()
        sol = fn(instance, epsilon=epsilon, machine=machine)
        wall = time.perf_counter() - t0
        if wall >= best_wall:
            continue
        best_wall = wall
        ledger = machine.ledger
        measure = {
            "wall_s": wall,
            "ledger_work": ledger.work,
            "ledger_depth": ledger.depth,
            "cost": sol.cost,
            "opened": int(sol.opened.size),
            "rounds": summarize_rounds(ledger.round_log, label, ledger.work),
            "opened_idx": sol.opened,
        }
    tracemalloc.start()
    fn(instance, epsilon=epsilon, machine=PramMachine(seed=seed))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    measure["peak_mib"] = peak / 2**20
    return measure


def _strip(measure: dict) -> dict:
    out = dict(measure)
    out.pop("opened_idx", None)
    return out


def _measure_clustering(
    instance, *, epsilon: float, seed: int, repeats: int, trace_memory: bool = True
) -> dict:
    """Seeded k-center + warm-started k-median solve on one instance.

    k-center wall is min over ``repeats``; k-median runs once (its
    round count dwarfs repeat noise) warm-started from the k-center
    centers so the pair shares one bottleneck search. The memory pass
    re-runs k-center under tracemalloc (skippable at the 100k tier,
    where tracing a multi-minute local search would distort it).
    """
    best_wall = float("inf")
    out: dict = {}
    kc_centers = None
    for _ in range(max(int(repeats), 1)):
        machine = PramMachine(seed=seed)
        t0 = time.perf_counter()
        kc = parallel_kcenter(instance, machine=machine)
        wall = time.perf_counter() - t0
        if wall >= best_wall:
            continue
        best_wall = wall
        kc_centers = kc.centers
        ledger = machine.ledger
        out["kcenter"] = {
            "wall_s": wall,
            "ledger_work": ledger.work,
            "ledger_depth": ledger.depth,
            "cost": kc.cost,
            "centers": int(kc.centers.size),
            "probes": kc.extra["probes"],
            "n_thresholds": kc.extra["n_thresholds"],
            "rounds": summarize_rounds(ledger.round_log, "kcenter_probe", ledger.work),
        }
    machine = PramMachine(seed=seed)
    t0 = time.perf_counter()
    km = parallel_kmedian(
        instance, epsilon=epsilon, machine=machine, initial=kc_centers
    )
    wall = time.perf_counter() - t0
    ledger = machine.ledger
    out["kmedian"] = {
        "wall_s": wall,
        "ledger_work": ledger.work,
        "ledger_depth": ledger.depth,
        "cost": km.cost,
        "initial_cost": km.extra["initial_cost"],
        "swap_rounds": km.rounds["local_search"],
        "rounds": summarize_rounds(ledger.round_log, "local_search", ledger.work),
        "centers_idx": km.centers,
    }
    if trace_memory:
        tracemalloc.start()
        parallel_kcenter(instance, machine=PramMachine(seed=seed))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out["kcenter"]["peak_mib"] = peak / 2**20
    return out


def _strip_clustering(measure: dict) -> dict:
    out = {key: dict(val) for key, val in measure.items()}
    out["kmedian"].pop("centers_idx", None)
    return out


def _measure_shard(
    points, k, *, shards, coreset_size, neighbors, epsilon, seed, backend, trace_memory
) -> dict:
    """One shard-and-conquer k-median solve: wall-clock, ledger work,
    true vs merged objective, movement, and (optionally) peak memory."""
    from repro.shard import shard_and_solve

    t0 = time.perf_counter()
    sol = shard_and_solve(
        points, k, shards=shards, coreset_size=coreset_size, neighbors=neighbors,
        solver="kmedian", epsilon=epsilon, seed=seed, backend=backend,
    )
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "ledger_work": sol.model_costs.work,
        "ledger_depth": sol.model_costs.depth,
        "cost_merged": sol.cost,
        "cost_true": sol.true_cost,
        "movement": sol.movement,
        "merged_n": sol.extra["merged_n"],
        "merged_nnz": sol.extra["merged_nnz"],
        "centers": int(sol.centers.size),
        "swap_rounds": int(sol.rounds.get("local_search", 0)),
        "bound": sol.bound.statement if sol.bound else None,
    }
    if trace_memory:
        tracemalloc.start()
        shard_and_solve(
            points, k, shards=shards, coreset_size=coreset_size, neighbors=neighbors,
            solver="kmedian", epsilon=epsilon, seed=seed, backend=backend,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out["peak_mib"] = peak / 2**20
    return out


# RSS sampling lives in repro.obs.rss (imported above as _rss_mib /
# _run_with_peak_rss, the historical private names).


def _measure_shard_store(
    points, k, *, shards, coreset_size, neighbors, epsilon, seed, workers
) -> dict:
    """One out-of-core shard solve on a real process pool: the blocks
    spill to a ShardStore and the driver streams them, so the recorded
    peak RSS is the out-of-core residency claim."""
    import shutil
    import tempfile

    from repro.pram.backends import ProcessBackend
    from repro.pram.machine import PramMachine
    from repro.shard import shard_and_solve

    spill_dir = tempfile.mkdtemp(prefix="repro-shard-store-")
    try:
        with ProcessBackend(workers) as backend:
            machine = PramMachine(backend=backend, seed=seed)
            sol, wall, peak_rss = _run_with_peak_rss(
                lambda: shard_and_solve(
                    points, k, shards=shards, coreset_size=coreset_size,
                    neighbors=neighbors, solver="kmedian", epsilon=epsilon,
                    seed=seed, machine=machine, spill_dir=spill_dir,
                )
            )
        store_bytes = sum(
            os.path.getsize(os.path.join(spill_dir, f))
            for f in os.listdir(spill_dir)
        )
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "peak_rss_mib": peak_rss,
        "store_bytes": int(store_bytes),
        "points_bytes": int(points.nbytes),
        "workers": int(workers),
        "ledger_work": sol.model_costs.work,
        "ledger_depth": sol.model_costs.depth,
        "cost_merged": sol.cost,
        "cost_true": sol.true_cost,
        "movement": sol.movement,
        "merged_n": sol.extra["merged_n"],
        "merged_nnz": sol.extra["merged_nnz"],
        "centers": int(sol.centers.size),
        "swap_rounds": int(sol.rounds.get("local_search", 0)),
        "bound": sol.bound.statement if sol.bound else None,
    }


def _measure_fault_recovery(
    points, k, *, shards, coreset_size, neighbors, epsilon, seed, workers, repeats
) -> dict:
    """Clean vs crash-retried vs degraded shard solve on a real process
    pool: the retry overhead and drop ratio the PR 6 acceptance pins."""
    from repro.faults import NO_RETRY, FaultPlan, RetryPolicy
    from repro.pram.backends import ProcessBackend
    from repro.pram.machine import PramMachine
    from repro.shard import shard_and_solve

    kw = dict(
        shards=shards, coreset_size=coreset_size, neighbors=neighbors,
        solver="kmedian", epsilon=epsilon, seed=seed,
    )
    crash_shard = shards // 2
    fast_retry = RetryPolicy(base_delay=0.0, jitter=0.0)
    # None = size to the host like every other pool in the repo, but
    # keep a *real* pool (ProcessBackend(1) runs serially and would
    # only simulate the crash). Oversubscribing a small host inflates
    # retry overhead artificially: each extra in-flight worker loses
    # its partial shard build when the crashed worker breaks the pool.
    if workers is None:
        workers = min(4, max(2, os.cpu_count() or 1))
    with ProcessBackend(workers) as backend:
        def solve(**extra):
            machine = PramMachine(backend=backend, seed=seed)
            t0 = time.perf_counter()
            sol = shard_and_solve(points, k, machine=machine, **kw, **extra)
            return sol, time.perf_counter() - t0

        def best_of(**extra):
            # min over repeats for every variant alike — the faulted
            # runs deserve the same noise treatment as the clean one.
            best_sol, best_wall = None, float("inf")
            for _ in range(max(int(repeats), 1)):
                sol, wall = solve(**extra)
                if wall < best_wall:
                    best_sol, best_wall = sol, wall
            return best_sol, best_wall

        base, base_wall = best_of()
        retried, retry_wall = best_of(
            on_shard_failure="retry",
            fault_plan=FaultPlan.single("crash", crash_shard),
            retry_policy=fast_retry,
        )
        dropped, drop_wall = best_of(
            on_shard_failure="drop",
            fault_plan=FaultPlan.single("crash", crash_shard, attempt=None),
            retry_policy=NO_RETRY,
        )
    sandwich_rhs = (
        dropped.extra["merged_cost_exact"] + dropped.movement
        + dropped.extra["dropped_movement"] + dropped.extra["dropped_rep_service"]
    )
    return {
        "n": int(points.shape[0]),
        "k": int(k),
        "shards": int(shards),
        "workers": int(workers),
        "crash_shard": int(crash_shard),
        "base_wall_s": base_wall,
        "retry_wall_s": retry_wall,
        "retry_overhead": retry_wall / max(base_wall, 1e-12) - 1.0,
        "retry_byte_identical": bool(
            np.array_equal(retried.centers, base.centers)
            and retried.cost == base.cost
            and retried.true_cost == base.true_cost
            and retried.movement == base.movement
        ),
        "drop_wall_s": drop_wall,
        "drop_ratio": drop_wall / max(base_wall, 1e-12),
        "drop_degraded": bool(dropped.degraded),
        "drop_failed_shards": [int(s) for s in dropped.failed_shards],
        "drop_covered_weight_fraction": float(dropped.covered_weight_fraction),
        "drop_cost_true": float(dropped.true_cost),
        "drop_certificate_valid": bool(
            dropped.true_cost <= sandwich_rhs * (1.0 + 1e-9)
        ),
        "base_cost_true": float(base.true_cost),
        "bound_clean": base.bound.statement if base.bound else None,
        "bound_degraded": dropped.bound.statement if dropped.bound else None,
    }


def _measure_serving(
    *,
    n,
    dim,
    k,
    shards,
    coreset_size,
    neighbors,
    clients,
    requests,
    cache_requests,
    workers,
    backend,
    backend_workers,
    seed,
) -> dict:
    """The serving tier (PR 9): loadgen against a thread-hosted server.

    Three legs on one report entry: a **fresh** run (every request a
    distinct seed, so each exercises the full queue → worker → solver
    path), a **cached** run (one warmed identical request repeated —
    the result-cache speedup claim), and a **fault** leg (a clean server
    vs one with an injected worker crash must return byte-identical
    solutions through HTTP, the PR 6 contract surviving the wire).
    """
    from repro.faults.plan import FaultPlan
    from repro.obs import SloTarget, trace_to
    from repro.serve import ServeClient, ServerConfig, serve_in_thread
    from repro.serve.loadgen import run_loadgen

    solve_params = {
        "shards": int(shards),
        "coreset_size": int(coreset_size),
        "neighbors": int(neighbors),
    }
    out = {
        "n": int(n), "dim": int(dim), "k": int(k), "clients": int(clients),
        "requests": int(requests), "workers": int(workers), "backend": backend,
        **solve_params,
    }
    # A deliberately generous SLO: the point is to exercise and report
    # the evaluator's verdict over a real run, not to fail the bench on
    # machine noise.
    slo_target = SloTarget(
        p99_latency_s=60.0, max_error_rate=0.5, window_s=600.0, min_samples=5
    )
    config = ServerConfig(
        backend=backend, workers=workers, backend_workers=backend_workers,
        slo=slo_target,
    )
    with serve_in_thread(config) as handle:
        out["fresh"] = run_loadgen(
            handle.host, handle.port, clients=clients, requests=requests,
            n=n, dim=dim, k=k, seed=seed, solve_params=solve_params,
        )
        # Cache leg: warm one identical request, then every repeat must
        # be served from the result cache (distinct seed => distinct
        # instance+key space from the fresh leg).
        client = ServeClient(handle.host, handle.port)
        cache_seed = int(seed) + 1_000_000
        pts = np.random.default_rng(cache_seed).normal(size=(int(n), int(dim)))
        client.solve_and_wait(points=pts, k=k, seed=cache_seed, **solve_params)
        out["cached"] = run_loadgen(
            handle.host, handle.port, clients=clients, requests=cache_requests,
            n=n, dim=dim, k=k, seed=cache_seed, identical=True,
            solve_params=solve_params,
        )
        counters = client.metrics()["counters"]
        health_status, health = client.raw_request("GET", "/health")
        out["slo"] = {
            "target": slo_target.to_json(),
            "health_status": int(health_status),
            **health.get("slo", {}),
        }
    out["cache_speedup"] = out["fresh"]["time_per_request_s"] / max(
        out["cached"]["time_per_request_s"], 1e-12
    )
    out["result_cache_hits"] = int(counters.get("serve.result_cache_hits", 0))
    out["jobs_completed"] = int(counters.get("serve.jobs_completed", 0))

    # Tracing-on overhead (PR 10): the same small loadgen leg against an
    # untraced and a traced server; both sides of the wire share the
    # in-process tracer, so the traced number carries the full
    # trace-context propagation + span-emission cost.
    overhead_requests = max(min(int(requests) // 4, 16), 8)

    def _overhead_leg(tracing: bool) -> float:
        cfg = ServerConfig(
            backend=backend, workers=workers, backend_workers=backend_workers
        )
        if tracing:
            trace_path = os.path.join(
                tempfile.mkdtemp(prefix="bench-trace-"), "trace.jsonl"
            )
            with trace_to(trace_path):
                with serve_in_thread(cfg) as h:
                    rep = run_loadgen(
                        h.host, h.port, clients=clients,
                        requests=overhead_requests, n=n, dim=dim, k=k,
                        seed=int(seed) + 2_000_000, solve_params=solve_params,
                    )
        else:
            with serve_in_thread(cfg) as h:
                rep = run_loadgen(
                    h.host, h.port, clients=clients,
                    requests=overhead_requests, n=n, dim=dim, k=k,
                    seed=int(seed) + 2_000_000, solve_params=solve_params,
                )
        return float(rep["time_per_request_s"])

    untraced_s = _overhead_leg(False)
    traced_s = _overhead_leg(True)
    out["tracing_overhead"] = {
        "requests": int(overhead_requests),
        "untraced_time_per_request_s": untraced_s,
        "traced_time_per_request_s": traced_s,
        "overhead": traced_s / max(untraced_s, 1e-12) - 1.0,
    }

    def _served_solution(extra):
        cfg = ServerConfig(
            backend=backend, workers=1, backend_workers=backend_workers, **extra
        )
        with serve_in_thread(cfg) as h:
            job = ServeClient(h.host, h.port).solve_and_wait(
                points=pts, k=k, seed=cache_seed, **solve_params
            )
        result = dict(job["result"])
        result.pop("solve_s", None)  # wall clock, outside the identity claim
        return result

    clean = _served_solution({})
    crashed = _served_solution(
        {"fault_plan": FaultPlan.single("crash", int(shards) // 2)}
    )
    out["fault"] = {
        "kind": "crash",
        "crash_shard": int(shards) // 2,
        "byte_identical": bool(
            json.dumps(clean, sort_keys=True) == json.dumps(crashed, sort_keys=True)
        ),
        "cost_true": clean["true_cost"],
    }
    return out


def run_sparse_bench(
    *,
    overlap_sizes=(1500, 3000),
    scaling_sizes=(10_000, 30_000, 100_000),
    k: int = 8,
    facility_ratio: float = 0.1,
    epsilon: float = 0.2,
    seed: int = 0,
    machine_seed: int = 1,
    repeats: int = 2,
    budget_gib: float = 2.0,
    algorithms=("parallel_greedy", "parallel_primal_dual"),
    clustering_overlap_sizes=(600, 1200),
    clustering_scaling_sizes=(10_000, 30_000, 100_000),
    clustering_overlap_k: int = 8,
    clustering_overlap_neighbors: int = 96,
    clustering_neighbors: int = 64,
    clustering_k_ratio: float = 0.02,
    clustering_epsilon: float = 0.5,
    shard_sizes=(250_000, 1_000_000),
    shard_k: int = 32,
    shard_shards: int = 16,
    shard_coreset_size: int = 512,
    shard_neighbors: int = 64,
    shard_backend=None,
    fault_sizes=(250_000,),
    fault_workers: int | None = None,
    shard_store_sizes=(10_000_000,),
    shard_store_workers: int | None = None,
    serving_n: int = 400,
    serving_dim: int = 2,
    serving_k: int = 8,
    serving_shards: int = 4,
    serving_coreset_size: int = 128,
    serving_neighbors: int = 32,
    serving_clients: int = 4,
    serving_requests: int = 60,
    serving_cache_requests: int = 20,
    serving_workers: int = 2,
    serving_backend: str = "process",
    serving_backend_workers: int | None = None,
) -> dict:
    """Run all six tiers and return the report dict (module docstring)."""
    report = {
        "meta": {
            "k": k,
            "facility_ratio": facility_ratio,
            "epsilon": epsilon,
            "seed": seed,
            "machine_seed": machine_seed,
            "repeats": repeats,
            "budget_gib": budget_gib,
            "overlap_sizes": list(overlap_sizes),
            "scaling_sizes": list(scaling_sizes),
            "clustering_overlap_sizes": list(clustering_overlap_sizes),
            "clustering_scaling_sizes": list(clustering_scaling_sizes),
            "clustering_overlap_k": clustering_overlap_k,
            "clustering_overlap_neighbors": clustering_overlap_neighbors,
            "clustering_neighbors": clustering_neighbors,
            "clustering_k_ratio": clustering_k_ratio,
            "clustering_epsilon": clustering_epsilon,
            "shard_sizes": list(shard_sizes),
            "shard_k": shard_k,
            "shard_shards": shard_shards,
            "shard_coreset_size": shard_coreset_size,
            "shard_neighbors": shard_neighbors,
            "fault_sizes": list(fault_sizes),
            "fault_workers": fault_workers,
            "shard_store_sizes": list(shard_store_sizes),
            "shard_store_workers": shard_store_workers,
            "serving_n": serving_n,
            "serving_clients": serving_clients,
            "serving_requests": serving_requests,
            "serving_backend": serving_backend,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "overlap": {},
        "sparse_scaling": {},
        "clustering_overlap": {},
        "clustering_scaling": {},
        "shard_scaling": {},
        "fault_recovery": {},
    }

    for n_c in overlap_sizes:
        n_c = int(n_c)
        n_f = max(int(n_c * facility_ratio), k)
        dense_inst = euclidean_instance(n_f, n_c, seed=seed)
        sparse_inst = knn_sparsify(dense_inst, k)
        entry = {
            "n_f": n_f,
            "n_c": n_c,
            "nnz": sparse_inst.nnz,
            "dense_bytes": n_f * n_c * 8,
        }
        for algorithm in algorithms:
            dense = _measure(
                algorithm, dense_inst, epsilon=epsilon, seed=machine_seed, repeats=repeats
            )
            sparse = _measure(
                algorithm, sparse_inst, epsilon=epsilon, seed=machine_seed, repeats=repeats
            )
            # Truncation error, in the dense objective, of the sparse solution.
            sparse_on_dense = float(dense_inst.cost(sparse["opened_idx"]))
            entry[algorithm] = {
                "dense": _strip(dense),
                "sparse": _strip(sparse),
                "speedup_wall": dense["wall_s"] / max(sparse["wall_s"], 1e-12),
                "mem_ratio": dense["peak_mib"] / max(sparse["peak_mib"], 1e-12),
                "work_ratio": dense["ledger_work"] / max(sparse["ledger_work"], 1.0),
                "sparse_solution_dense_cost": sparse_on_dense,
                "dense_cost": dense["cost"],
            }
        report["overlap"][f"euclid-{n_f}x{n_c}-k{k}"] = entry

    budget_bytes = budget_gib * 2**30
    for name, instance in sparse_scaling_suite(
        seed, sizes=scaling_sizes, k=k, facility_ratio=facility_ratio
    ):
        dense_bytes = instance.n_facilities * instance.n_clients * 8
        entry = {
            "n_f": instance.n_facilities,
            "n_c": instance.n_clients,
            "nnz": instance.nnz,
            "dense_bytes": dense_bytes,
            "dense_feasible": bool(dense_bytes <= budget_bytes),
        }
        for algorithm in algorithms:
            entry[algorithm] = {
                "sparse": _strip(
                    _measure(
                        algorithm,
                        instance,
                        epsilon=epsilon,
                        seed=machine_seed,
                        repeats=repeats,
                    )
                )
            }
        report["sparse_scaling"][name] = entry

    # -- clustering overlap: §6.1/§7 dense vs kNN-truncated sparse ---------
    for n in clustering_overlap_sizes:
        n = int(n)
        dense_inst = euclidean_clustering(n, clustering_overlap_k, seed=seed)
        sparse_inst = knn_sparsify(dense_inst, clustering_overlap_neighbors)
        dense = _measure_clustering(
            dense_inst, epsilon=clustering_epsilon, seed=machine_seed, repeats=repeats
        )
        sparse = _measure_clustering(
            sparse_inst, epsilon=clustering_epsilon, seed=machine_seed, repeats=repeats
        )
        # Truncation error, in the dense objective, of the sparse solution.
        km_dense_cost = float(
            dense_inst.kmedian_cost(sparse["kmedian"]["centers_idx"])
        )
        entry = {
            "n": n,
            "k": clustering_overlap_k,
            "nnz": sparse_inst.nnz,
            "dense_bytes": n * n * 8,
            "dense": _strip_clustering(dense),
            "sparse": _strip_clustering(sparse),
            "sparse_kmedian_dense_cost": km_dense_cost,
            "speedup_wall_kcenter": dense["kcenter"]["wall_s"]
            / max(sparse["kcenter"]["wall_s"], 1e-12),
            "speedup_wall_kmedian": dense["kmedian"]["wall_s"]
            / max(sparse["kmedian"]["wall_s"], 1e-12),
            "mem_ratio_kcenter": dense["kcenter"]["peak_mib"]
            / max(sparse["kcenter"]["peak_mib"], 1e-12),
        }
        report["clustering_overlap"][
            f"euclid-n{n}-k{clustering_overlap_k}-m{clustering_overlap_neighbors}"
        ] = entry

    # -- clustering scaling: sparse-only, up to dense-infeasible sizes -----
    for name, instance in sparse_clustering_suite(
        seed,
        sizes=clustering_scaling_sizes,
        neighbors=clustering_neighbors,
        k_ratio=clustering_k_ratio,
    ):
        dense_bytes = instance.n * instance.n * 8
        big = instance.n >= 50_000
        measured = _measure_clustering(
            instance,
            epsilon=clustering_epsilon,
            seed=machine_seed,
            repeats=1 if big else repeats,
            trace_memory=not big,  # tracing a multi-minute solve distorts it
        )
        report["clustering_scaling"][name] = {
            "n": instance.n,
            "k": instance.k,
            "nnz": instance.nnz,
            "dense_bytes": dense_bytes,
            "dense_feasible": bool(dense_bytes <= budget_gib * 2**30),
            "sparse": _strip_clustering(measured),
        }

    # -- shard scaling: raw points no single instance can hold -------------
    # Feasibility markers: the dense matrix *and* the single full-point
    # kNN CSR structure (indptr/indices/data + the segmented per-edge
    # temporaries the solvers allocate, ~5 edge-sized arrays) are costed
    # against the budget; tiers where both blow past it are the scales
    # only the shard pipeline reaches.
    for name, pts, k_pts in shard_scaling_suite(seed, sizes=shard_sizes, k=shard_k):
        n = pts.shape[0]
        dense_bytes = n * n * 8
        # the clustering_scaling construction at this n
        csr_nnz = 2 * clustering_neighbors * n
        single_csr_bytes = csr_nnz * 8 * 5
        big = n >= 500_000
        measured = _measure_shard(
            pts, k_pts,
            shards=shard_shards, coreset_size=shard_coreset_size,
            neighbors=shard_neighbors, epsilon=clustering_epsilon,
            seed=machine_seed, backend=shard_backend,
            trace_memory=not big,
        )
        report["shard_scaling"][name] = {
            "n": n,
            "k": k_pts,
            "shards": shard_shards,
            "coreset_size": shard_coreset_size,
            "dense_bytes": dense_bytes,
            "dense_feasible": bool(dense_bytes <= budget_gib * 2**30),
            "single_csr_bytes": single_csr_bytes,
            "single_csr_feasible": bool(single_csr_bytes <= budget_gib * 2**30),
            "shard": measured,
        }

    # -- shard scaling, out-of-core: blocks on disk, driver streams ---------
    store_workers = (
        shard_store_workers
        if shard_store_workers is not None
        else min(4, max(2, os.cpu_count() or 1))
    )
    for name, pts, k_pts in shard_scaling_suite(seed, sizes=shard_store_sizes, k=shard_k):
        n = pts.shape[0]
        measured = _measure_shard_store(
            pts, k_pts,
            shards=shard_shards, coreset_size=shard_coreset_size,
            neighbors=shard_neighbors, epsilon=clustering_epsilon,
            seed=machine_seed, workers=store_workers,
        )
        report["shard_scaling"][f"{name}-store"] = {
            "n": n,
            "k": k_pts,
            "shards": shard_shards,
            "coreset_size": shard_coreset_size,
            "mode": "store",
            "dense_bytes": n * n * 8,
            "dense_feasible": bool(n * n * 8 <= budget_gib * 2**30),
            "single_csr_bytes": 2 * clustering_neighbors * n * 8 * 5,
            "single_csr_feasible": bool(
                2 * clustering_neighbors * n * 8 * 5 <= budget_gib * 2**30
            ),
            "shard": measured,
        }

    # -- fault recovery: the same shard workload under injected crashes ----
    for name, pts, k_pts in shard_scaling_suite(seed, sizes=fault_sizes, k=shard_k):
        report["fault_recovery"][name] = _measure_fault_recovery(
            pts, k_pts,
            shards=shard_shards, coreset_size=shard_coreset_size,
            neighbors=shard_neighbors, epsilon=clustering_epsilon,
            seed=machine_seed, workers=fault_workers, repeats=repeats,
        )

    # -- serving: the loadgen report against a live server (PR 9) ----------
    report["serving"] = _measure_serving(
        n=serving_n, dim=serving_dim, k=serving_k,
        shards=serving_shards, coreset_size=serving_coreset_size,
        neighbors=serving_neighbors, clients=serving_clients,
        requests=serving_requests, cache_requests=serving_cache_requests,
        workers=serving_workers, backend=serving_backend,
        backend_workers=serving_backend_workers, seed=seed,
    )
    return report


def main(argv=None) -> None:
    """CLI entry point: run the sparse bench and write JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--overlap", default="1500,3000", help="comma-separated overlap client counts"
    )
    parser.add_argument(
        "--scaling",
        default="10000,30000,100000",
        help="comma-separated sparse-scaling client counts",
    )
    parser.add_argument("--k", type=int, default=8, help="candidates per client")
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--machine-seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--budget-gib",
        type=float,
        default=2.0,
        help="memory budget; larger dense matrices are marked infeasible",
    )
    parser.add_argument(
        "--clustering-overlap",
        default="600,1200",
        help="comma-separated clustering overlap node counts",
    )
    parser.add_argument(
        "--clustering-scaling",
        default="10000,30000,100000",
        help="comma-separated clustering scaling node counts",
    )
    parser.add_argument(
        "--clustering-neighbors", type=int, default=64, help="kNN neighbors per node"
    )
    parser.add_argument(
        "--clustering-k-ratio", type=float, default=0.02, help="centers per node"
    )
    parser.add_argument(
        "--shard-scaling",
        default="250000,1000000",
        help="comma-separated shard-tier point counts",
    )
    parser.add_argument("--shard-k", type=int, default=32)
    parser.add_argument("--shard-shards", type=int, default=16)
    parser.add_argument("--shard-coreset-size", type=int, default=512)
    parser.add_argument(
        "--shard-backend", default=None, help="backend for the shard tier (default env)"
    )
    parser.add_argument(
        "--fault-scaling",
        default="250000",
        help="comma-separated fault-recovery point counts",
    )
    parser.add_argument(
        "--fault-workers", type=int, default=None,
        help="process-pool workers for the fault-recovery tier "
             "(default: cpu_count, the backend default)",
    )
    parser.add_argument(
        "--shard-store-scaling",
        default="10000000",
        help="comma-separated out-of-core shard-tier point counts",
    )
    parser.add_argument(
        "--shard-store-workers", type=int, default=None,
        help="process-pool workers for the out-of-core tier "
             "(default: min(4, max(2, cpu_count)))",
    )
    parser.add_argument(
        "--serving-n", type=int, default=400, help="serving-tier instance size"
    )
    parser.add_argument("--serving-clients", type=int, default=4)
    parser.add_argument(
        "--serving-requests", type=int, default=60,
        help="total fresh requests in the serving tier",
    )
    parser.add_argument(
        "--serving-backend", default="process",
        help="execution backend for the served solves",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="CI smoke sizes (overlap 400/300, scaling 2000/5000, 1 repeat)",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    def _sizes(spec):
        return tuple(int(s) for s in spec.split(",") if s.strip())

    if args.fast:
        overlap = (400,)
        scaling = (2000, 5000)
        clustering_overlap = (300,)
        clustering_scaling = (2000, 5000)
        shard_scaling = (20_000,)
        shard_shards, shard_coreset = 4, 128
        shard_k = 8
        fault_scaling = (20_000,)
        shard_store_scaling = (20_000,)
        serving_n, serving_requests = 240, 50
        repeats = 1
    else:
        overlap = _sizes(args.overlap)
        scaling = _sizes(args.scaling)
        clustering_overlap = _sizes(args.clustering_overlap)
        clustering_scaling = _sizes(args.clustering_scaling)
        shard_scaling = _sizes(args.shard_scaling)
        shard_shards, shard_coreset = args.shard_shards, args.shard_coreset_size
        shard_k = args.shard_k
        fault_scaling = _sizes(args.fault_scaling)
        shard_store_scaling = _sizes(args.shard_store_scaling)
        serving_n, serving_requests = args.serving_n, args.serving_requests
        repeats = args.repeats

    report = run_sparse_bench(
        overlap_sizes=overlap,
        scaling_sizes=scaling,
        k=args.k,
        epsilon=args.epsilon,
        seed=args.seed,
        machine_seed=args.machine_seed,
        repeats=repeats,
        budget_gib=args.budget_gib,
        clustering_overlap_sizes=clustering_overlap,
        clustering_scaling_sizes=clustering_scaling,
        clustering_neighbors=args.clustering_neighbors,
        clustering_k_ratio=args.clustering_k_ratio,
        shard_sizes=shard_scaling,
        shard_k=shard_k,
        shard_shards=shard_shards,
        shard_coreset_size=shard_coreset,
        shard_backend=args.shard_backend,
        fault_sizes=fault_scaling,
        fault_workers=args.fault_workers,
        shard_store_sizes=shard_store_scaling,
        shard_store_workers=args.shard_store_workers,
        serving_n=serving_n,
        serving_requests=serving_requests,
        serving_clients=args.serving_clients,
        serving_backend=args.serving_backend,
    )
    for name, entry in report["overlap"].items():
        for algorithm in _ALGORITHMS:
            row = entry.get(algorithm)
            if not row:
                continue
            print(
                f"{name} {algorithm}: dense {row['dense']['wall_s']:.2f}s/"
                f"{row['dense']['peak_mib']:.0f}MiB | sparse "
                f"{row['sparse']['wall_s']:.2f}s/{row['sparse']['peak_mib']:.0f}MiB | "
                f"speedup {row['speedup_wall']:.1f}x mem {row['mem_ratio']:.1f}x"
            )
    for name, entry in report["sparse_scaling"].items():
        dense_note = (
            "feasible" if entry["dense_feasible"] else
            f"INFEASIBLE ({entry['dense_bytes'] / 2**30:.1f} GiB > budget)"
        )
        for algorithm in _ALGORITHMS:
            row = entry.get(algorithm)
            if not row:
                continue
            sp = row["sparse"]
            print(
                f"{name} {algorithm}: sparse {sp['wall_s']:.2f}s/"
                f"{sp['peak_mib']:.0f}MiB work {sp['ledger_work']:.3g} | dense {dense_note}"
            )
    for name, entry in report["clustering_overlap"].items():
        print(
            f"{name}: kcenter dense {entry['dense']['kcenter']['wall_s']:.2f}s | "
            f"sparse {entry['sparse']['kcenter']['wall_s']:.2f}s "
            f"({entry['speedup_wall_kcenter']:.1f}x, mem {entry['mem_ratio_kcenter']:.1f}x) | "
            f"kmedian {entry['speedup_wall_kmedian']:.1f}x"
        )
    for name, entry in report["clustering_scaling"].items():
        dense_note = (
            "feasible" if entry["dense_feasible"] else
            f"INFEASIBLE ({entry['dense_bytes'] / 2**30:.1f} GiB > budget)"
        )
        kc, km = entry["sparse"]["kcenter"], entry["sparse"]["kmedian"]
        print(
            f"{name}: kcenter {kc['wall_s']:.2f}s ({kc['centers']} centers) | "
            f"kmedian {km['wall_s']:.2f}s ({km['swap_rounds']} rounds) | "
            f"dense {dense_note}"
        )
    for name, entry in report["shard_scaling"].items():
        sh = entry["shard"]
        notes = []
        for key, label in (("dense_feasible", "dense"), ("single_csr_feasible", "single-CSR")):
            bkey = key.replace("_feasible", "_bytes")
            notes.append(
                f"{label} " + ("feasible" if entry[key] else f"INFEASIBLE ({entry[bkey] / 2**30:.1f} GiB)")
            )
        if "peak_rss_mib" in sh:
            notes.append(
                f"peak RSS {sh['peak_rss_mib']:.0f} MiB "
                f"(store {sh['store_bytes'] / 2**20:.0f} MiB on disk)"
            )
        print(
            f"{name}: shard_and_solve {sh['wall_s']:.1f}s | true cost {sh['cost_true']:.4g} "
            f"(merged {sh['cost_merged']:.4g}, movement {sh['movement']:.3g}) | "
            f"merged {sh['merged_n']} nodes | " + " | ".join(notes)
        )
    for name, entry in report["fault_recovery"].items():
        print(
            f"{name}: clean {entry['base_wall_s']:.1f}s | retry after crash "
            f"{entry['retry_wall_s']:.1f}s ({entry['retry_overhead']:+.1%}, "
            f"byte-identical={entry['retry_byte_identical']}) | drop "
            f"{entry['drop_wall_s']:.1f}s ({entry['drop_ratio']:.2f}x, covered "
            f"{entry['drop_covered_weight_fraction']:.1%}, certificate "
            f"valid={entry['drop_certificate_valid']})"
        )
    serving = report.get("serving")
    if serving:
        fresh, cached = serving["fresh"], serving["cached"]
        print(
            f"serving[{serving['backend']} n={serving['n']}]: "
            f"{fresh['completed']}/{fresh['requests_sent']} fresh solves over "
            f"{fresh['clients']} clients, {fresh['throughput_rps']:.1f} req/s, "
            f"p50 {fresh['latency_s']['p50'] * 1e3:.0f}ms "
            f"p99 {fresh['latency_s']['p99'] * 1e3:.0f}ms, "
            f"{fresh['failed']} failed | cached {serving['cache_speedup']:.1f}x "
            f"faster | crash byte-identical="
            f"{serving['fault']['byte_identical']}"
        )
        slo = serving.get("slo")
        overhead = serving.get("tracing_overhead")
        if slo or overhead:
            parts = []
            if slo:
                parts.append(f"slo={slo.get('status', '?')}")
            if overhead:
                parts.append(f"tracing overhead {overhead['overhead']:+.1%}")
            print("serving extras: " + " | ".join(parts))
    from repro.obs.tracer import current_tracer

    tracer = current_tracer()
    if tracer.enabled and tracer.path is not None:
        # REPRO_TRACE is live: flush the trace and fold its summary into
        # the committed bench JSON so the profile rides with the numbers.
        from repro.obs.report import load_trace, summarize_trace

        tracer.flush()
        report["trace_summary"] = summarize_trace(load_trace(tracer.path))
        print(f"trace summary attached from {tracer.path}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
