"""Workload ``paper-solvers``: passes of the §4–§7 algorithms, serial, in process.

A pass runs greedy and primal–dual facility location on a dense 700×700
and a kNN 1000×10000 instance, k-center and local-search k-median on a
dense 600-point and a kNN 3000-point clustering instance, and Lagrangian
k-median on a dense 300-point one. Everything runs through the top-level
API on the default serial backend: no pool, no coreset, no HTTP, so
``repro.core`` and the in-process primitives do all the work. It is the
workload that shard and serve changes bypass.

A run solves :data:`PER_RUN` input variants, one per pass in turn. How
much work a pass takes depends on its input (the Lagrangian search stops
at the first probe that opens exactly k centres), so a run that timed a
single input would report that input's cost as much as the program's
speed; medians over passes of several inputs do not (see
:func:`typical_pass_s`).
"""

from __future__ import annotations

import gc
import itertools
import os
import time
from typing import NamedTuple

import numpy as np
import repro
from repro import PramMachine
from repro.analysis import certify_facility_location

from perfbench import common, objective, procfs, stats, tracing

#: The paper's approximation factors (Theorems 4.1 and 5.1) at the
#: default ε = 0.1 the suite runs with.
EPSILON = 0.1
FACTORS = {"greedy": 3.722 + EPSILON, "primal_dual": 3.0 + EPSILON}

#: Input variants with recorded references; a run solves :data:`PER_RUN`
#: of them, a block that :func:`variants_of` picks from the seed.
VARIANTS = 64
PER_RUN = 4


def variants_of(seed: int) -> list:
    """The variants a run with ``seed`` solves; 16 consecutive seeds share none."""
    first = int(seed) * PER_RUN % VARIANTS
    return [first + j for j in range(PER_RUN)]


def instances(variant: int, *, tiny: bool = False, timings=None) -> dict:
    """The suite's five instances; ``timings`` collects seconds per builder."""
    base = 100 * variant
    plan = {
        "fl_dense": ("euclidean_instance", lambda: repro.euclidean_instance(
            *((40, 60) if tiny else (700, 700)), seed=base)),
        "fl_knn": ("knn_instance", lambda: repro.knn_instance(
            *((60, 300) if tiny else (1000, 10000)), k=8, seed=base + 1)),
        "cl_dense": ("euclidean_clustering", lambda: repro.euclidean_clustering(
            60 if tiny else 600, 8, seed=base + 2)),
        "cl_knn": ("knn_clustering_instance", lambda: repro.knn_clustering_instance(
            *((400, 8) if tiny else (3000, 60)), neighbors=64, seed=base + 3)),
        "cl_small": ("euclidean_clustering", lambda: repro.euclidean_clustering(
            40 if tiny else 300, 8, seed=base + 4)),
    }
    out = {}
    for key, (builder, build) in plan.items():
        t0 = time.perf_counter()
        out[key] = build()
        if timings is not None:
            timings[builder] = timings.get(builder, 0.0) + time.perf_counter() - t0
    return out


#: ``(name, instance key, entry point)`` per solve, in pass order.
SUITE = (
    ("greedy.dense", "fl_dense", repro.parallel_greedy),
    ("greedy.knn", "fl_knn", repro.parallel_greedy),
    ("primal_dual.dense", "fl_dense", repro.parallel_primal_dual),
    ("primal_dual.knn", "fl_knn", repro.parallel_primal_dual),
    ("kcenter.dense", "cl_dense", repro.parallel_kcenter),
    ("kcenter.knn", "cl_knn", repro.parallel_kcenter),
    ("kmedian.dense", "cl_dense", repro.parallel_kmedian),
    ("kmedian.knn", "cl_knn", repro.parallel_kmedian),
    ("lagrangian.dense", "cl_small", repro.parallel_kmedian_lagrangian),
)


class Solved(NamedTuple):
    """One solve of a pass: wall and CPU seconds, and the solution.

    The suite runs on the serial backend, so this process's CPU clock
    holds all the CPU time the program spends on it.
    """

    wall_s: float
    cpu_s: float
    sol: object


def one_pass(insts: dict, seed: int, tracer=None) -> dict:
    """Run every suite solve once; returns ``name -> Solved``."""
    out = {}
    for name, key, entry in SUITE:
        machine = PramMachine(seed=seed, tracer=tracer)
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            sol = entry(insts[key], machine=machine)
        else:
            with tracer.span(f"core.{name}", "bench"):
                sol = entry(insts[key], machine=machine)
        out[name] = Solved(time.perf_counter() - t0, time.process_time() - c0, sol)
    return out


def recompute(name: str, inst, sol) -> float:
    """The objective of ``sol`` evaluated from the instance data."""
    algo, kind = name.split(".")
    if algo in ("greedy", "primal_dual"):
        if kind == "dense":
            return objective.fl_dense(inst.D, inst.f, sol.opened)
        return objective.fl_csr(inst.indptr, inst.indices, inst.data, inst.f, inst.fallback, sol.opened)
    obj = "kcenter" if algo == "kcenter" else "kmedian"
    if kind == "dense":
        return objective.clustering_dense(inst.D, sol.centers, obj)
    return objective.clustering_csr(inst.indptr, inst.indices, inst.data, inst.fallback, sol.centers, obj)


def setup(variants: list, timings: dict):
    """Instance builds for every variant plus a warm-up pass on tiny
    instances; returns ``(instance sets, seconds)``."""
    t0 = time.perf_counter()
    sets = [instances(v, timings=timings) for v in variants]
    one_pass(instances(variants[0], tiny=True), variants[0])
    return sets, time.perf_counter() - t0


def reference(variant: int) -> dict:
    (insts,), _ = setup([variant], {})
    result = one_pass(insts, variant)
    return {name: recompute(name, insts[key], result[name].sol) for name, key, _ in SUITE}


def check(insts, result: dict, refs: dict, first, tally: common.Tally) -> None:
    """Check one pass; ``first`` is the first pass on the same input, or ``None``."""
    for name, key, _ in SUITE:
        sol = result[name].sol
        inst = insts[key]
        ids = sol.opened if hasattr(sol, "opened") else sol.centers
        if hasattr(sol, "centers") and not tally.check(
            len(sol.centers) <= inst.k, f"{name}: {len(sol.centers)} centres for k={inst.k}"
        ):
            continue
        cost = recompute(name, inst, sol)
        tally.check(objective.agrees(cost, sol.cost), f"{name}: cost {sol.cost!r} but recomputed {cost!r}")
        tally.ratios.append(cost / refs[name])
        if first is None:
            algo, kind = name.split(".")
            if kind == "dense" and algo in FACTORS:
                cert = certify_facility_location(inst, sol.opened, alpha=sol.alpha)
                tally.check(cert.ratio_bound <= FACTORS[algo],
                            f"{name}: certified ratio {cert.ratio_bound:.4f} above the paper's {FACTORS[algo]:.3f}")
        else:
            same = first[name].sol.opened if hasattr(sol, "opened") else first[name].sol.centers
            tally.check(np.array_equal(ids, same), f"{name}: repeated identical pass changed the answer")


def typical_pass_s(ops: list, field: str = "wall_s", names=None) -> float:
    """Seconds of a typical pass: per input, the sum over the solves of each
    solve's median ``field`` (``wall_s`` or ``cpu_s``), averaged over the inputs.

    Passes on different inputs do different work, so one median over all
    of them would hang on which input's passes fall either side of the
    middle; medians per input do not. Taking them per solve rather than
    per pass keeps out a burst of host steal that slows one or two solves
    of a pass. ``names`` restricts the sum to those solves.
    """
    by_input: dict = {}
    for _, _, (i, result) in ops:
        by_input.setdefault(i, []).append(result)
    return stats.mean([
        sum(stats.median([getattr(r[name], field) for r in results]) for name in names or results[0])
        for results in by_input.values()
    ])


def run(seed: int, seconds: float, trace: bool) -> dict:
    variants = variants_of(seed)
    table = common.load_references("paper-solvers")
    refs = [table[v] for v in variants]
    tally = common.Tally()
    setups, builds, sets = [], [], None
    for rep in range(common.SETUP_REPS):
        timings: dict = {}
        # free the previous set-up's instances first, cycles included, so
        # they do not add to the peak resident set of the next one
        sets = None
        gc.collect()
        if rep == common.SETUP_REPS - 1:
            procfs.reset_peak_rss(os.getpid())
        sets, took = setup(variants, timings)
        setups.append(took)
        builds.append(timings)

    turn = itertools.count()

    def op(tracer=None):
        """One pass on the next variant in turn; returns ``(variant index, result)``."""
        i = next(turn) % PER_RUN
        tally.attempted += 1
        try:
            if tracer is None:
                return i, one_pass(sets[i], variants[i])
            with tracer.span("bench.op", "bench"):
                return i, one_pass(sets[i], variants[i], tracer)
        except Exception as exc:  # a failed pass is counted, not fatal
            tally.op_failed(f"{type(exc).__name__}: {exc}")
            return None

    steal0 = procfs.steal_ticks()
    plain = common.measure_ops(seconds / 2 if trace else seconds, op)
    peak_rss = procfs.tree_peak_rss_mib(os.getpid())
    traced, events = [], []
    if trace:
        tracer = tracing.MemoryTracer()
        traced = common.measure_ops(seconds / 2, lambda: op(tracer))
        events = tracer.events
    steal = procfs.steal_ticks() - steal0

    first: dict = {}
    for _, _, done in plain + traced:
        if done is not None:
            i, result = done
            with tally.judging():
                check(sets[i], result, refs[i], first.get(i), tally)
            first.setdefault(i, result)

    plain = [op_ for op_ in plain if op_[2] is not None]
    traced = [op_ for op_ in traced if op_[2] is not None]
    latencies = [w for w, _, _ in plain]
    latency = [typical_pass_s(plain, "wall_s")] if plain else []
    cpu = [typical_pass_s(plain, "cpu_s")] if plain else []
    record = {
        "tally": tally,
        "end_to_end": common.end_to_end(latency, cpu, tally, setups, peak_rss),
        "per_layer": {},
        "diagnostics": {
            "variants": variants,
            "steal_ticks": steal,
            "ops": len(plain),
            "latency_s": latencies,
            "cpu_s": [c for _, c, _ in plain],
            "setup_s": setups,
            "solve_s": {name: [r[name].wall_s for _, _, (_, r) in plain] for name, _, _ in SUITE},
        },
    }
    if trace and traced:
        layers = common.trace_layers(events, len(traced))
        # counts are per input, so average them over the variants traced
        last = list({i: r for _, _, (i, r) in traced}.values())
        for name, _, _ in SUITE:
            layers[f"core.{name}_s"] = typical_pass_s(traced, "wall_s", [name])
            layers[f"core.{name}_rounds"] = stats.mean([sum(r[name].sol.rounds.values()) for r in last])
        layers["pram.work"] = stats.mean([sum(s.sol.model_costs.work for s in r.values()) for r in last])
        layers["pram.depth"] = stats.mean([sum(s.sol.model_costs.depth for s in r.values()) for r in last])
        for builder in common.BUILDERS:
            layers[f"metrics.{builder}_s"] = stats.median([b[builder] for b in builds])
        layers["obs.trace_overhead"] = typical_pass_s(traced) / typical_pass_s(plain) - 1
        record["per_layer"] = layers
        record["diagnostics"]["traced_ops"] = len(traced)
        record["events"] = events
    return record
