"""Perf-regression harness: the dense FL solvers on every backend.

Runs ``parallel_greedy`` and ``parallel_primal_dual`` on the same
seeded workload for every requested backend (serial / thread /
process) and records per (algorithm, backend):

* total wall-clock (min over ``repeats`` runs) and ledger charges
  (work/depth/cache — identical across backends by construction, which
  the report asserts as ``charges_invariant``);
* a per-round trace of ledger work and wall-clock, differenced from
  :attr:`repro.pram.ledger.CostLedger.round_log`, so the trajectory
  "per-round cost shrinks with the frontier" is visible, not just the
  totals;
* an exact-equality check of the solutions across *all* backends
  (opened set, cost, α).

The CLI writes the result as JSON so runs can be diffed over time::

    PYTHONPATH=src python -m repro.bench.regressions --nf 1500 --nc 1500 \
        --backends serial,thread,process --repeats 3 --out bench.json

(``BENCH_PR1.json`` and ``BENCH_PR2.json`` at the repo root are
earlier schemas of this report, with a serial-only layout and with
separate full-matrix and frontier-compacted rows respectively.)

Fixed seeds throughout: the numbers move only when the algorithms (or
the host) change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

import numpy as np

from repro.bench.reporting import summarize_rounds
from repro.core.greedy import parallel_greedy
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.generators import euclidean_instance
from repro.pram.backends import make_backend
from repro.pram.ledger import RoundMark
from repro.pram.machine import PramMachine

#: Round labels whose traces are exported, per algorithm.
_TRACE_LABELS = {
    "parallel_greedy": "greedy_outer",
    "parallel_primal_dual": "pd_iterations",
}

_ALGORITHMS = {
    "parallel_greedy": parallel_greedy,
    "parallel_primal_dual": parallel_primal_dual,
}


def _per_round(round_log, label, final_work: float, final_wall: float) -> list:
    """Difference consecutive same-label marks into per-round deltas.

    A mark records the cumulative (work, wall) *at round entry*, so each
    round's cost spans to the next same-label mark (or the run's end) —
    for greedy this folds a round's subselection iterations into its
    outer round, which is the granularity the §4 analysis bounds.
    """
    marks = [
        (m.work, m.wall)
        for m in map(RoundMark.coerce, round_log)
        if m.label == label
    ]
    out = []
    for k, (w, t) in enumerate(marks):
        w2, t2 = marks[k + 1] if k + 1 < len(marks) else (final_work, final_wall)
        out.append({"round": k + 1, "ledger_work": w2 - w, "wall_s": t2 - t})
    return out


def _run_once(
    algorithm: str,
    instance,
    *,
    epsilon: float,
    seed: int,
    backend,
    repeats: int = 1,
    summary: bool = False,
) -> dict:
    """Seeded run(s) on one backend; wall-clock is the min over repeats.

    Deterministic seeding makes every repeat compute the identical
    solution and ledger, so only the clock varies; the minimum is the
    standard noise-robust estimate for a fixed workload. With
    ``summary`` the per-round trace is stored as fixed-size summary
    stats instead of raw per-round samples (caps the JSON size on
    workloads with many rounds).
    """
    sol = measure = None
    best_wall = float("inf")
    for _ in range(max(int(repeats), 1)):
        machine = PramMachine(backend=backend, seed=seed)
        t0 = time.perf_counter()
        sol = _ALGORITHMS[algorithm](instance, epsilon=epsilon, machine=machine)
        wall = time.perf_counter() - t0
        if wall >= best_wall:
            continue
        best_wall = wall
        ledger = machine.ledger
        measure = {
            "wall_s": wall,
            "ledger_work": ledger.work,
            "ledger_depth": ledger.depth,
            "ledger_cache": ledger.cache,
            "rounds": dict(ledger.rounds),
        }
        if summary:
            measure["round_summary"] = summarize_rounds(
                ledger.round_log, _TRACE_LABELS[algorithm], ledger.work
            )
        else:
            measure["per_round"] = _per_round(
                ledger.round_log,
                _TRACE_LABELS[algorithm],
                ledger.work,
                t0 + wall,
            )
    return {"solution": sol, "measure": measure}


def _same_solution(a, b) -> bool:
    return bool(
        np.array_equal(a.opened, b.opened)
        and a.cost == b.cost
        and np.array_equal(a.alpha, b.alpha)
    )


def run_regression(
    *,
    nf: int = 1500,
    nc: int = 1500,
    seed: int = 0,
    machine_seed: int = 1,
    epsilon: float = 0.1,
    algorithms=("parallel_greedy", "parallel_primal_dual"),
    backends=("serial",),
    num_workers: int | None = None,
    repeats: int = 1,
    summary: bool = False,
) -> dict:
    """Run the backend sweep and return the report dict.

    Backends are named (``"serial"``/``"thread"``/``"process"``); each
    gets a private pool (closed before the next backend runs) so sweeps
    never overlap worker sets. ``solutions_identical`` per algorithm
    compares every backend's solution against the run of the **first
    listed backend** — list serial first to make that the
    serial-parity claim. ``cost``/``opened`` and the
    ``charges_invariant`` reference come from the same first-listed
    run.
    """
    instance = euclidean_instance(nf, nc, seed=seed)
    report = {
        "meta": {
            "workload": f"euclidean_instance({nf}, {nc}, seed={seed})",
            "n_facilities": nf,
            "n_clients": nc,
            "m": nf * nc,
            "epsilon": epsilon,
            "machine_seed": machine_seed,
            "backends": list(backends),
            "num_workers": num_workers if num_workers is not None else (os.cpu_count() or 1),
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "algorithms": {},
    }
    for algorithm in algorithms:
        entry = {"backends": {}}
        reference = None  # first listed backend's run
        identical = True
        for backend_name in backends:
            backend = make_backend(backend_name, num_workers=num_workers)
            try:
                run = _run_once(
                    algorithm,
                    instance,
                    epsilon=epsilon,
                    seed=machine_seed,
                    backend=backend,
                    repeats=repeats,
                    summary=summary,
                )
            finally:
                backend.close()
            if reference is None:
                reference = run
                entry["cost"] = run["solution"].cost
                entry["opened"] = int(run["solution"].opened.size)
            identical = identical and _same_solution(reference["solution"], run["solution"])
            # Ledger charges are backend-invariant; flag any drift.
            entry["backends"][backend_name] = {
                **run["measure"],
                "charges_invariant": run["measure"]["ledger_work"]
                == reference["measure"]["ledger_work"],
            }
        entry["solutions_identical"] = bool(identical)
        report["algorithms"][algorithm] = entry
    return report


def measure_obs_overhead(
    *,
    nf: int = 1500,
    nc: int = 1500,
    seed: int = 0,
    machine_seed: int = 1,
    epsilon: float = 0.1,
    algorithm: str = "parallel_greedy",
    repeats: int = 3,
) -> dict:
    """Wall-clock cost of the observability layer on the regression workload.

    Three modes run the same seeded solve (min wall over ``repeats``):

    * ``off`` — forced :data:`repro.obs.NULL_TRACER`: no primitive
      wrappers are installed, so this *is* the historical code path;
    * ``noop`` — an enabled drop-sink ``Tracer(None)``: wrappers,
      timestamps, and event dicts are built but nothing is written
      (the instrumentation ceiling);
    * ``traced`` — a real JSONL trace file.

    ``overhead_noop`` / ``overhead_traced`` are ratios against ``off``.
    The headline invariant — tracing never perturbs results — is pinned
    separately by the byte-identity tests; this measures only the
    clock.
    """
    import tempfile

    from repro.obs.tracer import NULL_TRACER, Tracer, set_tracer

    instance = euclidean_instance(nf, nc, seed=seed)
    fn = _ALGORITHMS[algorithm]

    def _timed(tracer) -> float:
        prev = set_tracer(tracer)
        try:
            best = float("inf")
            for _ in range(max(int(repeats), 1)):
                machine = PramMachine(seed=machine_seed)
                t0 = time.perf_counter()
                fn(instance, epsilon=epsilon, machine=machine)
                best = min(best, time.perf_counter() - t0)
        finally:
            set_tracer(prev)
        return best

    wall_off = _timed(NULL_TRACER)
    wall_noop = _timed(Tracer(None))
    with tempfile.TemporaryDirectory() as td:
        tracer = Tracer(os.path.join(td, "overhead.jsonl"))
        try:
            wall_traced = _timed(tracer)
        finally:
            tracer.close()
    return {
        "workload": f"euclidean_instance({nf}, {nc}, seed={seed})",
        "algorithm": algorithm,
        "repeats": int(repeats),
        "wall_off_s": wall_off,
        "wall_noop_s": wall_noop,
        "wall_traced_s": wall_traced,
        "overhead_noop": wall_noop / wall_off - 1.0,
        "overhead_traced": wall_traced / wall_off - 1.0,
    }


def main(argv=None) -> None:
    """CLI entry point: run the regression sweep and write JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nf", type=int, default=1500, help="number of facilities")
    parser.add_argument("--nc", type=int, default=1500, help="number of clients")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--machine-seed", type=int, default=1, help="PRAM machine seed")
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument(
        "--backends",
        default="serial",
        help="comma-separated backend names to sweep (serial,thread,process)",
    )
    parser.add_argument("--workers", type=int, default=None, help="pool worker count")
    parser.add_argument("--repeats", type=int, default=1, help="timed runs per config (min wins)")
    parser.add_argument(
        "--summary",
        action="store_true",
        help="store per-round traces as summary stats (caps JSON size)",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="also measure the observability layer's wall-clock overhead "
        "(off / noop-tracer / traced) on the same workload",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    report = run_regression(
        nf=args.nf,
        nc=args.nc,
        seed=args.seed,
        machine_seed=args.machine_seed,
        epsilon=args.epsilon,
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
        num_workers=args.workers,
        repeats=args.repeats,
        summary=args.summary,
    )
    if args.obs_overhead:
        report["obs_overhead"] = measure_obs_overhead(
            nf=args.nf,
            nc=args.nc,
            seed=args.seed,
            machine_seed=args.machine_seed,
            epsilon=args.epsilon,
            repeats=max(args.repeats, 3),
        )
        ov = report["obs_overhead"]
        print(
            f"obs overhead: off {ov['wall_off_s']:.2f}s | "
            f"noop {ov['wall_noop_s']:.2f}s ({ov['overhead_noop']:+.1%}) | "
            f"traced {ov['wall_traced_s']:.2f}s ({ov['overhead_traced']:+.1%})"
        )
    for name, entry in report["algorithms"].items():
        print(f"{name}: identical={entry['solutions_identical']}")
        for backend_name, row in entry["backends"].items():
            print(
                f"  {backend_name:>8}: {row['wall_s']:.2f}s "
                f"(work {row['ledger_work']:.3g}) | "
                f"charges_invariant={row['charges_invariant']}"
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
