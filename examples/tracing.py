"""Observability walkthrough — tracing a sharded solve end to end.

Four acts:

1. *Scoped tracing*: ``trace_to`` wraps a process-pool
   ``shard_and_solve`` and writes Chrome trace-event JSONL that
   Perfetto / ``chrome://tracing`` load directly.
2. *The report*: ``repro.obs.report`` turns the raw events into
   per-stage wall-clock shares, per-primitive latency stats,
   per-worker-lane utilization, and the supervisor event stream.
3. *Faults on the record*: a transient fault is injected and retried —
   the trace shows the retry, the result doesn't.
4. *The invariant*: the traced, fault-recovered solution is
   byte-identical to an untraced clean run.

Run:  python examples/tracing.py          (~20 seconds)
"""

import os
import tempfile

import numpy as np

from repro import FaultPlan, RetryPolicy, shard_and_solve, trace_to
from repro.faults.plan import FaultSpec
from repro.obs.report import load_trace, render_summary, summarize_trace
from repro.pram.backends import ProcessBackend
from repro.pram.machine import PramMachine

SEED = 7
K = 6
SHARDS = 8
rng = np.random.default_rng(SEED)
POINTS = rng.normal(size=(40_000, 2)) + rng.integers(0, K, size=(40_000, 1)) * 6.0
SOLVE_KW = dict(shards=SHARDS, coreset_size=128, neighbors=32, seed=SEED)


def solve(machine, **extra):
    return shard_and_solve(POINTS, K, machine=machine, **SOLVE_KW, **extra)


def act_1_trace(path):
    print("— act 1: trace a process-pool sharded solve —")
    with trace_to(path) as tracer:
        with ProcessBackend(2) as backend:
            sol = solve(PramMachine(backend=backend, seed=SEED))
        tracer.flush()
    events = load_trace(path)
    print(f"  {len(events)} events -> {path}")
    print("  open in https://ui.perfetto.dev to see worker lanes\n")
    return sol


def act_2_report(path):
    print("— act 2: summarize it —")
    summary = summarize_trace(load_trace(path))
    print("\n".join("  " + line for line in render_summary(summary).splitlines()))
    print()


def act_3_faults(path):
    print("— act 3: a retried fault shows up in the trace —")
    plan = FaultPlan([FaultSpec("raise", 2, attempt=1)])  # task 2, first try
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
    with trace_to(path) as tracer:
        with ProcessBackend(2) as backend:
            sol = solve(
                PramMachine(backend=backend, seed=SEED),
                fault_plan=plan, retry_policy=policy,
            )
        tracer.flush()
    summary = summarize_trace(load_trace(path))
    print(f"  supervisor events: {summary['faults']['counts']}")
    retried = summary["counters"].get("repro.counters", {})
    print(f"  counters: tasks_retried={retried.get('supervisor.tasks_retried')}, "
          f"attempts_total={retried.get('supervisor.attempts_total')}\n")
    return sol


def act_4_invariant(traced_sol, faulted_sol):
    print("— act 4: observability never perturbs results —")
    clean = solve(PramMachine(seed=SEED))  # untraced, serial, no faults
    for name, sol in (("traced", traced_sol), ("traced+fault+retry", faulted_sol)):
        same = (
            np.array_equal(clean.centers, sol.centers)
            and clean.cost == sol.cost
            and clean.true_cost == sol.true_cost
        )
        print(f"  {name}: byte-identical to clean run = {same}")
        assert same


def main():
    with tempfile.TemporaryDirectory() as td:
        trace_path = os.path.join(td, "run.jsonl")
        fault_path = os.path.join(td, "faulted.jsonl")
        traced_sol = act_1_trace(trace_path)
        act_2_report(trace_path)
        faulted_sol = act_3_faults(fault_path)
        act_4_invariant(traced_sol, faulted_sol)
    print("\n(set REPRO_TRACE=run.jsonl to trace any run with no code changes)")


if __name__ == "__main__":
    main()
