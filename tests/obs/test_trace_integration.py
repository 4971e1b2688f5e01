"""End-to-end trace of a process-backend sharded solve.

A scaled-down version of the acceptance run: shard_and_solve on a real
process pool with fault injection, traced to JSONL, then loaded,
schema-validated, and summarized. Asserts that every instrumentation
layer actually landed in one file: worker lanes from the pool, all
shard-pipeline stages, PRAM primitives, and the supervisor's event
stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PramMachine, shard_and_solve
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.obs.report import (
    load_trace,
    render_summary,
    summarize_trace,
    validate_events,
)
from repro.obs.tracer import NULL_TRACER, set_tracer, trace_to
from repro.pram.backends import ProcessBackend


@pytest.fixture(autouse=True)
def _force_tracing_off_between_runs():
    prev = set_tracer(NULL_TRACER)
    yield
    set_tracer(prev)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20_000, 2)) + rng.integers(0, 5, size=(20_000, 1)) * 8.0
    plan = FaultPlan([FaultSpec("raise", 2, attempt=1)])
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    with trace_to(path) as tracer:
        with ProcessBackend(2) as backend:
            machine = PramMachine(backend=backend, seed=3)
            sol = shard_and_solve(
                points, 5, shards=8, seed=13, machine=machine,
                retry_policy=policy, fault_plan=plan,
            )
        tracer.flush()
    set_tracer(NULL_TRACER)
    return path, sol


def test_trace_validates_against_schema(traced_run):
    path, _ = traced_run
    events = load_trace(path)
    assert events
    assert validate_events(events) == []


def test_trace_contains_every_layer(traced_run):
    path, _ = traced_run
    events = load_trace(path)
    cats = {e.get("cat") for e in events}
    assert {"pram", "backend", "shard", "fault", "round"} <= cats


def test_all_shard_stages_present(traced_run):
    path, _ = traced_run
    stage_names = {
        e["name"] for e in load_trace(path) if e.get("cat") == "shard"
    }
    assert {
        "shard.partition", "shard.coreset", "shard.merge",
        "shard.solve", "shard.true_cost",
    } <= stage_names


def test_worker_lanes_present(traced_run):
    path, _ = traced_run
    events = load_trace(path)
    worker_lanes = {
        e["tid"]
        for e in events
        if e.get("ph") == "M"
        and e["name"] == "thread_name"
        and e.get("args", {}).get("name", "").startswith("worker-")
    }
    assert len(worker_lanes) >= 1
    # exec spans landed on those lanes
    exec_lanes = {
        e["tid"] for e in events
        if e.get("cat") == "backend" and e["name"] == "exec"
    }
    assert worker_lanes & exec_lanes


def test_supervisor_event_stream_recorded(traced_run):
    path, _ = traced_run
    events = load_trace(path)
    fault_names = {e["name"] for e in events if e.get("cat") == "fault"}
    assert "task_fail" in fault_names  # the injected raise
    fail = next(
        e for e in events
        if e.get("cat") == "fault" and e["name"] == "task_fail"
    )
    assert fail["args"]["task"] == 2
    assert fail["args"]["attempt"] == 1


def test_metrics_snapshot_in_trace(traced_run):
    path, _ = traced_run
    events = load_trace(path)
    counters = next(
        e for e in events if e.get("ph") == "C" and e["name"] == "repro.counters"
    )
    assert counters["args"].get("supervisor.tasks_retried", 0) >= 1
    assert counters["args"].get("supervisor.attempts_total", 0) >= 9


def test_summary_and_render(traced_run):
    path, sol = traced_run
    summary = summarize_trace(load_trace(path))
    assert summary["wall_s"] > 0
    stages = {s["stage"] for s in summary["stages"]}
    assert "shard.coreset" in stages
    assert summary["primitives"]  # PRAM layer aggregated
    assert summary["backend"]["lanes"]  # per-lane utilization
    assert summary["faults"]["counts"].get("task_fail", 0) >= 1
    text = render_summary(summary)
    assert "shard.coreset" in text
    # and the solve itself was sane
    assert sol.centers.size == 5
    assert not sol.degraded


def test_report_cli_runs_on_real_trace(traced_run, capsys):
    from repro.obs.report import main

    path, _ = traced_run
    assert main([str(path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "shard pipeline stages" in out
    assert "backend lanes" in out
