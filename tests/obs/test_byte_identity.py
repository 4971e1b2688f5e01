"""The headline invariant: observability never perturbs results.

Every solver run here is seeded, so a traced run and an untraced run
must produce *identical* outputs — same opened sets, same centers, same
costs, same ledger charges — on every backend, and even when the
supervisor is retrying injected faults while the trace records them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PramMachine, shard_and_solve
from repro.core.greedy import parallel_greedy
from repro.core.local_search import parallel_kmedian
from repro.core.primal_dual import parallel_primal_dual
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.metrics.generators import euclidean_clustering, euclidean_instance
from repro.obs.tracer import NULL_TRACER, set_tracer, trace_to
from repro.pram.backends import make_backend
from tests.pool_lanes import assert_coreset_batch_on_pool

BACKENDS = ["serial", "process"]


@pytest.fixture(autouse=True)
def _force_tracing_off_between_runs():
    prev = set_tracer(NULL_TRACER)
    yield
    set_tracer(prev)


def _run(make_solution, backend_name, trace_path=None):
    def solve():
        backend = make_backend(backend_name, num_workers=2)
        try:
            return make_solution(PramMachine(backend=backend, seed=5))
        finally:
            backend.close()

    if trace_path is None:
        return solve()
    with trace_to(trace_path):
        return solve()


def _assert_fl_identical(a, b):
    assert np.array_equal(a.opened, b.opened)
    assert a.cost == b.cost
    assert np.array_equal(a.alpha, b.alpha)
    assert a.model_costs.work == b.model_costs.work
    assert a.model_costs.depth == b.model_costs.depth


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_greedy_identical_with_tracing(tmp_path, backend_name):
    instance = euclidean_instance(12, 40, seed=3)
    off = _run(lambda m: parallel_greedy(instance, epsilon=0.1, machine=m), backend_name)
    on = _run(
        lambda m: parallel_greedy(instance, epsilon=0.1, machine=m),
        backend_name,
        tmp_path / "greedy.jsonl",
    )
    _assert_fl_identical(off, on)
    # the traced run actually traced something
    assert (tmp_path / "greedy.jsonl").stat().st_size > 0


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_primal_dual_identical_with_tracing(tmp_path, backend_name):
    instance = euclidean_instance(12, 40, seed=3)
    off = _run(
        lambda m: parallel_primal_dual(instance, epsilon=0.1, machine=m), backend_name
    )
    on = _run(
        lambda m: parallel_primal_dual(instance, epsilon=0.1, machine=m),
        backend_name,
        tmp_path / "pd.jsonl",
    )
    _assert_fl_identical(off, on)


def test_kmedian_identical_with_tracing(tmp_path):
    instance = euclidean_clustering(60, 4, seed=9)
    off = _run(lambda m: parallel_kmedian(instance, epsilon=0.5, machine=m), "serial")
    on = _run(
        lambda m: parallel_kmedian(instance, epsilon=0.5, machine=m),
        "serial",
        tmp_path / "km.jsonl",
    )
    assert np.array_equal(off.centers, on.centers)
    assert off.cost == on.cost
    assert off.model_costs.work == on.model_costs.work


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_shard_and_solve_identical_with_tracing(tmp_path, backend_name):
    rng = np.random.default_rng(2)
    points = rng.normal(size=(500, 2))

    def solve(machine):
        # coreset_size below every shard's size: the fan-out seeds, so a
        # process machine sends it to its pool
        return shard_and_solve(points, 4, shards=4, coreset_size=64, seed=11, machine=machine)

    off = _run(solve, backend_name)
    on = _run(solve, backend_name, tmp_path / "shard.jsonl")
    assert np.array_equal(off.centers, on.centers)
    assert off.cost == on.cost
    assert off.true_cost == on.true_cost
    assert np.array_equal(off.coreset_sizes, on.coreset_sizes)
    assert off.model_costs.work == on.model_costs.work
    if backend_name != "serial":
        assert_coreset_batch_on_pool(tmp_path / "shard.jsonl")


@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_shard_identical_under_fault_retry(tmp_path, backend_name):
    """Tracing on + injected fault + retry still reproduces the clean run."""
    rng = np.random.default_rng(2)
    points = rng.normal(size=(500, 2))
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
    plan = FaultPlan([FaultSpec("raise", 1, attempt=1)])

    def clean(machine):
        return shard_and_solve(points, 4, shards=4, coreset_size=64, seed=11, machine=machine)

    def faulted(machine):
        return shard_and_solve(
            points, 4, shards=4, coreset_size=64, seed=11, machine=machine,
            retry_policy=policy, fault_plan=plan,
        )

    base = _run(clean, backend_name)
    recovered = _run(faulted, backend_name, tmp_path / "fault.jsonl")
    assert np.array_equal(base.centers, recovered.centers)
    assert base.cost == recovered.cost
    assert base.true_cost == recovered.true_cost
    # the retry is visible in the trace even though the result is clean
    from repro.obs.report import load_trace

    events = load_trace(tmp_path / "fault.jsonl")
    assert any(e.get("cat") == "fault" and e["name"] == "task_fail" for e in events)
    if backend_name == "process":
        assert_coreset_batch_on_pool(tmp_path / "fault.jsonl")


def test_env_var_tracing_identical(tmp_path, monkeypatch):
    """REPRO_TRACE activation (not just trace_to) preserves results."""
    import repro.obs.tracer as tracer_mod

    instance = euclidean_instance(10, 30, seed=3)
    off = _run(lambda m: parallel_greedy(instance, epsilon=0.1, machine=m), "serial")

    set_tracer(None)
    monkeypatch.setenv(tracer_mod.TRACE_ENV, str(tmp_path / "env.jsonl"))
    monkeypatch.setattr(tracer_mod, "_env_tracer", None)
    monkeypatch.setattr(tracer_mod, "_env_path", None)
    try:
        on = _run(lambda m: parallel_greedy(instance, epsilon=0.1, machine=m), "serial")
    finally:
        tracer_mod.current_tracer().close()
        set_tracer(NULL_TRACER)
    _assert_fl_identical(off, on)
    assert (tmp_path / "env.jsonl").stat().st_size > 0
