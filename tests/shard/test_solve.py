"""The shard-and-conquer driver: merge semantics, the identity-pipeline
byte-parity anchor (shards=1 ≡ direct solve, across backends), the full
scale pipeline, and the composed accounting invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.metrics.generators import knn_clustering_instance
from repro.obs import trace_to
from repro.obs.report import load_trace
from repro.pram.machine import PramMachine
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_kmedian
from repro.shard.coreset import build_coreset
from repro.shard.merge import merge_coresets
from repro.shard.solve import shard_and_solve


@pytest.fixture
def points():
    rng = np.random.default_rng(1)
    centers = rng.random((6, 2))
    return centers[rng.integers(0, 6, 1200)] + rng.normal(scale=0.04, size=(1200, 2))


# -- merge ------------------------------------------------------------------

def test_merge_builds_weighted_instance(points):
    cs = [
        build_coreset(points[:600], 50, seed=1, origin=np.arange(600)),
        build_coreset(points[600:], 50, seed=2, origin=np.arange(600, 1200)),
    ]
    inst, origin, merged_pts = merge_coresets(cs, 5, neighbors=12)
    assert inst.n == 100
    assert not inst.has_unit_weights
    assert inst.total_weight == pytest.approx(1200.0)
    assert origin.shape == (100,)
    assert np.allclose(points[origin], merged_pts)


def test_merge_rejects_budget_overflow(points):
    cs = [build_coreset(points[:600], 10, seed=1)]
    with pytest.raises(InvalidParameterError, match="raise"):
        merge_coresets(cs, 50)
    with pytest.raises(InvalidParameterError):
        merge_coresets([], 2)
    with pytest.raises(InvalidParameterError):
        merge_coresets([object()], 2)


def test_k_over_merged_coreset_refused_before_any_pass(points, tmp_path):
    """Two shards of one representative each can never hold k=5: the
    driver refuses the k up front, before the partition and coreset
    passes, instead of failing in the merge after them."""
    path = tmp_path / "t.jsonl"
    with trace_to(path) as tracer:
        with pytest.raises(InvalidParameterError, match="k=5 exceeds the 2"):
            shard_and_solve(points, 5, shards=2, coreset_size=1, seed=0)
        tracer.flush()
    events = load_trace(path) if path.exists() else []
    assert not {"shard.partition", "shard.coreset"} & {e["name"] for e in events}
    # coreset="none" keeps every point, so the same budget is solvable
    sol = shard_and_solve(points, 5, shards=2, coreset="none", coreset_size=1, seed=0)
    assert sol.centers.size <= 5


# -- identity pipeline: byte parity with the direct solvers -----------------

@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_shards1_kmedian_byte_identical_to_direct(backend):
    inst = knn_clustering_instance(300, 10, neighbors=48, seed=3)
    direct = parallel_kmedian(inst, epsilon=0.5, machine=PramMachine(backend=backend, seed=7))
    via = shard_and_solve(
        inst, 10, shards=1, solver="kmedian", seed=7, epsilon=0.5, backend=backend
    )
    assert np.array_equal(np.sort(direct.centers), via.centers)
    assert direct.cost == via.cost
    assert via.extra["identity"] and via.movement == 0.0


def test_shards1_other_solvers_match_direct():
    inst = knn_clustering_instance(260, 9, neighbors=48, seed=5)
    kc = parallel_kcenter(inst, seed=11)
    via_kc = shard_and_solve(inst, 9, shards=1, solver="kcenter", seed=11)
    assert np.array_equal(np.sort(kc.centers), via_kc.centers)
    assert kc.cost == via_kc.cost

    lag = parallel_kmedian_lagrangian(inst, seed=11, epsilon=0.2)
    via_lag = shard_and_solve(
        inst, 9, shards=1, solver="kmedian_lagrangian", seed=11, epsilon=0.2
    )
    assert np.array_equal(np.sort(lag.centers), via_lag.centers)
    assert lag.cost == via_lag.cost


def test_instance_source_guardrails():
    inst = knn_clustering_instance(100, 5, neighbors=32, seed=1)
    with pytest.raises(InvalidParameterError, match="shards=1"):
        shard_and_solve(inst, 5, shards=4)
    with pytest.raises(InvalidParameterError, match="weights"):
        shard_and_solve(inst, 5, shards=1, weights=np.ones(100))
    with pytest.raises(InvalidParameterError, match="solver"):
        shard_and_solve(inst, 5, shards=1, solver="dbscan")


# -- the scale pipeline -----------------------------------------------------

@pytest.mark.parametrize("partition", ["random", "grid", "locality"])
def test_pipeline_partitions(points, partition):
    sol = shard_and_solve(
        points, 6, shards=4, coreset_size=80, partition=partition, seed=2
    )
    assert sol.centers.size <= 6
    assert np.all(sol.centers < 1200)
    assert sol.shard_sizes.sum() == 1200
    # centers are original point ids; true cost is their exact objective
    d = np.min(
        np.linalg.norm(points[:, None, :] - points[sol.centers][None, :, :], axis=2),
        axis=1,
    )
    assert sol.true_cost == pytest.approx(d.sum())


@pytest.mark.parametrize("solver", ["kmedian", "kmeans", "kcenter", "kmedian_lagrangian"])
def test_pipeline_solvers(points, solver):
    sol = shard_and_solve(
        points, 5, shards=3, coreset_size=60, solver=solver, seed=4, neighbors=12
    )
    assert sol.centers.size <= 5
    assert sol.true_cost > 0


def test_movement_bound_invariant(points):
    """cost_true ≤ exact-coreset cost + movement (triangle inequality)
    — the additive term the composed accounting charges."""
    sol = shard_and_solve(points, 6, shards=4, coreset_size=80, seed=3)
    exact = sol.extra["merged_cost_exact"]
    assert sol.true_cost <= exact + sol.movement + 1e-9
    assert exact <= sol.true_cost + sol.movement + 1e-9
    assert sol.bound is not None
    assert sol.bound.additive_term == pytest.approx(6.5 * sol.movement)
    # the merged instance holds at most coreset_size points per shard
    assert sol.extra["merged_n"] <= 4 * 80


def test_backend_scheduling_invariance(points):
    sols = [
        shard_and_solve(points, 6, shards=4, coreset_size=80, seed=9, backend=b)
        for b in ("serial", "thread", "process")
    ]
    for other in sols[1:]:
        assert np.array_equal(sols[0].centers, other.centers)
        assert sols[0].cost == other.cost
        assert sols[0].true_cost == other.true_cost


def test_weighted_input_composes(points):
    """A weighted input: coresets aggregate the given weights, and the
    true objective is the weighted one."""
    rng = np.random.default_rng(8)
    w = rng.uniform(0.5, 3.0, 1200)
    sol = shard_and_solve(points, 5, shards=3, coreset_size=70, weights=w, seed=6)
    d = np.min(
        np.linalg.norm(points[:, None, :] - points[sol.centers][None, :, :], axis=2),
        axis=1,
    )
    assert sol.true_cost == pytest.approx(np.sum(w * d))


def test_identity_scale_path_equals_direct_knn(points):
    """shards=1 + coreset='none' over points builds exactly the kNN
    instance of the full point set: the solved objective must agree
    with evaluating the returned centers on that instance directly."""
    from repro.metrics.generators import knn_clustering_from_points

    sol = shard_and_solve(
        points, 8, shards=1, coreset="none", neighbors=24, seed=5,
        solver="kmedian", epsilon=0.5,
    )
    assert sol.movement == 0.0
    assert np.array_equal(sol.centers, sol.merged_centers)
    inst = knn_clustering_from_points(points, 8, neighbors=24)
    assert sol.cost == pytest.approx(inst.kmedian_cost(sol.merged_centers))


def test_rounds_and_ledger_recorded(points):
    sol = shard_and_solve(points, 5, shards=3, coreset_size=60, seed=1)
    assert sol.rounds["shard_partition"] == 1
    assert sol.rounds["shard_coreset"] == 1
    assert sol.rounds["shard_merge"] == 1
    assert sol.model_costs.work > 0
