"""The §7 CSR swap loop against its two oracles.

``parallel_local_search`` runs one body, the CSR swap loop of
:mod:`repro.core.local_search_sparse`, which keeps its service state
and per-edge swap terms across swaps and refreshes only the rows a
swap touches; a dense instance runs as its full CSR. It must agree
field for field — centers, cost bytes, the swap trace (ids and
objective bytes), the warm-start cost and the round counts — with

* the loop in :mod:`tests.reference.local_search_full`, which
  recomputes every row after each swap, on small integer-grid kNN
  instances full of duplicate points and distance ties;
* the dense ``O(k·n²)`` batch in
  :mod:`tests.reference.local_search_dense`, on small dense instances
  over an integer grid, where every distance and every sum is an exact
  integer, so the two evaluations agree to the bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import repro.core.local_search_sparse as body
from repro.bench.workloads import shard_scaling_suite
from repro.core.local_search import parallel_local_search
from repro.errors import ReproError
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance, _symmetrized_clustering_csr
from repro.pram.machine import PramMachine
from repro.shard import shard_and_solve
from repro.shard import solve as shard_solve
from tests.reference.local_search_dense import local_search_dense
from tests.reference.local_search_full import local_search_full


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _trace(sol):
    return [(a, c, _bits(v)) for a, c, v in sol.extra["swaps"]]


def assert_matches_oracle(instance, objective, *, oracle=local_search_full, seed=0, **kwargs):
    def solve(entry):
        try:
            return entry(instance, objective, machine=PramMachine(seed=seed), **kwargs)
        except ReproError as exc:
            return exc

    want = solve(oracle)
    got = solve(parallel_local_search)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return None
    assert got.centers.tobytes() == want.centers.tobytes()
    assert _bits(got.cost) == _bits(want.cost)
    assert _trace(got) == _trace(want)
    assert _bits(got.extra["initial_cost"]) == _bits(want.extra["initial_cost"])
    assert got.rounds == want.rounds
    return got


@st.composite
def grid_knn_instances(draw):
    """A kNN structure over points on a 5×5 integer grid (duplicates and
    ties galore), symmetrized as the kNN instance builders do, with

    * a fallback of ``+inf`` (a node whose stored candidates are all
      closed is served by the sentinel), twice the kNN radius, or a
      fraction of it — below some stored distances, so the fallback
      serves some nodes that store an open center;
    * k = 1 (no second center: the d2 sentinel), k = n − 1, or up to n / 2;
    * unit or drawn integer weights, and stored zeros of either sign.
    """
    n = draw(st.integers(2, 28))
    coords = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n)
    )
    pts = np.array(coords, dtype=float)
    neighbors = draw(st.integers(1, n))
    dist, near = cKDTree(pts).query(pts, k=neighbors)
    dist, near = dist.reshape(n, neighbors), near.reshape(n, neighbors)
    indptr, indices, data = _symmetrized_clustering_csr(
        n,
        np.repeat(np.arange(n, dtype=np.intp), neighbors),
        near.ravel().astype(np.intp),
        dist.ravel(),
    )
    if draw(st.booleans()):
        data = np.where(data == 0.0, -0.0, data)
    radius = dist.max(axis=1)
    fallback = draw(st.sampled_from(["inf", "radius", "low"]))
    if fallback == "inf":
        fb = np.full(n, np.inf)
    elif fallback == "radius":
        fb = 2.0 * radius
    else:
        fb = radius * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    k = draw(st.sampled_from([1, n - 1]) | st.integers(1, max(1, n // 2)))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return SparseClusteringInstance(
        indptr, indices, data, k, fallback=fb,
        weights=None if weights is None else np.array(weights, dtype=float),
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    instance=grid_knn_instances(),
    objective=st.sampled_from(["kmedian", "kmeans"]),
    epsilon=st.sampled_from([0.05, 0.3, 0.9]),
    warm=st.none() | st.lists(st.integers(0, 27), min_size=1, max_size=28),
    grouped=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_swap_loop_matches_full_recompute(instance, objective, epsilon, warm, grouped, seed):
    initial = None if warm is None else [c % instance.n for c in warm]
    cap = body._SWAP_MATRIX_CAP
    body._SWAP_MATRIX_CAP = 0 if grouped else cap
    try:
        assert_matches_oracle(
            instance, objective, seed=seed, epsilon=epsilon, initial=initial
        )
    finally:
        body._SWAP_MATRIX_CAP = cap


@st.composite
def grid_dense_instances(draw):
    """A dense instance over points on a 5×5 integer grid under the
    ℓ1 or ℓ∞ metric (integer distances: every k-means square and
    weighted sum is exact), with

    * k = 1 (no second center), k = n − 1, or any k up to n;
    * unit or drawn integer weights;
    * no warm start, or 1 to k + 1 drawn ids (more than k distinct ids
      must be refused by both).
    """
    n = draw(st.integers(1, 24))
    coords = draw(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n)
    )
    space = MetricSpace.from_points(
        np.array(coords, dtype=float), p=draw(st.sampled_from([1.0, np.inf]))
    )
    k = draw(st.sampled_from([1, max(1, n - 1)]) | st.integers(1, n))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    warm = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=k + 1))
    instance = ClusteringInstance(
        space, k, weights=None if weights is None else np.array(weights, dtype=float)
    )
    return instance, warm


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    drawn=grid_dense_instances(),
    objective=st.sampled_from(["kmedian", "kmeans"]),
    epsilon=st.sampled_from([0.05, 0.3, 0.9]),
    seed=st.integers(0, 2**16),
)
def test_dense_instances_match_the_dense_batch(drawn, objective, epsilon, seed):
    instance, initial = drawn
    assert_matches_oracle(
        instance, objective, oracle=local_search_dense, seed=seed,
        epsilon=epsilon, initial=initial,
    )


def test_grouped_path_runs_when_the_table_is_capped(monkeypatch):
    """The patched cap really moves both loops off the table."""
    calls = []
    grouped = body._grouped_best_swap
    monkeypatch.setattr(
        body, "_grouped_best_swap", lambda *a: calls.append(1) or grouped(*a)
    )
    monkeypatch.setattr(body, "_SWAP_MATRIX_CAP", 0)
    line = np.arange(12.0) % 5
    instance = SparseClusteringInstance.from_dense(np.abs(np.subtract.outer(line, line)), 3)
    assert assert_matches_oracle(instance, "kmedian", initial=[0, 1, 2]).extra["swaps"]
    assert calls


@pytest.mark.parametrize("variant", range(4))
def test_served_merged_instances_match_full_recompute(variant, monkeypatch):
    """The merged instances a served solve runs on (the serving
    benchmark's 400-point, 8-blob inputs: 4 identity shards, 32
    neighbours, k = 8), with the solve's own Gonzalez warm start."""
    ((_, points, _),) = shard_scaling_suite(variant, sizes=(400,), k=8, n_clusters=8)
    seen = []
    run, ratio = shard_solve._SOLVERS["kmedian"]

    def capture(instance, machine, epsilon, **kw):
        seen.append((instance, kw["initial"]))
        return run(instance, machine, epsilon, **kw)

    monkeypatch.setitem(shard_solve._SOLVERS, "kmedian", (capture, ratio))
    for seed in (1, 2, 3):
        shard_and_solve(points, 8, shards=4, coreset_size=128, neighbors=32, seed=seed)
    assert len(seen) == 3
    for instance, initial in seen:
        got = assert_matches_oracle(instance, "kmedian", initial=initial)
        assert got.extra["swaps"]
