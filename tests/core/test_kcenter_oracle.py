"""The one §6.1 k-center body against independent oracles.

``parallel_kcenter`` runs the CSR search of :mod:`repro.core.kcenter_sparse`
on every instance; the dense search in
:mod:`tests.reference.kcenter_dense` (stable-sort thresholds, the dense
MaxDom body per probe) is its oracle, field for field. The parts it is
built from are checked the same way: the internal MaxDom rounds against
the public entry and the dense MaxDom oracle on identically seeded
machines, and ``PramMachine.sorted_unique`` byte for byte against a
stable sort and an adjacent-difference pack.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.dominator_sparse import _max_dominator_rounds, max_dominator_set_sparse
from repro.core.kcenter import parallel_kcenter
from repro.metrics.generators import euclidean_clustering
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine
from tests.core.test_dominator import random_graph
from tests.reference.dominator_dense import max_dominator_set as max_dominator_set_dense
from tests.reference.kcenter_dense import kcenter_dense


def assert_matches_oracle(instance, seed):
    want = kcenter_dense(instance, machine=PramMachine(seed=seed))
    got = parallel_kcenter(instance, machine=PramMachine(seed=seed))
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.cost == want.cost
    assert got.extra["threshold"] == want.extra["threshold"]
    assert got.extra["probes"] == want.extra["probes"]
    assert got.extra["n_thresholds"] == want.extra["n_thresholds"]
    assert got.rounds == want.rounds
    return got


@st.composite
def grid_clusterings(draw):
    """Points on a 4×4 integer grid (duplicates and distance ties
    galore), unit or drawn weights, any budget ``1 ≤ k ≤ n``."""
    n = draw(st.integers(1, 14))
    coords = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    weights = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    space = MetricSpace.from_points(np.array(coords, dtype=float))
    return ClusteringInstance(space, k, weights=None if weights is None else np.array(weights, float))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid_clusterings(), st.integers(0, 2**16))
def test_kcenter_matches_dense_oracle(instance, seed):
    got = assert_matches_oracle(instance, seed)
    # A dense instance and its full CSR run the same search.
    csr = parallel_kcenter(
        SparseClusteringInstance.from_instance(instance), machine=PramMachine(seed=seed)
    )
    assert csr.centers.tobytes() == got.centers.tobytes()
    assert csr.extra == got.extra and csr.rounds == got.rounds


@pytest.mark.parametrize("seed", [0, 1])
def test_kcenter_matches_dense_oracle_at_bench_size(seed):
    assert_matches_oracle(euclidean_clustering(600, 8, seed=seed), seed)


# --------------------------------------------------------------------------
# The MaxDom rounds the k-center probes run.
# --------------------------------------------------------------------------

def _graphs():
    isolated = random_graph(40, 0.08, 3)
    isolated[:6] = isolated[:, :6] = False  # six isolated nodes
    return [
        ("random-sparse", random_graph(50, 0.05, 0)),
        ("random-dense", random_graph(30, 0.5, 1)),
        ("isolated-nodes", isolated),
        ("empty", np.zeros((7, 7), dtype=bool)),
        ("complete", ~np.eye(9, dtype=bool)),
        ("single-node", np.zeros((1, 1), dtype=bool)),
    ]


@pytest.mark.parametrize("diagonal", [False, True], ids=["loop-free", "self-loops"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name,A", _graphs(), ids=[g[0] for g in _graphs()])
def test_maxdom_rounds_match_public_entries(name, A, seed, diagonal):
    """The body the k-center probes call, on the graph as given or with
    every diagonal entry stored (as a threshold graph cut from a
    clustering instance keeps it), against the validated entry and the
    dense oracle."""
    csr = sparse.csr_matrix(A | np.eye(A.shape[0], dtype=bool) if diagonal else A)
    body = PramMachine(seed=seed)
    got = _max_dominator_rounds(body, csr.indptr, csr.indices, A.shape[0] + 1)
    for entry in (max_dominator_set_sparse, max_dominator_set_dense):
        m = PramMachine(seed=seed)
        want = entry(A, m)
        assert got.tobytes() == want.tobytes()
        assert body.ledger.rounds["maxdom"] == m.ledger.rounds["maxdom"]


# --------------------------------------------------------------------------
# sorted_unique: the default sort, with a stable sort's bytes.
# --------------------------------------------------------------------------

def _stable_sorted_unique(a):
    out = np.sort(a, kind="stable")
    if out.size:
        keep = np.ones(out.size, dtype=bool)
        keep[1:] = out[1:] != out[:-1]
        out = out[keep]
    return out


_NAN_PAYLOAD = np.array([0x7FF8000000000123, 0xFFF8000000000000], dtype=np.uint64).view(float)
_FLOAT_POOL = np.concatenate(
    [[0.0, -0.0, np.nan, 1.0, -1.0, 2.5, np.inf, -np.inf], _NAN_PAYLOAD]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, _FLOAT_POOL.size - 1), max_size=80), st.sampled_from([np.float64, np.float32]))
def test_sorted_unique_bytes_with_signed_zeros_and_nans(picks, dtype):
    a = _FLOAT_POOL[np.array(picks, dtype=np.intp)].astype(dtype)
    got = PramMachine().sorted_unique(a)
    want = _stable_sorted_unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool])
def test_sorted_unique_bytes_on_integers(dtype):
    a = np.random.default_rng(5).integers(0, 9, size=500).astype(dtype)
    got = PramMachine().sorted_unique(a)
    want = _stable_sorted_unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [float, np.int64])
def test_sorted_unique_bytes_on_empty(dtype):
    got = PramMachine().sorted_unique(np.array([], dtype=dtype))
    assert got.dtype == np.dtype(dtype) and got.size == 0


def test_sorted_unique_bytes_at_bench_size():
    """The bench instance's 360,000 distances, with some ±0.0 swapped in."""
    d = euclidean_clustering(600, 8, seed=2).D.ravel().copy()
    d[np.random.default_rng(0).integers(0, d.size, 300)] = -0.0
    got = PramMachine().sorted_unique(d)
    assert got.tobytes() == _stable_sorted_unique(d).tobytes()
