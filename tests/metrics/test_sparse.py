"""Tests for SparseFacilityLocationInstance, sparsifiers, and knn_instance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.generators import euclidean_instance, knn_instance
from repro.metrics.sparse import (
    SparseFacilityLocationInstance,
    knn_sparsify,
    threshold_sparsify,
)
from repro.util.csr import csr_transpose


@pytest.fixture
def dense():
    return euclidean_instance(6, 20, seed=3)


@pytest.fixture
def full(dense):
    return SparseFacilityLocationInstance.from_instance(dense)


class TestConstruction:
    def test_from_dense_shape(self, dense, full):
        assert full.n_facilities == dense.n_facilities
        assert full.n_clients == dense.n_clients
        assert full.nnz == dense.m
        assert full.m == dense.m  # m is nnz for sparse instances
        assert full.is_dense_representable

    def test_arrays_read_only(self, full):
        with pytest.raises(ValueError):
            full.data[0] = 1.0
        with pytest.raises(ValueError):
            full.f[0] = 1.0

    def test_rejects_negative_distance(self):
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            SparseFacilityLocationInstance(
                [0, 1], [0], [-1.0], [1.0], n_clients=2, fallback=[1.0, 1.0]
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInstanceError, match="finite"):
            SparseFacilityLocationInstance(
                [0, 1], [0], [np.inf], [1.0], n_clients=1
            )

    def test_rejects_bad_fallback_shape(self):
        with pytest.raises(InvalidInstanceError, match="fallback"):
            SparseFacilityLocationInstance(
                [0, 1], [0], [1.0], [1.0], n_clients=2, fallback=[1.0]
            )

    def test_rejects_uncovered_client_with_inf_fallback(self):
        # client 1 has no candidate and no finite fallback
        with pytest.raises(InvalidInstanceError, match="no candidate"):
            SparseFacilityLocationInstance([0, 1], [0], [1.0], [1.0], n_clients=2)

    def test_uncovered_client_with_finite_fallback_ok(self):
        inst = SparseFacilityLocationInstance(
            [0, 1], [0], [1.0], [1.0], n_clients=2, fallback=[np.inf, 3.0]
        )
        assert inst.cost([0]) == pytest.approx(1.0 + 1.0 + 3.0)

    def test_rejects_duplicate_candidate(self):
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            SparseFacilityLocationInstance(
                [0, 2], [1, 1], [1.0, 2.0], [1.0], n_clients=2
            )

    def test_from_scipy(self, dense):
        sparse = pytest.importorskip("scipy.sparse")
        A = sparse.csr_matrix(dense.D)
        inst = SparseFacilityLocationInstance.from_scipy(A, dense.f)
        # scipy drops the (rare) exact zeros, so compare per-entry
        assert inst.n_facilities == dense.n_facilities
        assert inst.nnz == A.nnz

    def test_from_scipy_leaves_the_callers_matrix_writable(self, dense):
        """The instance copies the caller's writable arrays instead of
        freezing them: a later in-place edit of the matrix works and
        does not reach the instance."""
        sparse = pytest.importorskip("scipy.sparse")
        A = sparse.csr_matrix(dense.D)
        inst = SparseFacilityLocationInstance.from_scipy(A, dense.f)
        before = inst.data.copy()
        A.data *= 2
        A.indices[0] = A.indices[1]
        np.testing.assert_array_equal(inst.data, before)
        assert inst.indices[0] != inst.indices[1]

    def test_every_array_read_only(self, full):
        for arr in (full.indptr, full.indices, full.data, full.f, full.fallback):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_read_only_view_of_a_writable_array_is_copied(self):
        data = np.array([1.0, 2.0])
        view = data[:]
        view.setflags(write=False)
        inst = SparseFacilityLocationInstance([0, 2], [0, 1], view, [1.0], n_clients=2)
        data[0] = 9.0
        assert inst.data[0] == 1.0

    def test_from_instance_copies_nothing(self, dense, full):
        assert np.shares_memory(full.data, dense.D)


class TestWithOpeningCosts:
    def test_shares_structure_and_reprices(self, full):
        cheap = full.with_opening_costs(np.full(full.n_facilities, 0.5))
        assert cheap.indices is full.indices and cheap.data is full.data
        np.testing.assert_array_equal(cheap.f, 0.5)
        assert not cheap.f.flags.writeable
        assert cheap.facility_cost([0, 1]) == 1.0
        assert not np.array_equal(full.f, cheap.f)

    @pytest.mark.parametrize("bad", [[1.0], [-1.0] * 4, [np.nan] * 4])
    def test_rejects_bad_costs(self, bad):
        inst = SparseFacilityLocationInstance.from_dense(np.ones((4, 3)), np.ones(4))
        with pytest.raises(InvalidInstanceError):
            inst.with_opening_costs(np.array(bad))


class TestObjective:
    @pytest.mark.parametrize("opened", [[0], [1, 3], [0, 2, 4, 5]])
    def test_dense_representable_matches_dense(self, dense, full, opened):
        assert full.cost(opened) == dense.cost(opened)
        assert full.facility_cost(opened) == dense.facility_cost(opened)
        assert full.connection_cost(opened) == dense.connection_cost(opened)
        np.testing.assert_array_equal(
            full.connection_distances(opened), dense.connection_distances(opened)
        )
        np.testing.assert_array_equal(full.assignment(opened), dense.assignment(opened))

    def test_fallback_caps_service_cost(self):
        inst = SparseFacilityLocationInstance(
            [0, 1, 2], [0, 0], [2.0, 5.0], [1.0, 1.0], n_clients=2,
            fallback=[0.5, 4.0],
        )
        d = inst.connection_distances([0])
        np.testing.assert_array_equal(d, [0.5, 4.0])
        assert inst.assignment([0]).tolist() == [-1, -1]

    def test_requires_at_least_one_open(self, full):
        with pytest.raises(InvalidParameterError):
            full.cost([])


class TestClientView:
    """The dense bridge: a CSR instance back in the dense shape."""

    def test_to_dense_round_trip(self, dense, full):
        back = full.to_dense()
        np.testing.assert_array_equal(back.D, dense.D)
        np.testing.assert_array_equal(back.f, dense.f)

    def test_to_dense_rejects_truncated(self, dense):
        trunc = knn_sparsify(dense, 3)
        with pytest.raises(InvalidInstanceError, match="dense-representable"):
            trunc.to_dense()


class TestKnnSparsify:
    def test_keeps_exactly_k_nearest(self, dense):
        trunc = knn_sparsify(dense, 2)
        counts = np.bincount(trunc.indices, minlength=dense.n_clients)
        assert np.all(counts == 2)
        assert trunc.nnz == 2 * dense.n_clients
        # kept distances per client are the smallest ones
        ct_indptr, _, ct_entry = csr_transpose(trunc.indptr, trunc.indices, trunc.n_clients)
        for j in range(dense.n_clients):
            kept = np.sort(trunc.data[ct_entry[ct_indptr[j] : ct_indptr[j + 1]]])
            best = np.sort(dense.D[:, j])[: kept.size]
            np.testing.assert_allclose(kept, best)

    def test_tied_metric_stays_sparse(self):
        """Fully tied distances must not defeat the truncation: exactly
        k entries per client survive, never the whole matrix."""
        from repro.metrics.instance import FacilityLocationInstance

        inst = FacilityLocationInstance(np.ones((30, 90)), np.ones(30))
        trunc = knn_sparsify(inst, 3)
        assert trunc.nnz == 3 * 90
        np.testing.assert_array_equal(
            np.bincount(trunc.indices, minlength=90), np.full(90, 3)
        )

    def test_full_k_is_dense_equal(self, dense):
        trunc = knn_sparsify(dense, dense.n_facilities, fallback_slack=1.0)
        assert trunc.nnz == dense.m
        assert np.all(np.isfinite(trunc.fallback))

    def test_rejects_bad_k(self, dense):
        with pytest.raises(InvalidParameterError):
            knn_sparsify(dense, 0)
        with pytest.raises(InvalidParameterError):
            knn_sparsify(dense, dense.n_facilities + 1)


class TestThresholdSparsify:
    def test_keeps_competitive_candidates(self, dense):
        trunc = threshold_sparsify(dense, 0.25)
        total = dense.D + dense.f[:, None]
        gamma = total.min(axis=0)
        rows = trunc.rows_flat()
        kept = trunc.f[rows] + trunc.data
        assert np.all(kept <= (1.0 + 0.25) * gamma[trunc.indices] + 1e-12)
        np.testing.assert_allclose(trunc.fallback, gamma)

    def test_every_client_keeps_its_best(self, dense):
        trunc = threshold_sparsify(dense, 0.01)
        counts = np.bincount(trunc.indices, minlength=dense.n_clients)
        assert counts.min() >= 1


class TestKnnInstance:
    def test_deterministic(self):
        a = knn_instance(30, 100, k=4, seed=7)
        b = knn_instance(30, 100, k=4, seed=7)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.f, b.f)
        np.testing.assert_array_equal(a.fallback, b.fallback)

    def test_shape_and_coverage(self):
        inst = knn_instance(25, 80, k=5, seed=1)
        assert inst.n_facilities == 25
        assert inst.n_clients == 80
        assert inst.nnz == 80 * 5
        counts = np.bincount(inst.indices, minlength=80)
        assert np.all(counts == 5)
        assert np.all(np.isfinite(inst.fallback))

    def test_matches_brute_force_knn(self):
        inst = knn_instance(12, 40, k=3, seed=2, dim=3)
        # rebuild the geometry with the same RNG stream
        from repro.util.rng import ensure_rng

        rng = ensure_rng(2)
        facilities = rng.random((12, 3))
        clients = rng.random((40, 3))
        D = np.linalg.norm(facilities[:, None, :] - clients[None, :, :], axis=2)
        ct_indptr, _, ct_entry = csr_transpose(inst.indptr, inst.indices, inst.n_clients)
        for j in range(40):
            kept = np.sort(inst.data[ct_entry[ct_indptr[j] : ct_indptr[j + 1]]])
            np.testing.assert_allclose(kept, np.sort(D[:, j])[:3])

    def test_clustered_clients(self):
        inst = knn_instance(20, 60, k=3, n_clusters=4, seed=3)
        assert inst.nnz == 180

    def test_k_one(self):
        inst = knn_instance(10, 30, k=1, seed=4)
        assert inst.nnz == 30

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParameterError):
            knn_instance(10, 30, k=11, seed=0)
        with pytest.raises(InvalidParameterError):
            knn_instance(10, 30, k=2, fallback_slack=-0.5, seed=0)


class TestBruteForceObjective:
    def test_truncated_cost_against_reference(self, dense):
        """Sparse objective = dense objective with non-candidates masked
        to +inf and the fallback column appended."""
        trunc = knn_sparsify(dense, 3)
        rng = np.random.default_rng(0)
        masked = np.full((dense.n_facilities, dense.n_clients), np.inf)
        rows = trunc.rows_flat()
        masked[rows, trunc.indices] = trunc.data
        for _ in range(10):
            opened = np.flatnonzero(rng.random(dense.n_facilities) < 0.5)
            if opened.size == 0:
                opened = np.array([0])
            ref = np.minimum(masked[opened].min(axis=0), trunc.fallback)
            expected = float(dense.f[opened].sum() + ref.sum())
            assert trunc.cost(opened) == pytest.approx(expected)


# --------------------------------------------------------------------------
# SparseClusteringInstance (PR 4)
# --------------------------------------------------------------------------

from repro.metrics.generators import (  # noqa: E402
    euclidean_clustering,
    knn_clustering_instance,
)
from repro.metrics.instance import ClusteringInstance  # noqa: E402
from repro.metrics.space import MetricSpace  # noqa: E402
from repro.metrics.sparse import SparseClusteringInstance  # noqa: E402


@pytest.fixture
def dense_clustering():
    return euclidean_clustering(18, 3, seed=7)


@pytest.fixture
def full_clustering(dense_clustering):
    return SparseClusteringInstance.from_instance(dense_clustering)


class TestSparseClusteringConstruction:
    def test_from_instance_shape(self, dense_clustering, full_clustering):
        sp = full_clustering
        assert sp.n == dense_clustering.n
        assert sp.k == dense_clustering.k
        assert sp.nnz == dense_clustering.n**2
        assert sp.m == sp.nnz
        assert sp.is_dense_representable

    def test_to_dense_round_trip(self, dense_clustering, full_clustering):
        back = full_clustering.to_dense()
        assert np.array_equal(back.D, dense_clustering.D)
        assert back.k == dense_clustering.k

    def test_truncated_not_dense_representable(self, dense_clustering):
        sp = knn_sparsify(dense_clustering, 6)
        assert not sp.is_dense_representable
        with pytest.raises(InvalidInstanceError, match="dense-representable"):
            sp.to_dense()

    def test_arrays_read_only(self, full_clustering):
        with pytest.raises(ValueError):
            full_clustering.data[0] = 1.0
        with pytest.raises(ValueError):
            full_clustering.fallback[0] = 1.0
        with pytest.raises(ValueError):
            full_clustering.indices[0] = 1
        with pytest.raises(ValueError):
            full_clustering.indptr[0] = 1

    def test_callers_index_arrays_stay_out_of_the_instance(self):
        """Writable ``intp`` inputs are copied: editing them after
        construction leaves the validated structure as it was."""
        indptr = np.array([0, 2, 4], dtype=np.intp)
        indices = np.array([0, 1, 0, 1], dtype=np.intp)
        data = np.array([0.0, 1.0, 1.0, 0.0])
        inst = SparseClusteringInstance(indptr, indices, data, 1)
        indices[1] = 0
        indptr[1] = 3
        data[1] = 7.0
        np.testing.assert_array_equal(inst.indices[inst.indptr[0]:inst.indptr[1]], [0, 1])
        assert inst.data[1] == 1.0

    def test_read_only_inputs_are_kept(self, dense_clustering, full_clustering):
        """from_instance hands over read-only arrays, so the instance
        views the dense matrix instead of copying it."""
        assert np.shares_memory(full_clustering.data, dense_clustering.D)
        again = SparseClusteringInstance(
            full_clustering.indptr, full_clustering.indices, full_clustering.data, 2
        )
        assert again.indices is full_clustering.indices
        assert again.data is full_clustering.data

    def test_rejects_missing_diagonal(self):
        # 2 nodes, edges (0,1)/(1,0) only — no self candidates.
        with pytest.raises(InvalidInstanceError, match="diagonal"):
            SparseClusteringInstance([0, 1, 2], [1, 0], [1.0, 1.0], 1)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidInstanceError, match="diagonal"):
            SparseClusteringInstance([0, 1, 2], [0, 1], [0.5, 0.0], 1)

    def test_rejects_asymmetric_structure(self):
        # (0,1) stored, (1,0) absent.
        with pytest.raises(InvalidInstanceError, match="symmetric"):
            SparseClusteringInstance(
                [0, 2, 3], [0, 1, 1], [0.0, 1.0, 0.0], 1
            )

    def test_rejects_asymmetric_values(self):
        with pytest.raises(InvalidInstanceError, match="symmetric"):
            SparseClusteringInstance(
                [0, 2, 4], [0, 1, 0, 1], [0.0, 1.0, 2.0, 0.0], 1
            )

    def test_rejects_unsorted_rows(self):
        with pytest.raises(InvalidInstanceError, match="ascending"):
            SparseClusteringInstance(
                [0, 2, 4], [1, 0, 0, 1], [1.0, 0.0, 1.0, 0.0], 1
            )

    def test_rejects_bad_budget(self, dense_clustering):
        with pytest.raises(InvalidParameterError, match="k must be"):
            SparseClusteringInstance.from_dense(dense_clustering.D, 0)
        with pytest.raises(InvalidParameterError, match="k must be"):
            SparseClusteringInstance.from_dense(dense_clustering.D, dense_clustering.n + 1)

    def test_rejects_bad_fallback(self, dense_clustering):
        D = dense_clustering.D
        with pytest.raises(InvalidInstanceError, match="fallback"):
            SparseClusteringInstance.from_dense(D, 2, fallback=np.ones(3))
        with pytest.raises(InvalidInstanceError, match="non-negative"):
            SparseClusteringInstance.from_dense(D, 2, fallback=-np.ones(D.shape[0]))

    def test_with_budget(self, full_clustering):
        other = full_clustering.with_budget(5)
        assert other.k == 5
        assert other.nnz == full_clustering.nnz


class TestSparseClusteringObjectives:
    def test_match_dense_exactly(self, dense_clustering, full_clustering):
        rng = np.random.default_rng(0)
        for _ in range(5):
            centers = np.unique(rng.integers(0, dense_clustering.n, size=4))
            for obj in ("kmedian_cost", "kmeans_cost", "kcenter_cost"):
                assert getattr(full_clustering, obj)(centers) == getattr(
                    dense_clustering, obj
                )(centers)

    def test_boolean_mask_accepted(self, dense_clustering, full_clustering):
        mask = np.zeros(dense_clustering.n, dtype=bool)
        mask[[1, 4]] = True
        assert full_clustering.kmedian_cost(mask) == dense_clustering.kmedian_cost(mask)

    def test_fallback_caps_uncovered_nodes(self):
        # Two far nodes, only diagonal stored, finite fallback.
        sp = SparseClusteringInstance(
            [0, 1, 2], [0, 1], [0.0, 0.0], 1, fallback=[5.0, 7.0]
        )
        assert sp.kmedian_cost([0]) == 7.0  # node 1 pays its fallback
        assert sp.kcenter_cost([0]) == 7.0
        assert sp.kmeans_cost([0]) == 49.0

    def test_check_budget(self, full_clustering):
        with pytest.raises(InvalidParameterError, match="centers"):
            full_clustering.check_budget(np.arange(full_clustering.k + 1))


class TestClusteringSparsifiers:
    def test_knn_structure(self, dense_clustering):
        sp = knn_sparsify(dense_clustering, 6)
        n = dense_clustering.n
        assert sp.n == n and sp.k == dense_clustering.k
        # symmetrized union: at least the kNN edges, at most double.
        assert n * 6 <= sp.nnz <= n * 6 * 2
        # diagonal present: kmedian of everything is 0
        assert sp.kmedian_cost(np.arange(n)) == 0.0

    def test_knn_fallback_is_scaled_radius(self, dense_clustering):
        sp = knn_sparsify(dense_clustering, 6, fallback_slack=0.5)
        D = dense_clustering.D
        radius = np.sort(D, axis=1)[:, 5]  # 6th nearest including self
        assert np.allclose(sp.fallback, 1.5 * radius)

    def test_knn_all_neighbors_is_full(self, dense_clustering):
        sp = knn_sparsify(dense_clustering, dense_clustering.n)
        assert sp.nnz == dense_clustering.n**2

    def test_threshold_structure(self, dense_clustering):
        t = 0.4
        sp = threshold_sparsify(dense_clustering, t)
        assert np.all(sp.data <= t)
        assert np.all(sp.fallback == t)
        # every stored off-diagonal pair of D within t survives
        D = dense_clustering.D
        assert sp.nnz == int((D <= t).sum())

    def test_threshold_rejects_nonpositive(self, dense_clustering):
        with pytest.raises(InvalidParameterError, match="radius"):
            threshold_sparsify(dense_clustering, 0.0)

    def test_dispatch_returns_right_types(self, dense_clustering, dense):
        assert isinstance(knn_sparsify(dense_clustering, 4), SparseClusteringInstance)
        assert isinstance(knn_sparsify(dense, 4), SparseFacilityLocationInstance)
        assert isinstance(
            threshold_sparsify(dense_clustering, 0.5), SparseClusteringInstance
        )
        assert isinstance(
            threshold_sparsify(dense, 0.5), SparseFacilityLocationInstance
        )


class TestKnnClusteringInstance:
    def test_deterministic(self):
        a = knn_clustering_instance(200, 5, neighbors=8, seed=4)
        b = knn_clustering_instance(200, 5, neighbors=8, seed=4)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.fallback, b.fallback)

    def test_memory_scales_with_neighbors(self):
        sp = knn_clustering_instance(400, 5, neighbors=8, seed=0)
        assert sp.nnz <= 400 * 8 * 2  # symmetrized union, diag inside kNN
        assert sp.m == sp.nnz

    def test_blob_mode(self):
        sp = knn_clustering_instance(120, 4, neighbors=6, n_clusters=4, seed=1)
        assert sp.n == 120

    def test_matches_dense_knn_sparsify(self):
        """KD-tree-first construction == dense-then-sparsify on the
        same geometry (same points, same neighbor count)."""
        rng = np.random.default_rng(9)
        pts = rng.random((60, 2))
        dense = ClusteringInstance(MetricSpace.from_points(pts), 4)
        via_dense = knn_sparsify(dense, 7, fallback_slack=1.0)
        from scipy.spatial import cKDTree

        from repro.metrics.sparse import _symmetrized_clustering_csr

        dist, near = cKDTree(pts).query(pts, k=7)
        rows = np.repeat(np.arange(60, dtype=np.intp), 7)
        indptr, indices, data = _symmetrized_clustering_csr(
            60, rows, near.ravel().astype(np.intp), dist.ravel()
        )
        direct = SparseClusteringInstance(
            indptr, indices, data, 4, fallback=2.0 * dist[:, -1]
        )
        assert np.array_equal(direct.indptr, via_dense.indptr)
        assert np.array_equal(direct.indices, via_dense.indices)
        assert np.allclose(direct.data, via_dense.data)

    def test_io_round_trip(self, tmp_path):
        from repro.metrics.io import load_instance, save_instance

        sp = knn_clustering_instance(80, 3, neighbors=5, seed=2)
        path = tmp_path / "cluster.npz"
        save_instance(path, sp)
        back = load_instance(path)
        assert isinstance(back, SparseClusteringInstance)
        assert np.array_equal(back.indptr, sp.indptr)
        assert np.array_equal(back.indices, sp.indices)
        assert np.array_equal(back.data, sp.data)
        assert np.array_equal(back.fallback, sp.fallback)
        assert back.k == sp.k


def _symmetrized_reference(n, rows, cols, vals):
    """The two-key ``np.lexsort`` form of ``_symmetrized_clustering_csr``,
    kept as the oracle for its single-key sort."""
    diag = np.arange(n, dtype=np.intp)
    r = np.concatenate([rows, cols, diag])
    c = np.concatenate([cols, rows, diag])
    v = np.concatenate([vals, vals, np.zeros(n)])
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], v[order]
    keep = np.concatenate(([True], (np.diff(r) != 0) | (np.diff(c) != 0)))
    r, c, v = r[keep], c[keep], v[keep]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n)))).astype(np.intp)
    return indptr, c.astype(np.intp), v


@st.composite
def _edge_lists(draw):
    """``(n, rows, cols, vals)``: few distinct endpoints, so duplicate
    pairs in both orientations, self-loops and empty rows are common."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 40))
    node = st.integers(0, n - 1)
    rows = draw(st.lists(node, min_size=m, max_size=m))
    cols = draw(st.lists(node, min_size=m, max_size=m))
    vals = draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m))
    dtype = draw(st.sampled_from([np.intp, np.int32]))
    return (
        n,
        np.asarray(rows, dtype=dtype),
        np.asarray(cols, dtype=dtype),
        np.asarray(vals, dtype=float),
    )


@settings(max_examples=200, deadline=None)
@given(_edge_lists())
def test_symmetrized_csr_matches_lexsort_reference(edges):
    from repro.metrics.sparse import _symmetrized_clustering_csr

    got = _symmetrized_clustering_csr(*edges)
    want = _symmetrized_reference(*edges)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


# The default-kind sort keeps the stable sort's first occurrences.

_SIGNED_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0]) | st.floats(0.0, 10.0)


@st.composite
def _duplicate_edge_lists(draw):
    """``(n, rows, cols, vals)`` whose endpoints come from the first
    ``used <= n`` nodes, so the remaining nodes are isolated; a pair
    repeats, in either orientation, with independently drawn values
    (``±0.0`` among them). ``n = 1`` is drawn often."""
    n = draw(st.integers(1, 3) | st.integers(1, 40))
    used = draw(st.integers(1, n))
    m = draw(st.integers(0, 120))
    node = st.integers(0, used - 1)
    rows = draw(st.lists(node, min_size=m, max_size=m))
    cols = draw(st.lists(node, min_size=m, max_size=m))
    vals = draw(st.lists(_SIGNED_VALUES, min_size=m, max_size=m))
    dtype = draw(st.sampled_from([np.intp, np.int32]))
    return (
        n,
        np.asarray(rows, dtype=dtype),
        np.asarray(cols, dtype=dtype),
        np.asarray(vals, dtype=float),
    )


def _assert_same_csr(got, want):
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(_duplicate_edge_lists())
def test_symmetrized_csr_matches_stable_sort_bytes(edges):
    from repro.metrics.sparse import _symmetrized_clustering_csr
    from tests.reference.symmetrize_stable import symmetrized_clustering_csr_stable

    _assert_same_csr(
        _symmetrized_clustering_csr(*edges), symmetrized_clustering_csr_stable(*edges)
    )


def test_symmetrized_csr_first_occurrence_wins():
    """A repeated pair keeps the value of its first occurrence; the
    transposed copies come after every given edge, so the pair (1, 0)
    below keeps the second edge's value, not the first edge's."""
    from repro.metrics.sparse import _symmetrized_clustering_csr

    rows = np.array([0, 1, 0, 2], dtype=np.intp)
    cols = np.array([1, 0, 1, 2], dtype=np.intp)
    vals = np.array([1.0, 2.0, 3.0, -0.0])
    indptr, indices, data = _symmetrized_clustering_csr(3, rows, cols, vals)
    assert indptr.tolist() == [0, 2, 4, 5]
    assert indices.tolist() == [0, 1, 0, 1, 2]
    assert data.tolist() == [0.0, 1.0, 2.0, 0.0, -0.0]
    assert np.signbit(data[4])  # the given -0.0 precedes the diagonal's +0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,neighbors", [(600, 16), (3000, 64)])
def test_symmetrized_csr_matches_stable_sort_on_knn_graphs(n, neighbors, seed):
    """kNN edge lists at the sizes the kNN instance builders and the served merge
    sort, with duplicate points, so long runs of equal keys reach the
    default sort's partitioning, not just its insertion sort. Each edge
    carries a distinct value (a kNN distance is the same from both
    ends, which would hide a wrong occurrence)."""
    from scipy.spatial import cKDTree

    from repro.metrics.sparse import _symmetrized_clustering_csr
    from tests.reference.symmetrize_stable import symmetrized_clustering_csr_stable

    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 12, size=(n, 2)).astype(float)
    dist, near = cKDTree(pts).query(pts, k=neighbors)
    edges = (
        n,
        np.repeat(np.arange(n, dtype=np.intp), neighbors),
        near.ravel().astype(np.intp),
        dist.ravel() + rng.permutation(dist.size) / dist.size,
    )
    _assert_same_csr(
        _symmetrized_clustering_csr(*edges), symmetrized_clustering_csr_stable(*edges)
    )
