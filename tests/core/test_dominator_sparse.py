"""Lemma 3.1 remark: sparse dominator sets — same semantics, O(|E|) rounds."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.dominator_sparse import (
    _to_csr,
    max_dominator_set_sparse,
    max_u_dominator_set_sparse,
)
from repro.errors import ConvergenceError, InvalidParameterError
from repro.pram.machine import PramMachine
from tests.core.test_dominator import assert_valid_maxdom, random_graph


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.6])
    def test_random_graphs_valid(self, seed, p):
        A = random_graph(24, p, seed)
        sel = max_dominator_set_sparse(sparse.csr_matrix(A), PramMachine(seed=seed))
        assert_valid_maxdom(A, sel)

    def test_accepts_dense_input(self, machine):
        A = random_graph(15, 0.2, 0)
        sel = max_dominator_set_sparse(A, machine)
        assert_valid_maxdom(A, sel)

    def test_matches_dense_variant_distribution(self):
        """Same priorities (same machine seed) ⇒ identical selection to
        the dense implementation round-for-round."""
        from tests.reference.dominator_dense import max_dominator_set

        A = random_graph(30, 0.15, 3)
        dense = max_dominator_set(A, PramMachine(seed=42))
        sparse_sel = max_dominator_set_sparse(sparse.csr_matrix(A), PramMachine(seed=42))
        assert np.array_equal(dense, sparse_sel)

    def test_empty_graph_selects_all(self, machine):
        A = sparse.csr_matrix((5, 5), dtype=bool)
        assert max_dominator_set_sparse(A, machine).all()

    def test_complete_graph_selects_one(self, machine):
        A = ~np.eye(8, dtype=bool)
        assert max_dominator_set_sparse(A, machine).sum() == 1

    @pytest.mark.parametrize("h", [128, 200])
    def test_complete_bipartite_selects_one(self, h):
        """Any two nodes of K_{h,h} are within two hops, so MaxDom keeps
        exactly one. Each node then has h ≥ 128 hit neighbours: the
        two-hop exclusion count must not wrap in a narrow integer."""
        A = np.zeros((2 * h, 2 * h), dtype=bool)
        A[:h, h:] = True
        A[h:, :h] = True
        sel = max_dominator_set_sparse(sparse.csr_matrix(A), PramMachine(seed=0))
        assert sel.sum() == 1

    def test_zero_nodes(self, machine):
        assert max_dominator_set_sparse(sparse.csr_matrix((0, 0)), machine).size == 0

    def test_self_loops_removed(self, machine):
        A = sparse.csr_matrix(np.eye(4, dtype=bool))
        assert max_dominator_set_sparse(A, machine).all()


class TestClusteringParityAtScale:
    def test_dense_and_csr_clustering_identical_at_n1200(self):
        """Seeded k-center and k-median give the same answer on a dense
        instance and on its full CSR twin at n=1200, where threshold-graph
        degrees pass 128 and sparse MaxDom's hit counts must not wrap.
        k-center's dense side is the test-only dense search."""
        from repro.core.kcenter import parallel_kcenter
        from repro.core.local_search import parallel_kmedian
        from repro.metrics.generators import euclidean_clustering
        from repro.metrics.sparse import SparseClusteringInstance
        from tests.reference.kcenter_dense import kcenter_dense

        dense = euclidean_clustering(1200, 8, seed=0)
        csr = SparseClusteringInstance.from_instance(dense)
        a = kcenter_dense(dense, machine=PramMachine(seed=1))
        b = parallel_kcenter(csr, machine=PramMachine(seed=1))
        assert a.extra["threshold"] == b.extra["threshold"]
        assert np.array_equal(a.centers, b.centers)
        a = parallel_kmedian(dense, machine=PramMachine(seed=1))
        b = parallel_kmedian(csr, machine=PramMachine(seed=1))
        assert np.array_equal(a.centers, b.centers)
        assert a.cost == b.cost


class TestCosts:
    def test_work_scales_with_edges_not_n_squared(self):
        """On a bounded-degree graph the sparse variant's per-round work
        is O(|E|) ≪ n²: compare charged work against the dense one."""
        from tests.reference.dominator_dense import max_dominator_set

        n = 256
        A = random_graph(n, 6.0 / n, 0)  # ~6n/2 edges
        md = PramMachine(seed=1)
        max_dominator_set(A, md)
        ms = PramMachine(seed=1)
        max_dominator_set_sparse(sparse.csr_matrix(A), ms)
        assert ms.ledger.work < md.ledger.work / 10

    def test_rounds_counted(self, machine):
        A = random_graph(40, 0.1, 2)
        max_dominator_set_sparse(A, machine)
        assert machine.ledger.rounds["maxdom"] >= 1


class TestValidation:
    def test_rejects_nonsquare(self, machine):
        with pytest.raises(InvalidParameterError, match="square"):
            max_dominator_set_sparse(sparse.csr_matrix((2, 3)), machine)

    def test_rejects_asymmetric(self, machine):
        A = sparse.csr_matrix(np.array([[0, 1], [0, 0]], dtype=bool))
        with pytest.raises(InvalidParameterError, match="symmetric"):
            max_dominator_set_sparse(A, machine)

    def test_round_cap(self, machine):
        A = random_graph(12, 0.3, 0)
        with pytest.raises(ConvergenceError):
            max_dominator_set_sparse(A, machine, max_rounds=0)


class TestToCsr:
    """The CSR-native cleanup (no LIL round-trip) must behave exactly
    like the old conversion: square/symmetric validation, diagonal
    dropped, canonical sorted structure."""

    def test_diagonal_dropped_in_csr(self):
        A = sparse.csr_matrix(
            np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        )
        B = _to_csr(A)
        assert sparse.isspmatrix_csr(B)
        assert B.diagonal().sum() == 0
        expected = A.toarray().copy()
        np.fill_diagonal(expected, False)
        np.testing.assert_array_equal(B.toarray(), expected)

    def test_structure_is_canonical(self):
        A = random_graph(20, 0.3, 1)
        np.fill_diagonal(A, True)
        B = _to_csr(sparse.csr_matrix(A))
        # sorted, in-range, duplicate-free — validated inside _to_csr;
        # spot-check the row ordering here
        for i in range(20):
            row = B.indices[B.indptr[i] : B.indptr[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_selections_unchanged_by_rewrite(self):
        """Same seeded machine ⇒ same selections whether or not the
        input carried a diagonal (cleanup is semantics-preserving)."""
        A = random_graph(25, 0.2, 4)
        with_diag = A.copy()
        np.fill_diagonal(with_diag, True)
        a = max_dominator_set_sparse(sparse.csr_matrix(A), PramMachine(seed=8))
        b = max_dominator_set_sparse(sparse.csr_matrix(with_diag), PramMachine(seed=8))
        np.testing.assert_array_equal(a, b)


class TestMaxUDomSparse:
    def test_explicit_stored_zeros_are_not_edges(self):
        """A stored False entry must behave exactly like an absent one
        (dense parity: the dense matrix reads it as no-edge)."""
        from tests.reference.dominator_dense import max_u_dominator_set

        rng = np.random.default_rng(3)
        dense_B = rng.random((10, 6)) < 0.3
        superset = (rng.random((10, 6)) < 0.7) | dense_B
        rows, cols = np.nonzero(superset)
        data = dense_B[rows, cols].astype(float)  # 0.0 at non-edges
        with_zeros = sparse.csr_matrix((data, (rows, cols)), shape=(10, 6))
        assert with_zeros.nnz > int(dense_B.sum())  # zeros really stored
        a = max_u_dominator_set(dense_B, PramMachine(seed=3))
        b = max_u_dominator_set_sparse(with_zeros, PramMachine(seed=3))
        np.testing.assert_array_equal(a, b)

    def test_matches_dense_selections(self):
        from tests.reference.dominator_dense import max_u_dominator_set

        for seed in range(5):
            rng = np.random.default_rng(seed)
            B = rng.random((20, 12)) < 0.3
            a = max_u_dominator_set(B, PramMachine(seed=31))
            b = max_u_dominator_set_sparse(sparse.csr_matrix(B), PramMachine(seed=31))
            np.testing.assert_array_equal(a, b)

    def test_isolated_u_nodes_always_selected(self, machine):
        B = np.zeros((4, 3), dtype=bool)
        assert max_u_dominator_set_sparse(B, machine).all()

    def test_candidates_mask_respected(self, machine):
        rng = np.random.default_rng(2)
        B = rng.random((15, 8)) < 0.4
        cand = rng.random(15) < 0.5
        sel = max_u_dominator_set_sparse(B, machine, candidates=cand)
        assert not np.any(sel & ~cand)

    def test_no_shared_v_neighbor(self, machine):
        """Selected U-nodes never share a V-neighbor (MIS of H')."""
        rng = np.random.default_rng(7)
        B = rng.random((18, 10)) < 0.3
        sel = max_u_dominator_set_sparse(B, machine)
        chosen = np.flatnonzero(sel)
        for a in chosen:
            for b in chosen:
                if a < b:
                    assert not np.any(B[a] & B[b])

    def test_bad_candidates_shape(self, machine):
        with pytest.raises(InvalidParameterError, match="candidates"):
            max_u_dominator_set_sparse(
                np.zeros((3, 2), dtype=bool), machine, candidates=np.ones(4, dtype=bool)
            )

    def test_round_cap(self, machine):
        rng = np.random.default_rng(3)
        B = rng.random((10, 6)) < 0.5
        with pytest.raises(ConvergenceError):
            max_u_dominator_set_sparse(B, machine, max_rounds=0)

    def test_work_scales_with_edges(self):
        """Charged work on a bounded-degree bipartite graph ≪ dense."""
        from tests.reference.dominator_dense import max_u_dominator_set

        rng = np.random.default_rng(0)
        nu, nv = 300, 200
        B = rng.random((nu, nv)) < (4.0 / nv)
        md = PramMachine(seed=1)
        max_u_dominator_set(B, md)
        ms = PramMachine(seed=1)
        max_u_dominator_set_sparse(sparse.csr_matrix(B), ms)
        assert ms.ledger.work < md.ledger.work / 10
