"""Behavior of the sparse greedy / primal–dual paths on truncated
instances (the cases with no dense twin): solution quality, fallback
handling, O(nnz) work scaling, and entry-point plumbing."""

import numpy as np
import pytest

from repro import PramMachine
from repro.baselines.brute_force import brute_force_facility_location
from repro.core.greedy import parallel_greedy
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.generators import euclidean_instance, knn_instance
from repro.metrics.sparse import (
    SparseFacilityLocationInstance,
    knn_sparsify,
    threshold_sparsify,
)


@pytest.fixture
def dense():
    return euclidean_instance(10, 40, seed=4)


class TestQuality:
    @pytest.mark.parametrize("algorithm", [parallel_greedy, parallel_primal_dual])
    def test_knn_solution_near_dense_optimum(self, dense, algorithm):
        """With k covering most of the action, the sparse objective on a
        truncated instance stays within a small factor of the dense
        optimum (the fallback column keeps it finite and comparable)."""
        opt, _ = brute_force_facility_location(dense)
        trunc = knn_sparsify(dense, 5)
        sol = algorithm(trunc, epsilon=0.1, machine=PramMachine(seed=1))
        assert np.isfinite(sol.cost)
        # dense-objective value of the sparse solution is also bounded
        assert dense.cost(sol.opened) <= 4.0 * opt
        assert sol.cost <= 4.0 * opt

    @pytest.mark.parametrize("algorithm", [parallel_greedy, parallel_primal_dual])
    def test_threshold_solution_quality(self, dense, algorithm):
        opt, _ = brute_force_facility_location(dense)
        trunc = threshold_sparsify(dense, 0.5)
        sol = algorithm(trunc, epsilon=0.1, machine=PramMachine(seed=1))
        assert np.isfinite(sol.cost)
        assert sol.cost <= 5.0 * opt

    def test_greedy_duals_recorded(self):
        inst = knn_instance(20, 80, k=4, seed=6)
        sol = parallel_greedy(inst, epsilon=0.1, machine=PramMachine(seed=2))
        # every covered client freezes at some round's tau (or was
        # preprocessed at alpha 0)
        assert sol.alpha.shape == (80,)
        assert np.all(sol.alpha >= 0)
        assert np.all(np.isfinite(sol.alpha))


class TestFallback:
    def make_island(self):
        """Client 2 has no candidate facility; fallback serves it."""
        return SparseFacilityLocationInstance(
            [0, 2, 4],
            [0, 1, 0, 1],
            [1.0, 2.0, 2.0, 1.0],
            [1.0, 1.5],
            n_clients=3,
            fallback=[np.inf, np.inf, 7.0],
        )

    def test_greedy_serves_island_by_fallback(self):
        inst = self.make_island()
        sol = parallel_greedy(inst, epsilon=0.1, machine=PramMachine(seed=0))
        assert sol.alpha[2] == 0.0  # never active, dual untouched
        # the island's fallback cost is part of the objective
        assert sol.cost == pytest.approx(inst.cost(sol.opened))
        assert inst.connection_distances(sol.opened)[2] == 7.0

    def test_primal_dual_freezes_island_on_fallback(self):
        inst = self.make_island()
        sol = parallel_primal_dual(inst, epsilon=0.1, machine=PramMachine(seed=0))
        assert np.isfinite(sol.cost)
        assert inst.connection_distances(sol.opened)[2] == 7.0
        # the island froze against the fallback level, not a facility
        assert sol.alpha[2] <= 7.0 * (1 + 0.1) + 1e-9

    def test_all_fallback_instance(self):
        """Every client prefers its fallback: solvers still terminate
        and return a valid (cheapest-facility) solution shape."""
        inst = SparseFacilityLocationInstance(
            [0, 1, 2],
            [0, 0],
            [9.0, 9.0],
            [5.0, 4.0],
            n_clients=2,
            fallback=[0.5, 0.5],
        )
        sol = parallel_primal_dual(inst, epsilon=0.5, machine=PramMachine(seed=0))
        assert np.isfinite(sol.cost)
        assert sol.opened.size >= 1


class TestWorkScaling:
    def test_ledger_work_tracks_nnz(self):
        """Same geometry, smaller k => proportionally less charged work.

        The k-NN instance at k=4 has ~6x fewer edges than at k=24; the
        sparse greedy's charged work must shrink accordingly (well
        beyond a constant-factor wobble)."""
        dense = euclidean_instance(24, 120, seed=8)
        big = knn_sparsify(dense, 24)  # full
        small = knn_sparsify(dense, 4)
        m_big = PramMachine(seed=3)
        parallel_greedy(big, epsilon=0.2, machine=m_big)
        m_small = PramMachine(seed=3)
        parallel_greedy(small, epsilon=0.2, machine=m_small)
        assert small.nnz <= big.nnz / 5
        assert m_small.ledger.work < m_big.ledger.work / 2

    def test_rounds_counted(self):
        inst = knn_instance(15, 60, k=3, seed=5)
        sol = parallel_greedy(inst, epsilon=0.2, machine=PramMachine(seed=4))
        assert sol.rounds["greedy_outer"] >= 1
        sol2 = parallel_primal_dual(inst, epsilon=0.2, machine=PramMachine(seed=4))
        assert sol2.rounds["pd_iterations"] >= 1


class TestRowOrder:
    def test_fold_adds_each_facility_in_client_order(self):
        """Flat order would add 1e-16 + 1e-16 first and round up."""
        from repro.core.primal_dual_sparse import _fold_sums

        terms = np.array([1e-16, 1e-16, 1.0])
        got = _fold_sums(PramMachine(), terms, np.zeros(3, np.intp), np.array([2, 1, 0]), 1)
        assert got[0] == (1.0 + 1e-16) + 1e-16 != (1e-16 + 1e-16) + 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primal_dual_rows_in_any_column_order(self, seed):
        """Rows stored out of column order (legal for FL instances) give
        the sorted instance's solution: the frozen-client fold adds each
        facility's terms in client order either way."""
        inst = knn_instance(20, 120, k=5, seed=seed)
        rng = np.random.default_rng(seed)
        perm = np.concatenate([
            lo + rng.permutation(hi - lo) for lo, hi in zip(inst.indptr[:-1], inst.indptr[1:])
        ]).astype(np.intp)
        shuffled = SparseFacilityLocationInstance(
            inst.indptr, inst.indices[perm], inst.data[perm], inst.f,
            n_clients=inst.n_clients, fallback=inst.fallback,
        )
        a = parallel_primal_dual(inst, epsilon=0.1, machine=PramMachine(seed=seed))
        b = parallel_primal_dual(shuffled, epsilon=0.1, machine=PramMachine(seed=seed))
        assert np.array_equal(a.opened, b.opened)
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert (a.extra["H"] != b.extra["H"]).nnz == 0
        for key in ("F0", "F_T", "I"):
            assert np.array_equal(a.extra[key], b.extra[key])
        assert a.rounds == b.rounds


class TestEntryPoints:
    def test_backend_kwarg(self):
        inst = knn_instance(12, 50, k=4, seed=1)
        via_machine = parallel_greedy(inst, epsilon=0.1, machine=PramMachine(seed=7))
        via_backend = parallel_greedy(inst, epsilon=0.1, seed=7, backend="serial")
        assert np.array_equal(via_machine.opened, via_backend.opened)
        assert via_machine.cost == via_backend.cost

    def test_solution_metadata(self):
        inst = knn_instance(12, 50, k=4, seed=2)
        sol = parallel_primal_dual(inst, epsilon=0.2, machine=PramMachine(seed=9))
        assert sol.model_costs.work > 0
        assert "gamma" in sol.extra and np.isfinite(sol.extra["gamma"])
        H = sol.extra["H"]
        assert H.shape == (12, 50)
