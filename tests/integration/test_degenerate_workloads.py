"""Tie-heavy and skewed workloads: line metrics, grids, power-law demand.

Distance degeneracy (everything ties) is the classic way threshold
comparisons and mask updates go wrong; these workloads force every
algorithm through dense tie groups and skewed cluster masses.
"""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_facility_location
from repro.core.fl_local_search import parallel_fl_local_search
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.local_search import parallel_kmeans, parallel_kmedian
from repro.core.primal_dual import parallel_primal_dual
from repro.errors import InfeasibleSolutionError
from repro.lp.duality import check_dual_feasible
from repro.lp.solve import lp_lower_bound
from repro.metrics.generators import (
    euclidean_clustering,
    grid_points,
    knn_clustering_instance,
    line_instance,
    powerlaw_cluster_instance,
)
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance, knn_sparsify, threshold_sparsify
from tests.reference.kcenter_dense import kcenter_dense
from tests.reference.local_search_dense import local_search_dense


@pytest.fixture
def line_fl():
    return line_instance(5, 15, seed=3)


@pytest.fixture
def powerlaw_fl():
    return powerlaw_cluster_instance(8, 40, n_clusters=5, seed=3)


@pytest.fixture
def grid_clustering():
    return ClusteringInstance(grid_points(6, 6), 4)


class TestLineInstances:
    def test_generator_all_gaps_tie(self):
        inst = line_instance(4, 8, spacing=2.0, seed=1)
        gaps = np.unique(np.round(inst.metric.D, 9))
        # 1-D evenly spaced: distances are exact multiples of the spacing
        assert np.allclose(gaps % 2.0, 0.0)

    def test_greedy_on_ties(self, line_fl):
        opt, _ = brute_force_facility_location(line_fl)
        for seed in range(3):
            sol = parallel_greedy(line_fl, epsilon=0.1, seed=seed)
            assert sol.cost <= (6 + 0.1) * opt * (1 + 1e-9)

    def test_primal_dual_on_ties(self, line_fl):
        opt, _ = brute_force_facility_location(line_fl)
        sol = parallel_primal_dual(line_fl, epsilon=0.1, seed=0)
        check_dual_feasible(line_fl, sol.alpha, tol=1e-7)
        assert sol.cost <= 3 * 1.1 * opt * (1 + 1e-9) + 3 * sol.extra["gamma"] / line_fl.m

    def test_fl_local_search_on_ties(self, line_fl):
        opt, _ = brute_force_facility_location(line_fl)
        sol = parallel_fl_local_search(line_fl, epsilon=0.1, seed=0)
        assert sol.cost <= 3.1 * opt * (1 + 1e-9)


class TestGridClustering:
    def test_kcenter_grid_ties(self, grid_clustering):
        # Manhattan grid: few distinct thresholds, heavy ties per probe.
        sol = parallel_kcenter(grid_clustering, seed=0)
        assert sol.centers.size <= grid_clustering.k
        # 6×6 grid, k=4: quadrant centers give radius ≤ 3 (L1); 2-approx
        # of the optimum (which is ≥ 2) keeps us ≤ 4.
        assert sol.cost <= 4.0 + 1e-9

    def test_kmedian_grid_ties(self, grid_clustering):
        sol = parallel_kmedian(grid_clustering, epsilon=0.3, seed=0)
        assert sol.centers.size <= grid_clustering.k
        assert sol.cost <= 5.3 * grid_clustering.kmedian_cost(sol.centers) / 1.0  # sanity: finite

    def test_kcenter_deterministic_across_seeds_value_class(self, grid_clustering):
        radii = {parallel_kcenter(grid_clustering, seed=s).cost for s in range(4)}
        # Different seeds may pick different centers, but every radius
        # obeys the 2-approx envelope, so the spread is bounded.
        assert max(radii) <= 2 * min(radii) + 1e-9


class TestPowerLaw:
    def test_generator_skew(self):
        inst = powerlaw_cluster_instance(6, 200, n_clusters=6, alpha=2.0, seed=0)
        assert inst.n_clients == 200

    def test_all_fl_algorithms_vs_lp(self, powerlaw_fl):
        lp = lp_lower_bound(powerlaw_fl)
        g = parallel_greedy(powerlaw_fl, epsilon=0.1, seed=0)
        pd = parallel_primal_dual(powerlaw_fl, epsilon=0.1, seed=0)
        ls = parallel_fl_local_search(powerlaw_fl, epsilon=0.1, seed=0)
        assert g.cost <= 6.1 * lp * (1 + 1e-9)
        assert pd.cost <= 3.4 * lp * (1 + 1e-9) + 3 * pd.extra["gamma"] / powerlaw_fl.m
        assert ls.cost <= 3.1 * lp * (1 + 1e-9)

    def test_generators_deterministic(self):
        a = powerlaw_cluster_instance(5, 30, seed=9)
        b = powerlaw_cluster_instance(5, 30, seed=9)
        assert np.array_equal(a.D, b.D)


def _four_far_blobs(k: int) -> ClusteringInstance:
    """Four tight, mutually distant blobs of three points each."""
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.normal(loc=c, scale=0.01, size=(3, 2)) for c in ((0, 0), (10, 0), (0, 10), (10, 10))]
    )
    return ClusteringInstance(MetricSpace.from_points(pts), k)


class TestClusteringDegenerate:
    """k = 1, k = n, tied distances, and uncoverable truncations — the
    satellite edge cases for the sparse clustering stack."""

    @pytest.mark.parametrize("make_sparse", [
        SparseClusteringInstance.from_instance,
        lambda inst: knn_sparsify(inst, inst.n),
    ], ids=["full-csr", "knn-all"])
    def test_k_equals_1_sparse(self, make_sparse):
        inst = euclidean_clustering(12, 1, seed=0)
        sp = make_sparse(inst)
        a = kcenter_dense(inst, seed=0)
        b = parallel_kcenter(sp, seed=0)
        assert a.cost == b.cost
        assert parallel_kmedian(sp, epsilon=0.3, seed=0).centers.size == 1
        assert parallel_kmeans(sp, epsilon=0.3, seed=0).centers.size == 1

    def test_k_equals_n_sparse(self):
        inst = euclidean_clustering(8, 8, seed=0)
        sp = SparseClusteringInstance.from_instance(inst)
        assert parallel_kcenter(sp, seed=0).cost == pytest.approx(0.0)
        assert parallel_kmedian(sp, seed=0).cost == pytest.approx(0.0)
        # Truncated too: the diagonal is always stored, so k = n is 0.
        kn = knn_sparsify(inst, 3)
        assert parallel_kcenter(kn, seed=0).cost == pytest.approx(0.0)
        assert parallel_kmedian(kn, seed=0).cost == pytest.approx(0.0)

    def test_tied_distances_sparse_matches_dense(self):
        """Manhattan grid: few distinct thresholds, heavy tie groups per
        probe — sparse and dense must agree decision-for-decision."""
        inst = ClusteringInstance(grid_points(5, 5, p=1.0), 4)
        sp = SparseClusteringInstance.from_instance(inst)
        from repro.pram.machine import PramMachine

        a = kcenter_dense(inst, machine=PramMachine(seed=0))
        b = parallel_kcenter(sp, machine=PramMachine(seed=0))
        assert np.array_equal(a.centers, b.centers) and a.cost == b.cost
        am = local_search_dense(inst, epsilon=0.3, machine=PramMachine(seed=0))
        bm = parallel_kmedian(sp, epsilon=0.3, machine=PramMachine(seed=0))
        assert np.array_equal(am.centers, bm.centers) and am.cost == bm.cost

    def test_tied_distances_threshold_truncation(self):
        """A threshold truncation of the grid keeps whole tie groups;
        the 2-approx envelope must hold on the stored radius."""
        inst = ClusteringInstance(grid_points(5, 5, p=1.0), 4)
        sp = threshold_sparsify(inst, 4.0)
        sol = parallel_kcenter(sp, seed=0)
        assert sol.centers.size <= 4
        assert sol.cost <= 4.0 + 1e-9  # fallback-capped by construction

    def test_uncoverable_knn_kcenter_raises(self):
        """A kNN graph whose components outnumber k cannot be covered at
        any stored radius: the solver must raise, not return inf or a
        silently fallback-capped radius."""
        inst = _four_far_blobs(k=2)
        kn = knn_sparsify(inst, 3)  # within-blob candidates only
        with pytest.raises(InfeasibleSolutionError, match="too sparse"):
            parallel_kcenter(kn, seed=0)

    def test_uncoverable_knn_warm_start_raises_but_initial_works(self):
        """Local search inherits the loud failure through its k-center
        warm start; an explicit initial sidesteps it."""
        inst = _four_far_blobs(k=2)
        kn = knn_sparsify(inst, 3)
        with pytest.raises(InfeasibleSolutionError):
            parallel_kmedian(kn, epsilon=0.3, seed=0)
        sol = parallel_kmedian(kn, epsilon=0.3, seed=0, initial=[0, 3])
        assert sol.centers.size <= 2 and np.isfinite(sol.cost)

    def test_coverable_once_k_matches_components(self):
        """The same truncation is feasible when k covers the components."""
        inst = _four_far_blobs(k=4)
        kn = knn_sparsify(inst, 3)
        sol = parallel_kcenter(kn, seed=0)
        assert sol.centers.size <= 4
        assert sol.cost <= 0.1  # one center per blob, blob radius ~0.01

    def test_unserved_node_under_infinite_fallback_still_swaps(self):
        """A node with no stored edge to any initial center and an
        infinite fallback must not poison the swap arithmetic (inf−inf
        → NaN → silent no-op): the improving swap to finite cost must
        be found."""
        # Two disjoint stored pairs {0,1} and {2,3} (plus diagonals).
        sp = SparseClusteringInstance(
            [0, 2, 4, 6, 8],
            [0, 1, 0, 1, 2, 3, 2, 3],
            [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
            2,
        )
        sol = parallel_kmedian(sp, epsilon=0.3, seed=0, initial=[0, 1])
        assert np.isfinite(sol.cost)
        assert sol.cost == pytest.approx(2.0)
        assert len(set(sol.centers) & {0, 1}) == 1  # one center per pair
        assert len(set(sol.centers) & {2, 3}) == 1

    def test_generator_too_sparse_for_budget(self):
        """KD-tree-first generator + tiny neighborhoods: same loud
        failure, straight from the public construction path."""
        inst = knn_clustering_instance(60, 2, neighbors=3, n_clusters=6, spread=0.005, seed=1)
        with pytest.raises(InfeasibleSolutionError, match="neighbors"):
            parallel_kcenter(inst, seed=0)
