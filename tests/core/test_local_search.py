"""§7 parallel local search: 5+ε / 81+ε, swap semantics, rounds."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_kmeans, brute_force_kmedian
from repro.baselines.local_search_seq import local_search_kmedian_seq
from repro.core.fl_local_search import parallel_fl_local_search
from repro.core.kcenter import parallel_kcenter
from repro.core.local_search import parallel_kmeans, parallel_kmedian, parallel_local_search
from repro.errors import ConvergenceError, InvalidInstanceError, InvalidParameterError
from repro.metrics.generators import euclidean_clustering, euclidean_instance
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine

FIXTURES = ["small_clustering", "blob_clustering"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_kmedian_within_5_eps(self, fixture, seed, request):
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_kmedian(inst, max_subsets=200_000)
        eps = 0.3
        sol = parallel_kmedian(inst, epsilon=eps, seed=seed)
        assert sol.cost <= (5 + eps) * opt * (1 + 1e-9)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_kmeans_within_81_eps(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_kmeans(inst, max_subsets=200_000)
        sol = parallel_kmeans(inst, epsilon=0.3, seed=0)
        assert sol.cost <= (81 + 0.3) * opt * (1 + 1e-9)

    def test_blobs_near_optimal(self, blob_clustering):
        opt, _ = brute_force_kmedian(blob_clustering, max_subsets=200_000)
        sol = parallel_kmedian(blob_clustering, epsilon=0.05, seed=0)
        assert sol.cost <= 1.6 * opt

    def test_comparable_to_sequential(self, small_clustering):
        par = parallel_kmedian(small_clustering, epsilon=0.2, seed=0)
        seq = local_search_kmedian_seq(small_clustering, epsilon=0.2)
        # Same threshold rule ⇒ same quality class (not identical paths).
        assert par.cost <= 1.5 * seq.cost + 1e-9
        assert seq.cost <= 1.5 * par.cost + 1e-9


class TestSwapSemantics:
    def test_swaps_strictly_improve_by_threshold(self, small_clustering):
        eps = 0.3
        sol = parallel_kmedian(small_clustering, epsilon=eps, seed=2)
        beta = eps / (1 + eps)
        k = small_clustering.k
        costs = [sol.extra["initial_cost"]] + [c for _, _, c in sol.extra["swaps"]]
        for prev, new in zip(costs, costs[1:]):
            assert new < (1 - beta / k) * prev * (1 + 1e-12)

    def test_final_state_is_local_optimum(self, small_clustering):
        """No remaining swap beats the threshold (verified exhaustively)."""
        eps = 0.3
        sol = parallel_kmedian(small_clustering, epsilon=eps, seed=0)
        beta = eps / (1 + eps)
        D, k = small_clustering.D, small_clustering.k
        centers = sol.centers
        cost = sol.cost
        out = np.setdiff1d(np.arange(small_clustering.n), centers)
        for a in range(centers.size):
            trial_centers = np.delete(centers, a)
            for c in out:
                tc = np.concatenate([trial_centers, [c]])
                new = D[:, tc].min(axis=1).sum()
                assert new >= (1 - beta / k) * cost * (1 - 1e-12)

    def test_warm_start_from_kcenter(self, small_clustering):
        sol = parallel_kmedian(small_clustering, epsilon=0.3, seed=0)
        assert sol.extra["initial_cost"] >= sol.cost * (1 - 1e-12)

    def test_explicit_initial_centers(self, small_clustering):
        init = np.array([0, 1, 2])
        sol = parallel_kmedian(small_clustering, epsilon=0.3, seed=0, initial=init)
        assert sol.cost <= small_clustering.kmedian_cost(init) * (1 + 1e-12)

    def test_invalid_initial_rejected(self, small_clustering):
        with pytest.raises(InvalidParameterError, match="initial"):
            parallel_kmedian(small_clustering, initial=[99])

    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_more_initial_centers_than_k_refused(self, csr):
        """With k = 4, ``initial=[59, 0, 1, 2, 3]`` used to start from
        ``[0, 1, 2, 3]``, dropping id 59 by its label; repeated ids
        still count once."""
        inst = euclidean_clustering(60, 4, seed=1)
        if csr:
            inst = SparseClusteringInstance.from_instance(inst)
        with pytest.raises(InvalidParameterError, match="initial centers hold 5 .* k=4"):
            parallel_kmedian(inst, seed=1, initial=[59, 0, 1, 2, 3])
        sol = parallel_kmedian(inst, seed=1, initial=[59, 59, 0, 1, 2])
        assert sol.centers.size == 4

    def test_asymmetric_unvalidated_space_refused_with_a_warm_start(self):
        """A dense instance runs as its full CSR, whose constructor
        refuses an asymmetric matrix that ``MetricSpace(validate=False)``
        let through — with a warm start too, as k-center (and so the
        default warm start) already did."""
        D = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        inst = ClusteringInstance(MetricSpace(D, validate=False), 2)
        for solve in (
            lambda: parallel_kmedian(inst, seed=0, initial=[0, 1]),
            lambda: parallel_kmedian(inst, seed=0),
            lambda: parallel_kcenter(inst, seed=0),
        ):
            with pytest.raises(InvalidInstanceError, match="symmetric"):
                solve()


@pytest.mark.parametrize(
    "solve",
    [
        lambda initial: parallel_kmedian(
            euclidean_clustering(60, 4, seed=1), seed=1, initial=initial
        ),
        lambda initial: parallel_fl_local_search(
            euclidean_instance(8, 24, seed=0), seed=1, initial=initial
        ),
    ],
    ids=["kmedian", "fl"],
)
@pytest.mark.parametrize(
    "initial",
    [[0.7, 3.2], [0, float("nan")], np.ones(8, dtype=bool), [[0, 1], [2, 3]]],
    ids=["fractional", "nan", "mask", "2d"],
)
def test_warm_start_ids_must_be_whole_and_1d(solve, initial):
    """An ``int`` cast truncated 0.7 and 3.2 to ids 0 and 3, read the
    mask as ids 0 and 1, flattened the 2-D list and met NaN with a raw
    ``ValueError``; each is refused instead."""
    with pytest.raises(InvalidParameterError, match="initial"):
        solve(initial)


class TestStructure:
    def test_budget_respected(self, small_clustering):
        sol = parallel_kmedian(small_clustering, seed=0)
        assert sol.centers.size <= small_clustering.k

    def test_cost_matches_instance(self, small_clustering):
        sol = parallel_kmedian(small_clustering, seed=0)
        assert sol.cost == pytest.approx(small_clustering.kmedian_cost(sol.centers))

    def test_kmeans_cost_matches_instance(self, small_clustering):
        sol = parallel_kmeans(small_clustering, seed=0)
        assert sol.cost == pytest.approx(small_clustering.kmeans_cost(sol.centers))

    def test_deterministic_under_seed(self, small_clustering):
        a = parallel_kmedian(small_clustering, seed=6)
        b = parallel_kmedian(small_clustering, seed=6)
        assert np.array_equal(a.centers, b.centers)

    def test_objective_validation(self, small_clustering):
        with pytest.raises(InvalidParameterError, match="objective"):
            parallel_local_search(small_clustering, "kmax")

    def test_epsilon_validation(self, small_clustering):
        with pytest.raises(InvalidParameterError):
            parallel_kmedian(small_clustering, epsilon=1.0)

    def test_round_cap_raises(self, small_clustering):
        with pytest.raises(ConvergenceError):
            parallel_kmedian(small_clustering, epsilon=0.05, seed=0, max_rounds=1)

    @pytest.mark.parametrize("max_rounds", [float("nan"), "5", 2.5, -1])
    def test_round_cap_must_be_whole(self, small_clustering, max_rounds):
        """A NaN cap used to remove the cap; text and fractions failed
        mid-solve with a bare ``TypeError`` or passed as caps."""
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            parallel_kmedian(small_clustering, epsilon=0.05, seed=0, max_rounds=max_rounds)

    @pytest.mark.parametrize("objective", ["kmedian", "kmeans"])
    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_subnormal_epsilon_refused_not_overflowed(self, objective, csr):
        """``k/β`` overflows a float at ε = 5e-324; the round cap refuses
        the ε before the warm start runs, on dense and CSR input."""
        inst = euclidean_clustering(30, 3, seed=0)
        if csr:
            inst = SparseClusteringInstance.from_instance(inst)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_local_search(inst, objective, epsilon=5e-324)

    def test_rounds_recorded(self, small_clustering):
        sol = parallel_kmedian(small_clustering, seed=0)
        assert sol.rounds["local_search"] >= 1
        assert sol.rounds["local_search"] == len(sol.extra["swaps"]) + 1

    def test_machine_shared_with_warm_start(self, small_clustering):
        m = PramMachine(seed=0)
        parallel_kmedian(small_clustering, machine=m)
        # k-center warm start charged on the same ledger
        assert m.ledger.rounds.get("kcenter_probe", 0) >= 1


class TestEdgeCases:
    def test_k_equals_n(self):
        inst = euclidean_clustering(7, 7, seed=0)
        sol = parallel_kmedian(inst, seed=0)
        assert sol.cost == pytest.approx(0.0)

    def test_k_equals_1(self):
        inst = euclidean_clustering(15, 1, seed=0)
        opt, _ = brute_force_kmedian(inst)
        sol = parallel_kmedian(inst, epsilon=0.2, seed=0)
        assert sol.cost <= 5.2 * opt * (1 + 1e-9)

    def test_duplicate_points(self):
        pts = np.vstack([np.zeros((4, 1)), np.ones((4, 1)), np.full((4, 1), 5.0)])
        inst = ClusteringInstance(MetricSpace.from_points(pts), 3)
        sol = parallel_kmedian(inst, seed=0)
        assert sol.cost == pytest.approx(0.0)
