"""§6.1 parallel k-center: 2-approx, threshold ≤ opt, probe counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_kcenter
from repro.baselines.hochbaum_shmoys import hochbaum_shmoys_kcenter
from repro.core.kcenter import parallel_kcenter
from repro.metrics.generators import euclidean_clustering
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.pram.machine import PramMachine


FIXTURES = ["small_clustering", "blob_clustering"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2_approx(self, fixture, seed, request):
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_kcenter(inst, max_subsets=200_000)
        sol = parallel_kcenter(inst, seed=seed)
        assert sol.cost <= 2 * opt * (1 + 1e-9)

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_threshold_at_most_opt(self, fixture, request):
        """The randomized-probe binary search still lands at t ≤ opt
        (every t ≥ opt passes for any maximal dominator set)."""
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_kcenter(inst, max_subsets=200_000)
        sol = parallel_kcenter(inst, seed=0)
        assert sol.extra["threshold"] <= opt + 1e-9

    def test_matches_sequential_quality_class(self, small_clustering):
        par = parallel_kcenter(small_clustering, seed=0)
        seq = hochbaum_shmoys_kcenter(small_clustering)
        opt, _ = brute_force_kcenter(small_clustering, max_subsets=200_000)
        assert par.cost <= 2 * opt * (1 + 1e-9)
        assert seq.radius <= 2 * opt * (1 + 1e-9)


class TestStructure:
    def test_respects_k(self, small_clustering):
        sol = parallel_kcenter(small_clustering, seed=0)
        assert sol.centers.size <= small_clustering.k

    def test_probe_count_logarithmic(self, small_clustering):
        sol = parallel_kcenter(small_clustering, seed=0)
        p = sol.extra["n_thresholds"]
        assert sol.extra["probes"] <= int(np.ceil(np.log2(p))) + 2

    def test_cost_matches_instance(self, small_clustering):
        sol = parallel_kcenter(small_clustering, seed=0)
        assert sol.cost == pytest.approx(small_clustering.kcenter_cost(sol.centers))

    def test_deterministic_under_seed(self, small_clustering):
        a = parallel_kcenter(small_clustering, seed=9)
        b = parallel_kcenter(small_clustering, seed=9)
        assert np.array_equal(a.centers, b.centers)

    def test_model_costs_recorded(self, small_clustering):
        sol = parallel_kcenter(small_clustering, seed=0)
        assert sol.model_costs.work > 0
        assert sol.model_costs.depth < sol.model_costs.work / 10

    def test_explicit_machine_accumulates(self, small_clustering):
        m = PramMachine(seed=0)
        parallel_kcenter(small_clustering, machine=m)
        assert m.ledger.rounds["kcenter_probe"] >= 1
        assert m.ledger.rounds["maxdom_sparse"] >= 1

    def test_thresholds_charged_as_single_sorted_unique(self, small_clustering):
        """Ledger-honesty regression: the threshold sequence is one
        sorted-unique primitive — not a charged machine sort followed by
        an uncharged ``np.unique`` re-sort."""
        m = PramMachine(seed=0)
        parallel_kcenter(small_clustering, machine=m)
        assert m.ledger.calls_by_op["sorted_unique"] == 1
        assert "sort" not in m.ledger.calls_by_op


class TestEdgeCases:
    def test_k_equals_n(self):
        inst = euclidean_clustering(8, 8, seed=0)
        sol = parallel_kcenter(inst, seed=0)
        assert sol.cost == pytest.approx(0.0)

    def test_k_equals_1(self):
        inst = euclidean_clustering(12, 1, seed=0)
        opt, _ = brute_force_kcenter(inst)
        sol = parallel_kcenter(inst, seed=0)
        assert sol.cost <= 2 * opt * (1 + 1e-9)

    def test_duplicate_points(self):
        pts = np.vstack([np.zeros((5, 1)), np.ones((5, 1))])
        inst = ClusteringInstance(MetricSpace.from_points(pts), 2)
        sol = parallel_kcenter(inst, seed=0)
        assert sol.cost == pytest.approx(0.0)

    def test_two_points(self):
        inst = ClusteringInstance(MetricSpace.from_points(np.array([[0.0], [1.0]])), 1)
        sol = parallel_kcenter(inst, seed=0)
        assert sol.cost == pytest.approx(1.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 16), st.integers(1, 3), st.integers(0, 10_000))
def test_property_2_approx_random(n, k, seed):
    inst = euclidean_clustering(n, k, seed=seed)
    opt, _ = brute_force_kcenter(inst)
    sol = parallel_kcenter(inst, seed=seed)
    assert sol.cost <= 2 * opt * (1 + 1e-9)
    assert sol.centers.size <= k
