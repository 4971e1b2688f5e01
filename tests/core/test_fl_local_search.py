"""§7-remark extension: facility-location local search (add/drop/swap)."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_facility_location
from repro.core.fl_local_search import parallel_fl_local_search
from repro.errors import InvalidParameterError
from repro.metrics.generators import euclidean_instance
from repro.metrics.instance import FacilityLocationInstance

FIXTURES = ["tiny_fl", "small_fl", "clustered_fl", "nongeometric_fl", "star_fl"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_within_3_eps_of_opt(self, fixture, request):
        """Local optima of add/drop/swap are 3-approximate (Arya et al.);
        with the threshold the envelope is 3+ε."""
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_facility_location(inst)
        sol = parallel_fl_local_search(inst, epsilon=0.1, seed=0)
        assert sol.extra["converged"]
        assert sol.cost <= (3 + 0.1) * opt * (1 + 1e-9)

    def test_often_near_optimal(self, clustered_fl):
        opt, _ = brute_force_facility_location(clustered_fl)
        sol = parallel_fl_local_search(clustered_fl, epsilon=0.05, seed=0)
        assert sol.cost <= 1.3 * opt


class TestMoveSemantics:
    def test_moves_strictly_improve(self, small_fl):
        sol = parallel_fl_local_search(small_fl, epsilon=0.1, seed=0)
        costs = [sol.extra["initial_cost"]] + [c for *_, c in sol.extra["moves"]]
        for prev, new in zip(costs, costs[1:]):
            assert new < prev

    def test_local_optimum_certified(self, small_fl):
        """At convergence no single add/drop/swap beats the threshold —
        verified exhaustively against the returned set."""
        eps = 0.2
        sol = parallel_fl_local_search(small_fl, epsilon=eps, seed=0)
        assert sol.extra["converged"]
        beta = eps / (1 + eps)
        nf = small_fl.n_facilities
        thresh = (1 - beta / (nf + 1)) * sol.cost
        mask = np.zeros(nf, dtype=bool)
        mask[sol.opened] = True
        # adds
        for i in np.flatnonzero(~mask):
            trial = mask.copy(); trial[i] = True
            assert small_fl.cost(trial) >= thresh * (1 - 1e-12)
        # drops
        if sol.opened.size > 1:
            for i in sol.opened:
                trial = mask.copy(); trial[i] = False
                assert small_fl.cost(trial) >= thresh * (1 - 1e-12)
        # swaps
        for i in sol.opened:
            for j in np.flatnonzero(~mask):
                trial = mask.copy(); trial[i] = False; trial[j] = True
                assert small_fl.cost(trial) >= thresh * (1 - 1e-12)

    def test_initial_solution_honored(self, small_fl):
        sol = parallel_fl_local_search(small_fl, epsilon=0.1, seed=0, initial=[0, 1])
        start = small_fl.cost([0, 1])
        assert sol.cost <= start * (1 + 1e-12)

    def test_invalid_initial_rejected(self, small_fl):
        with pytest.raises(InvalidParameterError, match="initial"):
            parallel_fl_local_search(small_fl, initial=[99])


class TestStructure:
    def test_deterministic(self, small_fl):
        a = parallel_fl_local_search(small_fl, epsilon=0.1, seed=3)
        b = parallel_fl_local_search(small_fl, epsilon=0.1, seed=3)
        assert np.array_equal(a.opened, b.opened)

    def test_round_cap_reports_nonconvergence(self, small_fl):
        sol = parallel_fl_local_search(small_fl, epsilon=0.1, seed=0, max_rounds=0)
        assert not sol.extra["converged"]

    @pytest.mark.parametrize("max_rounds", [float("nan"), "5", 2.5, -1])
    def test_round_cap_must_be_whole(self, small_fl, max_rounds):
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            parallel_fl_local_search(small_fl, epsilon=0.1, seed=0, max_rounds=max_rounds)

    def test_cost_components(self, small_fl):
        sol = parallel_fl_local_search(small_fl, epsilon=0.1, seed=0)
        assert sol.cost == pytest.approx(small_fl.cost(sol.opened))

    def test_single_facility_instance(self):
        inst = FacilityLocationInstance(np.array([[1.0, 2.0]]), np.array([3.0]))
        sol = parallel_fl_local_search(inst, epsilon=0.1, seed=0)
        assert sol.opened.tolist() == [0]

    def test_never_empty(self, star_fl):
        sol = parallel_fl_local_search(star_fl, epsilon=0.1, seed=0)
        assert sol.opened.size >= 1

    def test_rounds_recorded(self, small_fl):
        sol = parallel_fl_local_search(small_fl, epsilon=0.1, seed=0)
        assert sol.rounds["fl_local_search"] == len(sol.extra["moves"]) + 1

    def test_subnormal_epsilon_refused_not_overflowed(self):
        """``n_f/β`` overflows a float at ε = 5e-324; the round cap
        refuses the ε instead of raising ``OverflowError``."""
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_fl_local_search(euclidean_instance(5, 5, seed=0), epsilon=5e-324)
