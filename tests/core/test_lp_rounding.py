"""§6.2 LP rounding: (4+ε) vs LP value, Claims 6.3/6.4, mechanics."""

import numpy as np
import pytest

from repro.core.lp_rounding import parallel_lp_rounding
from repro.errors import ConvergenceError, InvalidParameterError
from repro.lp.solve import solve_primal
from repro.metrics.generators import euclidean_instance
from repro.metrics.instance import FacilityLocationInstance

FIXTURES = ["tiny_fl", "small_fl", "clustered_fl", "nongeometric_fl", "two_scale_fl"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_4_plus_eps_vs_lp(self, fixture, seed, request):
        """Theorem 6.5: cost ≤ (4+ε)·LP (α=1/3), plus the θ/m preprocessing
        allowance."""
        inst = request.getfixturevalue(fixture)
        eps = 0.1
        primal = solve_primal(inst)
        sol = parallel_lp_rounding(inst, primal, epsilon=eps, seed=seed)
        bound = 4 * (1 + eps) * primal.value + primal.value / inst.m
        assert sol.cost <= bound * (1 + 1e-9)

    def test_solves_lp_when_not_given(self, tiny_fl):
        sol = parallel_lp_rounding(tiny_fl, epsilon=0.1, seed=0)
        assert sol.extra["theta"] > 0

    def test_filter_alpha_tradeoff(self, small_fl):
        """Facility factor (1+1/a): larger a relaxes connections, tightens
        facilities — both settings still meet their own bound."""
        primal = solve_primal(small_fl)
        for a in (0.25, 0.5):
            sol = parallel_lp_rounding(small_fl, primal, epsilon=0.1, filter_alpha=a, seed=0)
            facility_bound = (1 + 1 / a) * float((small_fl.f * primal.y).sum())
            assert sol.facility_cost <= facility_bound * (1 + 1e-9) + primal.value / small_fl.m


class TestClaims:
    def test_claim_63_facility_cost_paid_by_y_prime(self, small_fl):
        """Σ_{opened} f ≤ Σ_i y′_i f_i (over disjoint balls)."""
        primal = solve_primal(small_fl)
        sol = parallel_lp_rounding(small_fl, primal, epsilon=0.1, seed=1)
        y_prime = sol.extra["y_prime"]
        assert sol.facility_cost <= float((y_prime * small_fl.f).sum()) * (1 + 1e-9)

    def test_claim_64_per_client_service_bound(self, small_fl):
        """d(j, F_A) ≤ 3(1+a)(1+ε)·δ_j for every non-preprocessed client."""
        eps, a = 0.1, 1.0 / 3.0
        primal = solve_primal(small_fl)
        sol = parallel_lp_rounding(small_fl, primal, epsilon=eps, filter_alpha=a, seed=1)
        delta = sol.extra["delta"]
        served = small_fl.connection_distances(sol.opened)
        cut = sol.extra["theta"] / small_fl.m**2
        normal = delta > cut
        assert np.all(
            served[normal] <= 3 * (1 + a) * (1 + eps) * delta[normal] * (1 + 1e-9)
        )

    def test_chosen_balls_disjoint_per_round(self, small_fl):
        """The per-round trace: chosen ≤ processed; every round processes
        at least one client."""
        primal = solve_primal(small_fl)
        sol = parallel_lp_rounding(small_fl, primal, epsilon=0.1, seed=1)
        for row in sol.extra["trace"]:
            assert 1 <= row["chosen"] <= row["processed"]


class TestMechanics:
    def test_anchor_is_cheapest_in_ball(self, small_fl):
        primal = solve_primal(small_fl)
        sol = parallel_lp_rounding(small_fl, primal, epsilon=0.1, seed=0)
        delta = sol.extra["delta"]
        anchor = sol.extra["anchor"]
        a = sol.extra["filter_alpha"]
        for j in range(small_fl.n_clients):
            ball = np.flatnonzero(small_fl.D[:, j] <= (1 + a) * delta[j] * (1 + 1e-9))
            assert anchor[j] in ball
            assert small_fl.f[anchor[j]] == pytest.approx(small_fl.f[ball].min())

    def test_deterministic_under_seed(self, small_fl):
        primal = solve_primal(small_fl)
        a = parallel_lp_rounding(small_fl, primal, epsilon=0.1, seed=5)
        b = parallel_lp_rounding(small_fl, primal, epsilon=0.1, seed=5)
        assert np.array_equal(a.opened, b.opened)

    def test_rounds_recorded(self, small_fl):
        sol = parallel_lp_rounding(small_fl, epsilon=0.1, seed=0)
        assert sol.rounds["rounding"] == len(sol.extra["trace"])

    def test_filter_alpha_validation(self, small_fl):
        with pytest.raises(InvalidParameterError, match="filter_alpha"):
            parallel_lp_rounding(small_fl, epsilon=0.1, filter_alpha=1.5)

    def test_round_cap_raises(self, small_fl):
        with pytest.raises(ConvergenceError):
            parallel_lp_rounding(small_fl, epsilon=0.1, max_rounds=0)

    @pytest.mark.parametrize("max_rounds", [float("nan"), "5", 2.5, -1])
    def test_round_cap_must_be_whole(self, small_fl, max_rounds):
        with pytest.raises(InvalidParameterError, match="max_rounds"):
            parallel_lp_rounding(small_fl, epsilon=0.1, max_rounds=max_rounds)

    def test_subnormal_epsilon_refused_not_overflowed(self):
        """The round cap refuses an ε whose ``log_(1+ε) m`` overflows a
        float instead of raising ``OverflowError``."""
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_lp_rounding(euclidean_instance(5, 5, seed=0), epsilon=5e-324)

    def test_cost_components(self, small_fl):
        sol = parallel_lp_rounding(small_fl, epsilon=0.1, seed=0)
        assert sol.cost == pytest.approx(small_fl.cost(sol.opened))

    def test_model_costs_polylog_depth(self, small_fl):
        sol = parallel_lp_rounding(small_fl, epsilon=0.1, seed=0)
        assert 0 < sol.model_costs.depth < sol.model_costs.work / 5


class TestEdgeCases:
    def test_integral_lp_solution_recovered(self):
        """When the LP optimum is integral (one dominant facility), the
        rounding should essentially return it."""
        D = np.array([[0.1, 0.1, 0.1], [5.0, 5.0, 5.0]])
        inst = FacilityLocationInstance(D, np.array([0.5, 100.0]))
        sol = parallel_lp_rounding(inst, epsilon=0.1, seed=0)
        assert sol.opened.tolist() == [0]

    def test_single_facility(self):
        inst = FacilityLocationInstance(np.array([[1.0, 2.0]]), np.array([3.0]))
        sol = parallel_lp_rounding(inst, epsilon=0.1, seed=0)
        assert sol.opened.tolist() == [0]

    def test_zero_delta_clients(self):
        """Clients sitting exactly on fractional facilities (δ = 0)."""
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = FacilityLocationInstance(D, np.array([0.1, 0.1]))
        sol = parallel_lp_rounding(inst, epsilon=0.1, seed=0)
        assert sol.cost <= 4.2 * (0.2 + 0.0) + 1.0  # both open or one + hop
