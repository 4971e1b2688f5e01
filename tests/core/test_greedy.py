"""§4 parallel greedy: approximation, dual fitting, rounds, mechanics."""

import numpy as np
import pytest

from repro.analysis.rounds import round_envelopes
from repro.baselines.brute_force import brute_force_facility_location
from repro.baselines.greedy_jms import greedy_jms
from repro.bench.reporting import summarize_rounds
from repro.core.greedy import parallel_greedy
from repro.errors import ConvergenceError, InvalidParameterError
from repro.lp.duality import check_dual_feasible, dual_fitting_slack
from repro.lp.solve import lp_lower_bound
from repro.metrics.generators import euclidean_instance
from repro.metrics.instance import FacilityLocationInstance
from repro.pram.machine import PramMachine

FIXTURES = ["tiny_fl", "small_fl", "clustered_fl", "nongeometric_fl", "star_fl", "two_scale_fl"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_within_proven_factor_of_opt(self, fixture, request):
        """Theorem 4.9: (6+ε)-approx (the paper's weaker, self-contained
        bound; the factor-revealing-LP bound is 3.722+ε)."""
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_facility_location(inst)
        sol = parallel_greedy(inst, epsilon=0.1, seed=3)
        assert sol.cost <= (6 + 0.1) * opt * (1 + 1e-9)

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_tight_factor_across_seeds(self, fixture, seed, request):
        """Abstract claim: (3.722+ε) — holds on all measured runs."""
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_facility_location(inst)
        sol = parallel_greedy(inst, epsilon=0.2, seed=seed)
        assert sol.cost <= (3.722 + 0.2) * opt * (1 + 1e-9)

    def test_medium_instance_vs_lp(self, medium_fl):
        sol = parallel_greedy(medium_fl, epsilon=0.1, seed=5)
        assert sol.cost <= (6 + 0.1) * lp_lower_bound(medium_fl) * (1 + 1e-9)

    def test_star_instance_resists_rim(self, star_fl):
        opt, _ = brute_force_facility_location(star_fl)
        sol = parallel_greedy(star_fl, epsilon=0.1, seed=1)
        assert sol.cost <= 2.0 * opt  # hub should dominate the solution


class TestDualFitting:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lemma_47_alpha_over_3_feasible(self, small_fl, seed):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=seed, preprocess=False)
        check_dual_feasible(small_fl, sol.alpha / 3.0, tol=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lemma_46_shrink_within_1861(self, small_fl, seed):
        """Lemma 4.6: α/1.861 is dual feasible (factor-revealing LP)."""
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=seed, preprocess=False)
        slack = dual_fitting_slack(small_fl, sol.alpha)
        assert slack <= 1.861 * (1 + 1e-6)

    @pytest.mark.parametrize("fixture", ["tiny_fl", "clustered_fl", "nongeometric_fl"])
    def test_lemma_43_cost_bounded_by_alpha(self, fixture, request):
        """Lemma 4.3: cost ≤ 2(1+ε)² Σ α_j (exact without preprocessing)."""
        inst = request.getfixturevalue(fixture)
        eps = 0.1
        sol = parallel_greedy(inst, epsilon=eps, seed=7, preprocess=False)
        assert sol.cost <= 2 * (1 + eps) ** 2 * sol.alpha.sum() * (1 + 1e-9)

    def test_alpha_nonnegative_and_bounded(self, small_fl):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=0, preprocess=False)
        assert np.all(sol.alpha >= 0)
        # Σα/1.861 feasible ⇒ Σα ≤ 1.861·LP ≤ 1.861·opt
        assert sol.alpha.sum() <= 1.861 * lp_lower_bound(small_fl) * (1 + 1e-6)


class TestRounds:
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0])
    def test_outer_rounds_within_envelope(self, small_fl, eps):
        sol = parallel_greedy(small_fl, epsilon=eps, seed=2)
        env = round_envelopes(small_fl.m, eps)
        assert sol.rounds["greedy_outer"] <= env["greedy_outer"]

    def test_subselect_rounds_reasonable(self, small_fl):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=2)
        env = round_envelopes(small_fl.m, 0.1)
        assert sol.rounds["greedy_subselect"] <= env["greedy_subselect"] * sol.rounds["greedy_outer"]

    def test_preprocessing_reduces_or_keeps_rounds(self, two_scale_fl):
        with_pre = parallel_greedy(two_scale_fl, epsilon=0.1, seed=4, preprocess=True)
        without = parallel_greedy(two_scale_fl, epsilon=0.1, seed=4, preprocess=False)
        assert with_pre.rounds["greedy_outer"] <= without.rounds["greedy_outer"] + 1

    def test_round_cap_raises(self, small_fl):
        with pytest.raises(ConvergenceError, match="outer"):
            parallel_greedy(small_fl, epsilon=0.1, seed=0, max_outer_rounds=0)

    def test_late_rounds_charge_only_the_frontier(self):
        """Served clients stop costing work: the last outer round charges
        less than one pass over the ``n_f × n_c`` matrix, which a
        full-matrix round makes several times over."""
        inst = euclidean_instance(60, 240, seed=2)
        m = PramMachine(seed=5)
        parallel_greedy(inst, epsilon=0.1, machine=m)
        trace = summarize_rounds(m.ledger.round_log, "greedy_outer", m.ledger.work)
        assert trace["rounds"] >= 3
        assert trace["work_last"] < inst.m


class TestMechanics:
    def test_solution_structure(self, small_fl):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=0)
        assert sol.opened.size >= 1
        assert sol.cost == pytest.approx(small_fl.cost(sol.opened))
        assert sol.cost == pytest.approx(sol.facility_cost + sol.connection_cost)

    def test_deterministic_under_seed(self, small_fl):
        a = parallel_greedy(small_fl, epsilon=0.1, seed=11)
        b = parallel_greedy(small_fl, epsilon=0.1, seed=11)
        assert np.array_equal(a.opened, b.opened)
        assert np.allclose(a.alpha, b.alpha)

    def test_model_costs_recorded(self, small_fl):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=0)
        assert sol.model_costs.work > 0
        assert sol.model_costs.depth > 0
        # polylog depth: far below work
        assert sol.model_costs.depth < sol.model_costs.work / 10

    def test_tau_trace_nondecreasing_with_preprocessing(self, small_fl):
        sol = parallel_greedy(small_fl, epsilon=0.1, seed=0)
        taus = sol.extra["tau_trace"]
        # After opening, zero-cost facilities can re-enter with lower star
        # prices; τ need not rise monotonically, but it never collapses
        # below the preprocessing floor.
        floor = sol.extra["gamma"] / small_fl.m**2
        assert all(t >= floor - 1e-12 for t in taus)

    def test_epsilon_validation(self, small_fl):
        with pytest.raises(InvalidParameterError):
            parallel_greedy(small_fl, epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            parallel_greedy(small_fl, epsilon=1.5)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_subnormal_epsilon_refused_not_overflowed(self, eps):
        """``log_(1+ε) m`` overflows a float here; the subselection cap
        refuses the ε instead of raising ``OverflowError``."""
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_greedy(euclidean_instance(5, 5, seed=0), epsilon=eps)

    def test_explicit_machine_used(self, small_fl):
        m = PramMachine(seed=9)
        parallel_greedy(small_fl, epsilon=0.1, machine=m)
        assert m.ledger.work > 0

    def test_single_facility_instance(self):
        inst = FacilityLocationInstance(np.array([[1.0, 2.0, 3.0]]), np.array([2.0]))
        sol = parallel_greedy(inst, epsilon=0.1, seed=0)
        assert sol.opened.tolist() == [0]
        assert sol.cost == pytest.approx(8.0)

    def test_single_client_instance(self):
        inst = FacilityLocationInstance(np.array([[5.0], [1.0]]), np.array([1.0, 3.0]))
        sol = parallel_greedy(inst, epsilon=0.1, seed=0)
        opt, _ = brute_force_facility_location(inst)
        assert sol.cost <= 6.1 * opt

    def test_zero_cost_facilities(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = FacilityLocationInstance(D, np.zeros(2))
        sol = parallel_greedy(inst, epsilon=0.1, seed=0)
        assert sol.cost == pytest.approx(0.0)

    def test_all_ties_star_instance(self, star_fl):
        # Every rim star ties exactly — subselection must thin them.
        sol = parallel_greedy(star_fl, epsilon=0.5, seed=3)
        assert sol.opened.size <= star_fl.n_facilities

    def test_larger_epsilon_fewer_or_equal_outer_rounds(self, medium_fl):
        lo = parallel_greedy(medium_fl, epsilon=0.05, seed=1)
        hi = parallel_greedy(medium_fl, epsilon=1.0, seed=1)
        assert hi.rounds["greedy_outer"] <= lo.rounds["greedy_outer"]
