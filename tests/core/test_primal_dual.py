"""§5 parallel primal–dual: Claim 5.1, Eq. (5), iterations, structure."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.rounds import round_envelopes
from repro.baselines.brute_force import brute_force_facility_location
from repro.bench.reporting import expand_rounds, summarize_rounds
from repro.core.primal_dual import check_schedule, parallel_primal_dual
from repro.core.primal_dual_sparse import MAX_SCHEDULE_LEVELS, _schedule
from repro.errors import ConvergenceError, InvalidParameterError
from repro.lp.duality import check_dual_feasible
from repro.lp.solve import lp_lower_bound
from repro.metrics.generators import euclidean_instance, knn_instance
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine
from tests.reference.primal_dual_dense import primal_dual_dense
from tests.reference.primal_dual_levels import primal_dual_levels

FIXTURES = ["tiny_fl", "small_fl", "clustered_fl", "nongeometric_fl", "star_fl", "two_scale_fl"]


class TestApproximation:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_within_3_plus_eps_of_opt(self, fixture, request):
        """Theorem 5.4 headline: (3+ε)-approximation."""
        inst = request.getfixturevalue(fixture)
        opt, _ = brute_force_facility_location(inst)
        eps = 0.1
        sol = parallel_primal_dual(inst, epsilon=eps, seed=3)
        # ε′ absorbs the 3γ/m additive and the (1+ε) factor: 3(1+ε)+o(1).
        assert sol.cost <= 3 * (1 + eps) * opt * (1 + 1e-9) + 3 * sol.extra["gamma"] / inst.m

    def test_medium_vs_lp(self, medium_fl):
        eps = 0.1
        sol = parallel_primal_dual(medium_fl, epsilon=eps, seed=5)
        lp = lp_lower_bound(medium_fl)
        assert sol.cost <= 3 * (1 + eps) * lp * (1 + 1e-9) + 3 * sol.extra["gamma"] / medium_fl.m


class TestDualFeasibility:
    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_claim_51_alpha_feasible_with_preprocessing(self, fixture, seed, request):
        """Claim 5.1: the recorded α (canonically completed) is dual
        feasible — unshrunk, unlike the greedy's."""
        inst = request.getfixturevalue(fixture)
        sol = parallel_primal_dual(inst, epsilon=0.1, seed=seed, preprocess=True)
        check_dual_feasible(inst, sol.alpha, tol=1e-7)

    def test_alpha_sum_below_lp(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=0)
        assert sol.alpha.sum() <= lp_lower_bound(small_fl) * (1 + 1e-7)

    def test_without_preprocessing_violation_bounded(self, small_fl):
        """Disabling preprocessing may overtighten cheap facilities, but
        only by the quantified γ·n_c/m² slack."""
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=0, preprocess=False)
        gamma = sol.extra["gamma"]
        beta = np.maximum(0.0, sol.alpha[None, :] - small_fl.D)
        overshoot = beta.sum(axis=1) - small_fl.f
        assert overshoot.max() <= gamma * small_fl.n_clients / small_fl.m**2 + 1e-9

    def test_lmp_inequality_eq5(self, small_fl):
        """Eq. (5): 3·Σf + Σd ≤ 3γ/m + 3(1+ε)·Σα."""
        eps = 0.1
        sol = parallel_primal_dual(small_fl, epsilon=eps, seed=2)
        lhs = 3 * sol.facility_cost + sol.connection_cost
        rhs = 3 * sol.extra["gamma"] / small_fl.m + 3 * (1 + eps) * sol.alpha.sum()
        assert lhs <= rhs * (1 + 1e-9)


class TestIterations:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0])
    def test_iterations_within_3log(self, small_fl, eps):
        sol = parallel_primal_dual(small_fl, epsilon=eps, seed=1)
        env = round_envelopes(small_fl.m, eps)
        assert sol.rounds["pd_iterations"] <= env["pd_iterations"]

    def test_smaller_eps_more_iterations(self, small_fl):
        lo = parallel_primal_dual(small_fl, epsilon=0.05, seed=1)
        hi = parallel_primal_dual(small_fl, epsilon=0.5, seed=1)
        assert lo.rounds["pd_iterations"] > hi.rounds["pd_iterations"]

    def test_iteration_cap_raises(self, small_fl):
        with pytest.raises(ConvergenceError):
            parallel_primal_dual(small_fl, epsilon=0.1, max_iterations=1)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_iteration_cap_below_one_raises(self, small_fl, cap):
        with pytest.raises(ConvergenceError):
            parallel_primal_dual(small_fl, epsilon=0.1, max_iterations=cap)

    def test_late_iterations_charge_only_the_frontier(self):
        """A level charges the edges that pay at it, not the frontier:
        the median level costs under a tenth of m. Scanning the closed ×
        unfrozen frontier every level charged about twice m here."""
        inst = euclidean_instance(60, 240, seed=2)
        m = PramMachine(seed=5)
        parallel_primal_dual(inst, epsilon=0.1, machine=m)
        trace = summarize_rounds(m.ledger.round_log, "pd_iterations", m.ledger.work)
        assert trace["rounds"] >= 3
        assert trace["work_median"] < inst.m / 10


class TestEventSkipping:
    @pytest.mark.parametrize(
        "build",
        [lambda: euclidean_instance(60, 240, seed=2), lambda: knn_instance(200, 2000, k=8, seed=3)],
        ids=["dense", "knn"],
    )
    def test_eventless_levels_cost_nothing(self, build):
        """Only the levels where a facility opens or a client freezes
        charge work, and every level still counts. Running the level
        body at every level charged all of them (175 of 175 and 196 of
        196 levels here)."""
        inst = build()
        m = PramMachine(seed=5)
        sol = parallel_primal_dual(inst, epsilon=0.1, machine=m)
        marks = expand_rounds(m.ledger.round_log, "pd_iterations")
        work = np.diff(np.asarray(marks + [m.ledger.work]))
        every = primal_dual_levels(inst, epsilon=0.1, machine=PramMachine(seed=5))
        assert sol.rounds["pd_iterations"] == every.rounds["pd_iterations"] == len(marks)
        assert np.count_nonzero(work) < len(marks) / 10

    def test_a_long_schedule_keeps_one_mark_per_event(self):
        """548,982 levels, nearly all skipped, count in ``pd_iterations``
        from a handful of marks. One mark per level kept 548,983 of them
        and spent most of the solve appending them."""
        m = PramMachine(seed=0)
        sol = parallel_primal_dual(euclidean_instance(5, 5, seed=0), epsilon=1e-5, machine=m)
        assert sol.rounds["pd_iterations"] == 548_982
        marks = [mark for mark in m.ledger.round_log if mark.label == "pd_iterations"]
        assert len(marks) <= 5 and marks[-1].index == 548_982
        assert len(expand_rounds(m.ledger.round_log, "pd_iterations")) == 548_982


_ROOT = Path(__file__).resolve().parents[2]

#: A child that solves the 5×5 instance at the given ε under a 1.5 GB
#: address-space cap and prints what it was refused with.
_CAPPED_SOLVE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
import repro
from repro.errors import InvalidParameterError
try:
    repro.parallel_primal_dual(repro.euclidean_instance(5, 5, seed=0), epsilon=float(sys.argv[1]))
except InvalidParameterError as exc:
    print("refused:", exc)
"""


class TestScheduleGuard:
    @pytest.mark.parametrize("eps", [1e-7, 1e-9])
    def test_tiny_epsilon_refused_before_any_level(self, eps):
        """The iteration caps here are ~9.7e7 and ~9.7e9 levels; listing
        the thresholds ran 17.7 s into a MemoryError at ε = 1e-7. The
        solve runs in a child with capped memory and time, so a
        regressed guard fails this test rather than the test runner."""
        env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", _CAPPED_SOLVE, repr(eps)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("refused: epsilon="), done.stdout

    def test_small_iteration_cap_still_raises_convergence_error(self):
        """An explicit cap bounds the schedule, so the solve runs and
        stops at the cap as before."""
        with pytest.raises(ConvergenceError, match="exceeded 5 iterations"):
            parallel_primal_dual(euclidean_instance(5, 5, seed=0), epsilon=1e-7, max_iterations=5)

    @pytest.mark.parametrize("eps", [5e-324, 1e-320, 1e-310])
    def test_subnormal_epsilon_refused_not_overflowed(self, eps):
        """``log_(1+ε) m`` overflows a float here; the iteration cap
        refuses the ε like the schedule guard instead of raising
        ``OverflowError`` from ``math.ceil``."""
        with pytest.raises(InvalidParameterError, match="epsilon"):
            check_schedule(eps, 25)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_primal_dual(euclidean_instance(5, 5, seed=0), epsilon=eps)

    @pytest.mark.parametrize(
        "weight,eps", [(0.5, 5e-324), (1e-300, 1e-307)], ids=["half", "extension-only"]
    )
    def test_subnormal_epsilon_refused_with_light_clients(self, weight, eps):
        """Client weights below 1 extend the cap by ``log_(1+ε)(1/w)``
        levels; that extension is refused the same way. At ``w = 1e-300``
        and ``ε = 1e-307`` the base cap is finite and only the extension
        overflows."""
        dense = euclidean_instance(5, 5, seed=0)
        inst = SparseFacilityLocationInstance.from_dense(
            dense.D, dense.f, client_weights=np.full(5, weight)
        )
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_primal_dual(inst, epsilon=eps)

    def test_check_schedule_refuses_what_a_solve_would(self):
        assert check_schedule(0.1, 25_600) == 0.1
        with pytest.raises(InvalidParameterError, match="epsilon"):
            check_schedule(1e-9, 25_600)
        # Refused at submit means refused by the solve on that many edges.
        inst = euclidean_instance(5, 5, seed=0)
        eps = float(np.log(inst.m)) / MAX_SCHEDULE_LEVELS  # a floor of ~2x the limit
        with pytest.raises(InvalidParameterError):
            check_schedule(eps, inst.m)
        with pytest.raises(InvalidParameterError, match="epsilon"):
            parallel_primal_dual(inst, epsilon=eps)


class TestThresholdSchedule:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("base", [1e-9, 0.3, 7.25])
    def test_lists_the_level_bodys_own_bits(self, eps, base):
        """Level ℓ's threshold is ``(1+ε)·(base·(1+ε)**(ℓ−1))`` with
        Python's scalar ``**``, the expression the level body computes.
        A vectorised ``np.power`` rounds some of them differently (12–29
        of 400 at these ε), which would move edges between buckets."""
        listed = _schedule(base, eps, np.inf, 400, 10)
        body = [(1.0 + eps) * (base * (1.0 + eps) ** (level - 1)) for level in range(1, 401)]
        assert listed.tobytes() == np.asarray(body).tobytes()

    def test_stops_past_the_horizon_and_at_the_cap(self):
        c = _schedule(1.0, 0.1, 5.0, 1000, 10)
        assert c[-1] > 5.0 >= c[-2]
        assert _schedule(1.0, 0.1, 5.0, 3, 10).tobytes() == c[:3].tobytes()
        assert _schedule(1.0, 0.1, 5.0, 0, 10).size == 0


class TestStructure:
    def test_postprocessing_no_shared_contributions(self, small_fl):
        """The MaxUDom property: each client strictly pays at most one
        surviving facility."""
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=4)
        I = sol.extra["I"]
        H = sol.extra["H"]
        if I.size:
            pays = H[I].sum(axis=0)
            assert pays.max() <= 1

    def test_survivors_subset_of_tentative(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=4)
        assert set(sol.extra["I"].tolist()) <= set(sol.extra["F_T"].tolist())

    def test_opened_is_f0_union_i(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=4)
        want = np.union1d(sol.extra["F0"], sol.extra["I"])
        assert np.array_equal(sol.opened, want)

    def test_cost_components(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=0)
        assert sol.cost == pytest.approx(small_fl.cost(sol.opened))
        assert sol.cost == pytest.approx(sol.facility_cost + sol.connection_cost)

    def test_deterministic_under_seed(self, small_fl):
        a = parallel_primal_dual(small_fl, epsilon=0.1, seed=11)
        b = parallel_primal_dual(small_fl, epsilon=0.1, seed=11)
        assert np.array_equal(a.opened, b.opened)
        assert np.allclose(a.alpha, b.alpha)

    def test_alpha_nonnegative(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=0)
        assert np.all(sol.alpha >= 0)

    def test_epsilon_validation(self, small_fl):
        with pytest.raises(InvalidParameterError):
            parallel_primal_dual(small_fl, epsilon=-1)

    def test_model_costs_polylog_depth(self, small_fl):
        sol = parallel_primal_dual(small_fl, epsilon=0.1, seed=0)
        assert 0 < sol.model_costs.depth < sol.model_costs.work / 10


class TestEdgeCases:
    def test_zero_gamma_instance(self):
        """Every client has a free zero-distance facility: γ = 0."""
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = FacilityLocationInstance(D, np.zeros(2))
        sol = parallel_primal_dual(inst, epsilon=0.1, seed=0)
        assert sol.cost == pytest.approx(0.0)

    def test_single_facility(self):
        inst = FacilityLocationInstance(np.array([[1.0, 2.0]]), np.array([3.0]))
        sol = parallel_primal_dual(inst, epsilon=0.1, seed=0)
        assert sol.opened.tolist() == [0]
        assert sol.cost == pytest.approx(6.0)

    def test_single_client(self):
        inst = FacilityLocationInstance(np.array([[2.0], [0.5]]), np.array([1.0, 4.0]))
        sol = parallel_primal_dual(inst, epsilon=0.05, seed=0)
        opt, _ = brute_force_facility_location(inst)
        assert sol.cost <= 3.2 * opt

    def test_expensive_facilities_exhaustion_path(self):
        """Cheap instance γ-wise but facility budgets met late — exercises
        the all-facilities-open exhaustion rule."""
        D = np.array([[1.0, 1.0, 1.0]])
        inst = FacilityLocationInstance(D, np.array([0.1]))
        sol = parallel_primal_dual(inst, epsilon=0.5, seed=0)
        assert sol.opened.tolist() == [0]


@st.composite
def grid_instances(draw):
    """Small dense instances on an integer grid under the L1 metric:
    integer distances and costs make exact ties everywhere (equal
    payments, simultaneous openings and freezes)."""
    nf, nc = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    side = draw(st.integers(0, 4))
    coords = st.integers(0, side)
    fac = draw(arrays(np.int64, (nf, 2), elements=coords))
    cli = draw(arrays(np.int64, (nc, 2), elements=coords))
    D = np.abs(fac[:, None, :] - cli[None, :, :]).sum(axis=2).astype(float)
    f = draw(arrays(np.int64, nf, elements=st.integers(0, 6))).astype(float)
    weights = draw(
        st.none() | arrays(float, nc, elements=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    )
    return FacilityLocationInstance(D, f, client_weights=weights)


def _outcome(solve):
    try:
        return solve()
    except ConvergenceError as exc:
        return type(exc)


class TestMatchesDenseReference:
    """The shipped solver — one CSR body, also for dense instances —
    against the dense reference under ``tests/reference``."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        inst=grid_instances(),
        eps=st.sampled_from([0.1, 0.5]),
        preprocess=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_field_for_field(self, inst, eps, preprocess, seed):
        kw = dict(epsilon=eps, preprocess=preprocess)
        ref = _outcome(lambda: primal_dual_dense(inst, machine=PramMachine(seed=seed), **kw))
        sparse = SparseFacilityLocationInstance.from_instance(inst)
        for target in (inst, sparse):
            got = _outcome(
                lambda: parallel_primal_dual(target, machine=PramMachine(seed=seed), **kw)
            )
            if not hasattr(ref, "opened"):
                assert got is ref
                continue
            assert np.array_equal(got.opened, ref.opened)
            assert got.cost == ref.cost
            assert got.alpha.tobytes() == ref.alpha.tobytes()
            H = got.extra["H"]
            assert isinstance(H, np.ndarray) == (target is inst)
            assert np.array_equal(H if target is inst else H.toarray(), ref.extra["H"])
            for key in ("F0", "F_T", "I"):
                assert np.array_equal(got.extra[key], ref.extra[key])
            assert got.extra["gamma"] == ref.extra["gamma"]
            assert got.rounds == ref.rounds
