"""Behavior of the sparse greedy / primal–dual paths on truncated
instances (the cases with no dense twin): solution quality, fallback
handling, O(nnz) work scaling, and entry-point plumbing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import PramMachine
from repro.baselines.brute_force import brute_force_facility_location
from repro.core import primal_dual_sparse as pds
from repro.core.greedy import parallel_greedy
from repro.core.primal_dual import parallel_primal_dual
from repro.errors import ConvergenceError
from repro.metrics.generators import euclidean_instance, knn_instance
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import (
    SparseFacilityLocationInstance,
    knn_sparsify,
    threshold_sparsify,
)
from tests.reference.primal_dual_levels import primal_dual_levels


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
        got = _fold_sums(PramMachine(), terms, np.zeros(3, np.intp), np.array([2, 1, 0]), 1, True)
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
    def test_solution_metadata(self):
        inst = knn_instance(12, 50, k=4, seed=2)
        sol = parallel_primal_dual(inst, epsilon=0.2, machine=PramMachine(seed=9))
        assert sol.model_costs.work > 0
        assert "gamma" in sol.extra and np.isfinite(sol.extra["gamma"])
        H = sol.extra["H"]
        assert H.shape == (12, 50)


@st.composite
def grid_instances(draw):
    """A small L1 integer-grid instance (exact ties everywhere),
    weighted or not."""
    nf, nc = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    coords = st.integers(0, draw(st.integers(0, 5)))
    fac = draw(arrays(np.int64, (nf, 2), elements=coords))
    cli = draw(arrays(np.int64, (nc, 2), elements=coords))
    D = np.abs(fac[:, None, :] - cli[None, :, :]).sum(axis=2).astype(float)
    f = draw(arrays(np.int64, nf, elements=st.integers(0, 8))).astype(float)
    weights = draw(
        st.none() | arrays(float, nc, elements=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    )
    return FacilityLocationInstance(D, f, client_weights=weights)


@st.composite
def truncated_instances(draw):
    """Inputs only a CSR body takes: a grid instance truncated by kNN or
    by threshold — a finite fallback column, so clients can freeze from
    level 1 — with every row's entries stored in a drawn order."""
    dense = draw(grid_instances())
    nf, nc = dense.n_facilities, dense.n_clients
    weights = None if dense.has_unit_weights else dense.client_weights
    if draw(st.booleans()):
        inst = knn_sparsify(
            dense, draw(st.integers(1, nf)), fallback_slack=draw(st.sampled_from([0.0, 0.5, 1.0]))
        )
    else:
        inst = threshold_sparsify(dense, draw(st.sampled_from([0.1, 0.5, 2.0])))
    perm = np.concatenate([
        lo + np.asarray(draw(st.permutations(range(hi - lo))), dtype=np.intp)
        for lo, hi in zip(inst.indptr[:-1], inst.indptr[1:])
    ])
    return SparseFacilityLocationInstance(
        inst.indptr, inst.indices[perm], inst.data[perm], inst.f,
        n_clients=nc, fallback=inst.fallback, client_weights=weights,
    )


def _outcome(solve):
    try:
        return solve()
    except ConvergenceError as exc:
        return exc


def _assert_matches(got, ref):
    """Field for field: opened set, cost, α bytes, H, F0/F_T/I, γ, rounds."""
    assert np.array_equal(got.opened, ref.opened)
    assert got.cost == ref.cost
    assert got.alpha.tobytes() == ref.alpha.tobytes()
    H, H_ref = got.extra["H"], ref.extra["H"]
    assert np.array_equal(H, H_ref) if isinstance(H, np.ndarray) else (H != H_ref).nnz == 0
    for key in ("F0", "F_T", "I"):
        assert np.array_equal(got.extra[key], ref.extra[key])
    assert got.extra["gamma"] == ref.extra["gamma"]
    assert got.rounds == ref.rounds


class TestMatchesLevelByLevelReference:
    """The shipped body, which runs only the levels where something can
    happen, against the loop under ``tests/reference`` that runs every
    level — on truncated instances, rows out of column order and small
    iteration caps, which the dense reference cannot express."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        inst=truncated_instances(),
        eps=st.sampled_from([0.1, 0.7]),
        preprocess=st.booleans(),
        cap=st.none() | st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_field_for_field(self, inst, eps, preprocess, cap, seed):
        kw = dict(epsilon=eps, preprocess=preprocess, max_iterations=cap)
        ref = _outcome(lambda: primal_dual_levels(inst, machine=PramMachine(seed=seed), **kw))
        got = _outcome(lambda: parallel_primal_dual(inst, machine=PramMachine(seed=seed), **kw))
        if isinstance(ref, ConvergenceError):
            assert isinstance(got, ConvergenceError) and str(got) == str(ref)
            return
        _assert_matches(got, ref)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        inst=grid_instances() | truncated_instances(),
        eps=st.sampled_from([0.1, 0.7]),
        preprocess=st.booleans(),
        shift=st.sampled_from([1, 7, -1, None]),
    )
    def test_whatever_the_opening_estimate_says(self, inst, eps, preprocess, shift):
        """A late, early or missing estimate moves no answer: the exact
        sums walk it back to the first opening, or the body runs a level
        at which nothing happens."""
        kw = dict(epsilon=eps, preprocess=preprocess)
        ref = primal_dual_levels(inst, machine=PramMachine(seed=0), **kw)
        with pytest.MonkeyPatch.context() as mp:
            _skew(mp, shift)
            got = parallel_primal_dual(inst, machine=PramMachine(seed=0), **kw)
        _assert_matches(got, ref)


def _weighted(inst):
    return FacilityLocationInstance(
        inst.D, inst.f, client_weights=np.linspace(0.3, 3.0, inst.n_clients)
    )


def _opens_on_level_one():
    """γ = 20.5 and m = 6 put c_1 = 1.1·20.5/36 ≈ 0.626 above f_0 = 0.6
    and above the distance 0.5 from clients 1 and 2 to facility 1
    (f_1 = 20), and preprocessing pays only γ/m² ≈ 0.569. So facility 0
    opens at level 1, the first epoch's first level, whose bucket also
    starts facility 1's edges paying: a late or missing estimate is
    walked back to a level whose bucket the candidate set already
    holds."""
    return FacilityLocationInstance(
        np.array([[0.0, 50.0, 50.0], [50.0, 0.5, 0.5]]), np.array([0.6, 20.0])
    )


def _skew(mp, shift):
    """Patch in an opening estimate ``shift`` levels off (clamped to its
    window), or one that never finds an opening (``shift=None``), and
    check after every search that the paying set holds each edge once,
    in flat order."""
    real_estimate, real_search = pds._first_opening, pds._next_event

    def estimate(machine, c, a, b, need, sw, swd, added):
        found, sw, swd = real_estimate(machine, c, a, b, need, sw, swd, added)
        if found is None or shift is None:
            return None, sw, swd
        return min(max(found + shift, a), b), sw, swd

    def search(*args):
        level, pay, h = real_search(*args)
        assert np.all(np.diff(pay["pos"]) > 0)
        return level, pay, h

    mp.setattr(pds, "_first_opening", estimate)
    mp.setattr(pds, "_next_event", search)


@pytest.mark.parametrize("shift", [1, 7, -1, None], ids=["late", "late-7", "early", "none"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: euclidean_instance(12, 40, seed=4),
        lambda: knn_sparsify(euclidean_instance(12, 40, seed=5), 4),
        lambda: threshold_sparsify(_weighted(euclidean_instance(10, 30, seed=6)), 0.5),
        lambda: knn_instance(30, 200, k=6, seed=7),
        _opens_on_level_one,
    ],
    ids=["dense", "knn", "threshold-weighted", "knn-instance", "opens-on-level-1"],
)
def test_a_wrong_opening_estimate_changes_nothing(monkeypatch, build, shift):
    """The estimate only says where to look: the exact sums at the
    level before it, and a gallop and bisection when something opens
    there, make the skip exact whatever it says. An early estimate runs
    a level at which nothing happens; a late or missing one is walked
    back to the first opening, and the levels it skips join the paying
    set once."""
    inst = build()
    ref = primal_dual_levels(inst, epsilon=0.1, machine=PramMachine(seed=2))
    _skew(monkeypatch, shift)
    got = parallel_primal_dual(inst, epsilon=0.1, machine=PramMachine(seed=2))
    _assert_matches(got, ref)


@pytest.mark.parametrize("preprocess", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_distances_on_the_thresholds(seed, preprocess):
    """ε = 1 with power-of-two data puts distances exactly on the
    thresholds: γ = 16 and m = 32 give c_ℓ = 2^ℓ / 64. An edge with
    d = c_ℓ pays nothing at ℓ and starts paying at ℓ + 1."""
    rng = np.random.default_rng(seed)
    D = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0], size=(4, 8))
    D[:, 0] = 16.0  # client 0's cheapest service is f_0 + 16 = γ
    f = rng.choice([0.0, 1.0, 2.0, 4.0, 8.0], size=4)
    f[0] = 0.0
    inst = FacilityLocationInstance(D, f)
    kw = dict(epsilon=1.0, preprocess=preprocess)
    ref = primal_dual_levels(inst, machine=PramMachine(seed=seed), **kw)
    got = parallel_primal_dual(inst, machine=PramMachine(seed=seed), **kw)
    assert got.extra["gamma"] == 16.0
    _assert_matches(got, ref)


@pytest.mark.parametrize("weighted", [False, True])
def test_a_client_exactly_at_the_preprocessing_radius(weighted):
    """Client 1 sits at exactly ``γ/m²·(1+10⁻¹²)`` from facility 0, which
    opens free (``f_0 = 0``): it is freely connected, with ``α = 0``,
    though its edge pays nothing in the preprocessing sums."""
    gamma, m = 10.0, 6
    cut = gamma / (m * m) * (1.0 + 1e-12)
    D = np.array([[10.0, cut, 3.0], [10.0, 4.0, 4.0]])
    inst = FacilityLocationInstance(
        D, np.array([0.0, 5.0]), client_weights=np.array([1.0, 2.0, 0.5]) if weighted else None
    )
    ref = primal_dual_levels(inst, epsilon=0.1, machine=PramMachine(seed=0))
    got = parallel_primal_dual(inst, epsilon=0.1, machine=PramMachine(seed=0))
    assert got.extra["gamma"] == gamma and got.alpha[1] == 0.0
    _assert_matches(got, ref)
