"""§3 dominator sets: independence in G²/H', maximality, rounds, costs.

Independence and maximality are the defining properties (MIS of the
square graph); they're checked exactly on fixed and random graphs,
including the relay-through-removed-nodes subtlety.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.reporting import summarize_rounds
from repro.core.dominator import (
    expected_round_bound,
    max_dominator_set,
    max_u_dominator_set,
)
from repro.errors import ConvergenceError, InvalidParameterError
from repro.pram.machine import PramMachine


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < p, 1)
    return A | A.T


def square_graph(A):
    return (A | (A.astype(int) @ A.astype(int) > 0)) & ~np.eye(len(A), dtype=bool)


def assert_valid_maxdom(A, sel):
    """Independent in G² and maximal (every non-member conflicts)."""
    sq = square_graph(A)
    idx = np.flatnonzero(sel)
    for a in idx:
        for b in idx:
            if a != b:
                assert not sq[a, b], f"{a},{b} within two hops"
    for v in np.flatnonzero(~sel):
        assert sq[v][sel].any(), f"{v} could still be added"


def assert_valid_maxudom(B, sel, candidates=None):
    """No two selected share a V-neighbor; maximal among candidates."""
    share = (B.astype(int) @ B.astype(int).T) > 0
    idx = np.flatnonzero(sel)
    for a in idx:
        for b in idx:
            if a != b:
                assert not share[a, b], f"{a},{b} share a V-neighbor"
    cand = np.ones(B.shape[0], dtype=bool) if candidates is None else candidates
    for u in np.flatnonzero(cand & ~sel):
        assert share[u][sel].any(), f"{u} could still be added"


class TestMaxDom:
    def test_empty_graph_selects_all(self, machine):
        A = np.zeros((5, 5), dtype=bool)
        assert max_dominator_set(A, machine).all()

    def test_complete_graph_selects_one(self, machine):
        A = ~np.eye(6, dtype=bool)
        assert max_dominator_set(A, machine).sum() == 1

    def test_path_graph(self, machine):
        A = np.zeros((7, 7), dtype=bool)
        for i in range(6):
            A[i, i + 1] = A[i + 1, i] = True
        sel = max_dominator_set(A, machine)
        assert_valid_maxdom(A, sel)

    def test_star_graph_center_or_one_leaf(self, machine):
        A = np.zeros((8, 8), dtype=bool)
        A[0, 1:] = A[1:, 0] = True
        sel = max_dominator_set(A, machine)
        assert sel.sum() == 1  # all nodes pairwise within two hops

    def test_relay_through_nonadjacent_component(self, machine):
        # Two hubs joined by a middle relay; hubs are two hops apart so
        # only one may win even after the relay's component shrinks.
        A = np.zeros((3, 3), dtype=bool)
        A[0, 1] = A[1, 0] = True
        A[1, 2] = A[2, 1] = True
        sel = max_dominator_set(A, machine)
        assert sel.sum() == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.6])
    def test_random_graphs_valid(self, seed, p):
        A = random_graph(24, p, seed)
        sel = max_dominator_set(A, PramMachine(seed=seed))
        assert_valid_maxdom(A, sel)

    def test_self_loops_ignored(self, machine):
        A = np.eye(4, dtype=bool)
        assert max_dominator_set(A, machine).all()

    def test_zero_nodes(self, machine):
        assert max_dominator_set(np.zeros((0, 0), dtype=bool), machine).size == 0

    def test_rejects_asymmetric(self, machine):
        A = np.zeros((3, 3), dtype=bool)
        A[0, 1] = True
        with pytest.raises(InvalidParameterError, match="symmetric"):
            max_dominator_set(A, machine)

    def test_rejects_nonsquare(self, machine):
        with pytest.raises(InvalidParameterError, match="square"):
            max_dominator_set(np.zeros((2, 3), dtype=bool), machine)

    def test_round_cap_raises(self):
        A = random_graph(20, 0.2, 0)
        with pytest.raises(ConvergenceError):
            max_dominator_set(A, PramMachine(seed=0), max_rounds=0)

    def test_rounds_within_expected_envelope(self):
        n = 48
        A = random_graph(n, 0.1, 3)
        m = PramMachine(seed=3)
        max_dominator_set(A, m)
        assert m.ledger.rounds["maxdom_sparse"] <= expected_round_bound(n)

    def test_work_charged_quadratic_per_round(self):
        n = 32
        A = random_graph(n, 0.2, 1)
        m = PramMachine(seed=1)
        max_dominator_set(A, m)
        rounds = m.ledger.rounds["maxdom_sparse"]
        # each round: O(1) basic ops on n² elements
        assert m.ledger.work <= 30 * rounds * n * n

    def test_deterministic_under_seed(self):
        A = random_graph(30, 0.15, 7)
        a = max_dominator_set(A, PramMachine(seed=42))
        b = max_dominator_set(A, PramMachine(seed=42))
        assert np.array_equal(a, b)

    def test_late_rounds_charge_only_the_candidate_strip(self):
        """Eliminated nodes stop costing work: the last round runs on the
        candidate strip and charges less than one pass over the
        ``n × n`` matrix, which a full-matrix round makes several times
        over."""
        A = random_graph(80, 0.1, 1)
        m = PramMachine(seed=4)
        max_dominator_set(A, m)
        trace = summarize_rounds(m.ledger.round_log, "maxdom_sparse", m.ledger.work)
        assert trace["rounds"] >= 2
        assert trace["work_last"] < A.size


class TestMaxUDom:
    def test_disjoint_stars_all_selected(self, machine):
        B = np.zeros((3, 6), dtype=bool)
        B[0, :2] = B[1, 2:4] = B[2, 4:] = True
        assert max_u_dominator_set(B, machine).all()

    def test_shared_neighbor_one_wins(self, machine):
        B = np.ones((4, 1), dtype=bool)  # all share the single V node
        assert max_u_dominator_set(B, machine).sum() == 1

    def test_isolated_u_nodes_selected(self, machine):
        B = np.zeros((3, 2), dtype=bool)
        B[0, 0] = B[1, 0] = True
        sel = max_u_dominator_set(B, machine)
        assert sel[2]  # no V-neighbors -> no conflicts
        assert sel[:2].sum() == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bipartite_valid(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.random((15, 10)) < 0.25
        sel = max_u_dominator_set(B, PramMachine(seed=seed))
        assert_valid_maxudom(B, sel)

    @pytest.mark.parametrize("seed", range(4))
    def test_candidate_restriction(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.random((12, 8)) < 0.3
        cand = rng.random(12) < 0.6
        sel = max_u_dominator_set(B, PramMachine(seed=seed), candidates=cand)
        assert not sel[~cand].any()
        assert_valid_maxudom(B, sel, candidates=cand)

    def test_no_candidates_returns_empty(self, machine):
        B = np.ones((3, 3), dtype=bool)
        sel = max_u_dominator_set(B, machine, candidates=np.zeros(3, dtype=bool))
        assert not sel.any()

    def test_zero_u_nodes(self, machine):
        assert max_u_dominator_set(np.zeros((0, 4), dtype=bool), machine).size == 0

    def test_bad_candidates_shape(self, machine):
        with pytest.raises(InvalidParameterError, match="candidates"):
            max_u_dominator_set(np.ones((3, 2), dtype=bool), machine, candidates=np.ones(4, dtype=bool))

    def test_round_cap_raises(self, machine):
        with pytest.raises(ConvergenceError):
            max_u_dominator_set(np.ones((4, 2), dtype=bool), machine, max_rounds=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 18), st.floats(0.0, 0.9), st.integers(0, 10_000))
def test_property_maxdom_always_valid(n, p, seed):
    A = random_graph(n, p, seed)
    sel = max_dominator_set(A, PramMachine(seed=seed))
    assert_valid_maxdom(A, sel)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 10), st.floats(0.0, 0.9), st.integers(0, 10_000))
def test_property_maxudom_always_valid(nu, nv, p, seed):
    rng = np.random.default_rng(seed)
    B = rng.random((nu, nv)) < p
    sel = max_u_dominator_set(B, PramMachine(seed=seed))
    assert_valid_maxudom(B, sel)
