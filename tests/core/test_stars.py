"""§4 star computation: the greedy body's CSR prices against enumeration,
masking, Fact 4.2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy_jms import cheapest_star_prices
from repro.core.greedy_sparse import _compact_live, _star_prices_sparse
from repro.core.stars import star_members
from repro.pram.machine import PramMachine


def _presort(m, D, keep=None):
    """The greedy body's live sorted structure over ``D``'s entries (all
    of them, or those in ``keep``): CSR rows, each presorted by
    :meth:`~repro.pram.machine.PramMachine.argsort_segments`. Returns
    ``(client ids, distances, indptr)``."""
    mask = np.ones(D.shape, dtype=bool) if keep is None else keep
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(np.intp)
    rows, cols = np.nonzero(mask)
    data = D[rows, cols]
    perm = m.argsort_segments(data, indptr)
    return cols[perm], data[perm], indptr


def _prices(m, live, f, active):
    """Cheapest-star prices over the ``active`` clients: pack the
    presorted structure down to them, then price the live prefixes."""
    _, live_d, live_indptr = _compact_live(m, *live, active)
    return _star_prices_sparse(m, live_d, live_indptr, f)


def _reference(D, f, active, keep=None):
    """Sequential prices over the active candidates: a non-candidate or
    inactive client sits at ``+inf``, which no cheapest star takes."""
    if not active.any():
        return np.full(D.shape[0], np.inf)
    mask = active[None, :] if keep is None else keep & active[None, :]
    want, _ = cheapest_star_prices(np.where(mask, D, np.inf)[:, active], f)
    return want


@pytest.fixture
def setup(rng):
    D = rng.random((5, 9)) * 4
    f = rng.random(5) * 2 + 0.1
    m = PramMachine(seed=0)
    return m, D, f, _presort(m, D)


def test_presort_rows_sorted(setup):
    _, D, _, (ids, d, indptr) = setup
    assert np.array_equal(indptr, np.arange(0, D.size + 1, D.shape[1]))
    assert np.array_equal(d.reshape(D.shape), np.sort(D, axis=1))
    assert np.array_equal(np.take_along_axis(D, ids.reshape(D.shape), axis=1).ravel(), d)


def test_prices_match_sequential_reference(setup):
    m, D, f, live = setup
    active = np.ones(9, dtype=bool)
    got = _prices(m, live, f, active)
    want, _ = cheapest_star_prices(D, f)
    assert np.allclose(got, want)


def test_prices_with_mask_match_submatrix(setup):
    m, D, f, live = setup
    active = np.array([True, False, True, True, False, True, False, True, True])
    got = _prices(m, live, f, active)
    want, _ = cheapest_star_prices(D[:, active], f)
    assert np.allclose(got, want)


def test_ragged_prices_match_sequential_reference(setup, rng):
    """Truncated rows (a kNN-style candidate set, one row empty): each
    facility prices only its own active candidates."""
    m, D, f, _ = setup
    keep = rng.random(D.shape) < 0.5
    keep[2] = False
    active = np.array([True, True, False, True, True, True, False, True, True])
    got = _prices(m, _presort(m, D, keep), f, active)
    assert np.isinf(got[2])
    assert np.allclose(got, _reference(D, f, active, keep))


def test_no_active_clients_inf(setup):
    m, D, f, live = setup
    got = _prices(m, live, f, np.zeros(9, dtype=bool))
    assert np.all(np.isinf(got))


def test_zero_facility_cost_price_is_min_distance(setup):
    m, D, _, live = setup
    got = _prices(m, live, np.zeros(5), np.ones(9, dtype=bool))
    assert np.allclose(got, D.min(axis=1))


def test_single_active_client(setup):
    m, D, f, live = setup
    active = np.zeros(9, dtype=bool)
    active[4] = True
    got = _prices(m, live, f, active)
    assert np.allclose(got, f + D[:, 4])


def test_star_members_fact_42(setup):
    _, D, f, _ = setup
    prices, _ = cheapest_star_prices(D, f)
    active = np.ones(9, dtype=bool)
    for i in range(5):
        members = star_members(D, i, prices[i], active)
        # Fact 4.2(2): the members' slack exactly pays the facility.
        assert np.sum(prices[i] - D[i, members]) == pytest.approx(f[i], rel=1e-9)


def test_star_members_respect_active(setup):
    _, D, f, _ = setup
    prices, _ = cheapest_star_prices(D, f)
    active = np.zeros(9, dtype=bool)
    assert star_members(D, 0, prices[0], active).size == 0


def test_charges_only_basic_ops_per_call(setup):
    m, D, f, live = setup
    before = m.snapshot()
    _prices(m, live, f, np.ones(9, dtype=bool))
    d = m.ledger.since(before)
    # O(m) work: a handful of basic ops over the 45 stored entries. The
    # CSR pack and pricing take 11 primitive calls between them.
    assert d.work <= 12 * D.size
    assert d.calls <= 11


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 10),
    st.integers(0, 100_000),
)
def test_property_masked_prices_match_reference(nf, nc, seed):
    """Uniform (every pair stored) and ragged (a random candidate set)
    structures, priced over a random active set."""
    rng = np.random.default_rng(seed)
    D = rng.random((nf, nc)) * 10
    f = rng.random(nf) * 5
    active = rng.random(nc) < 0.7
    m = PramMachine(seed=0)
    for keep in (None, rng.random((nf, nc)) < 0.6):
        got = _prices(m, _presort(m, D, keep), f, active)
        assert np.allclose(got, _reference(D, f, active, keep))
