"""§4 star computation: agreement with enumeration, masking, Fact 4.2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy_jms import cheapest_star_prices
from repro.core.stars import (
    cheapest_star_prices_compact,
    compact_sorted_columns,
    presort_distances,
    star_members,
)
from repro.pram.machine import PramMachine


def _prices(m, Ds, order, f, active):
    """Cheapest-star prices over the ``active`` clients: pack the
    presorted structure down to them, then price the live prefix."""
    _, live_d = compact_sorted_columns(m, order, Ds, active)
    return cheapest_star_prices_compact(m, live_d, f)


@pytest.fixture
def setup(rng):
    D = rng.random((5, 9)) * 4
    f = rng.random(5) * 2 + 0.1
    m = PramMachine(seed=0)
    order, Ds = presort_distances(m, D)
    return m, D, f, order, Ds


def test_presort_rows_sorted(setup):
    _, D, _, order, Ds = setup
    assert np.array_equal(Ds, np.sort(D, axis=1))
    assert np.array_equal(np.take_along_axis(D, order, axis=1), Ds)


def test_prices_match_sequential_reference(setup):
    m, D, f, order, Ds = setup
    active = np.ones(9, dtype=bool)
    got = _prices(m, Ds, order, f, active)
    want, _ = cheapest_star_prices(D, f)
    assert np.allclose(got, want)


def test_prices_with_mask_match_submatrix(setup):
    m, D, f, order, Ds = setup
    active = np.array([True, False, True, True, False, True, False, True, True])
    got = _prices(m, Ds, order, f, active)
    want, _ = cheapest_star_prices(D[:, active], f)
    assert np.allclose(got, want)


def test_no_active_clients_inf(setup):
    m, D, f, order, Ds = setup
    got = _prices(m, Ds, order, f, np.zeros(9, dtype=bool))
    assert np.all(np.isinf(got))


def test_zero_facility_cost_price_is_min_distance(setup):
    m, D, _, order, Ds = setup
    got = _prices(m, Ds, order, np.zeros(5), np.ones(9, dtype=bool))
    assert np.allclose(got, D.min(axis=1))


def test_single_active_client(setup):
    m, D, f, order, Ds = setup
    active = np.zeros(9, dtype=bool)
    active[4] = True
    got = _prices(m, Ds, order, f, active)
    assert np.allclose(got, f + D[:, 4])


def test_star_members_fact_42(setup):
    _, D, f, *_ = setup
    prices, _ = cheapest_star_prices(D, f)
    active = np.ones(9, dtype=bool)
    for i in range(5):
        members = star_members(D, i, prices[i], active)
        # Fact 4.2(2): the members' slack exactly pays the facility.
        assert np.sum(prices[i] - D[i, members]) == pytest.approx(f[i], rel=1e-9)


def test_star_members_respect_active(setup):
    _, D, f, *_ = setup
    prices, _ = cheapest_star_prices(D, f)
    active = np.zeros(9, dtype=bool)
    assert star_members(D, 0, prices[0], active).size == 0


def test_charges_only_basic_ops_per_call(setup):
    m, D, f, order, Ds = setup
    before = m.snapshot()
    _prices(m, Ds, order, f, np.ones(9, dtype=bool))
    d = m.ledger.since(before)
    # O(m) work: a handful of basic ops over the 45-element matrix.
    assert d.work <= 12 * D.size
    assert d.calls <= 8


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 10),
    st.integers(0, 100_000),
)
def test_property_masked_prices_match_reference(nf, nc, seed):
    rng = np.random.default_rng(seed)
    D = rng.random((nf, nc)) * 10
    f = rng.random(nf) * 5
    active = rng.random(nc) < 0.7
    m = PramMachine(seed=0)
    order, Ds = presort_distances(m, D)
    got = _prices(m, Ds, order, f, active)
    if active.any():
        want, _ = cheapest_star_prices(D[:, active], f)
        assert np.allclose(got, want)
    else:
        assert np.all(np.isinf(got))
