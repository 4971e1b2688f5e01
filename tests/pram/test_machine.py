"""PramMachine: primitive correctness + cost-charging contracts.

Every primitive must (a) return the same values NumPy would and
(b) charge the §2 model costs for its class (map/reduce/sort/...).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import InvalidParameterError
from repro.pram.backends import SerialBackend, ThreadBackend
from repro.pram.machine import PramMachine, ensure_machine


@pytest.fixture
def m():
    return PramMachine(seed=5)


# -- value correctness -------------------------------------------------------

def test_map_elementwise(m, rng):
    a = rng.random((6, 7))
    assert np.allclose(m.map(lambda x: x + 1, a), a + 1)


def test_map_multiple_arrays(m, rng):
    a, b = rng.random((4, 4)), rng.random((4, 4))
    assert np.allclose(m.map(np.minimum, a, b), np.minimum(a, b))


def test_where(m, rng):
    a = rng.random((5, 5))
    out = m.where(a > 0.5, 1.0, 0.0)
    assert np.array_equal(out, np.where(a > 0.5, 1.0, 0.0))


@pytest.mark.parametrize("op,ref", [("add", np.sum), ("min", np.min), ("max", np.max)])
@pytest.mark.parametrize("axis", [0, 1, None])
def test_reduce(m, rng, op, ref, axis):
    a = rng.random((6, 9))
    assert np.allclose(m.reduce(a, op, axis=axis), ref(a, axis=axis))


def test_scan_add(m, rng):
    a = rng.random((3, 8))
    assert np.allclose(m.scan(a, "add", axis=1), np.cumsum(a, axis=1))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_reduce_3d(m, rng, axis):
    """3-D reductions back the §7 batched swap evaluation."""
    a = rng.random((4, 5, 6))
    assert np.allclose(m.reduce(a, "add", axis=axis), a.sum(axis=axis))
    assert np.allclose(m.reduce(a, "min", axis=axis), a.min(axis=axis))


def test_reduce_3d_thread_backend(rng):
    from repro.pram.backends import ThreadBackend

    tm = PramMachine(backend=ThreadBackend(2), seed=0)
    try:
        a = rng.random((6, 7, 8))
        assert np.allclose(tm.reduce(a, "add", axis=2), a.sum(axis=2))
    finally:
        tm.close()


def test_argmin_argmax(m, rng):
    a = rng.random((7, 5))
    assert np.array_equal(m.argmin(a, axis=0), np.argmin(a, axis=0))
    assert np.array_equal(m.argmax(a, axis=1), np.argmax(a, axis=1))
    assert m.argmin(a) == np.argmin(a)


def test_transpose(m, rng):
    a = rng.random((3, 6))
    assert np.array_equal(m.transpose(a), a.T)


def test_take_columns(m, rng):
    a = rng.random((5, 8))
    idx = np.array([7, 0, 3])
    assert np.array_equal(m.take_columns(a, idx), a[:, idx])


def test_take_columns_out_of_range(m, rng):
    """Regression: bad column indices must raise like take_rows does,
    not wrap around and silently corrupt the frontier gather."""
    a = rng.random((3, 4))
    with pytest.raises(InvalidParameterError):
        m.take_columns(a, np.array([4]))
    with pytest.raises(InvalidParameterError):
        m.take_columns(a, np.array([-1]))
    with pytest.raises(InvalidParameterError):
        m.take_columns(np.arange(5.0), np.array([0]))


def test_pack(m):
    vals = np.arange(10)
    mask = vals % 3 == 0
    assert np.array_equal(m.pack(vals, mask), [0, 3, 6, 9])


def test_pack_shape_mismatch(m):
    with pytest.raises(InvalidParameterError):
        m.pack(np.arange(4), np.ones(5, dtype=bool))


def test_take_rows(m, rng):
    a = rng.random((6, 5))
    idx = np.array([4, 0, 2])
    assert np.array_equal(m.take_rows(a, idx), a[idx])
    v = rng.random(9)
    assert np.array_equal(m.take_rows(v, idx), v[idx])


def test_take_rows_out_of_range(m):
    with pytest.raises(InvalidParameterError):
        m.take_rows(np.ones((3, 2)), np.array([3]))


def test_count_votes(m, rng):
    labels = rng.integers(0, 7, size=200)
    assert np.array_equal(m.count_votes(labels, 7), np.bincount(labels, minlength=7))


def test_count_votes_masked(m, rng):
    labels = rng.integers(0, 5, size=100)
    mask = rng.random(100) < 0.4
    assert np.array_equal(
        m.count_votes(labels, 5, mask=mask), np.bincount(labels[mask], minlength=5)
    )


def test_count_votes_validation(m):
    with pytest.raises(InvalidParameterError):
        m.count_votes(np.array([3]), 2)
    with pytest.raises(InvalidParameterError):
        m.count_votes(np.array([-1, 1]), 2)
    with pytest.raises(InvalidParameterError):
        m.count_votes(np.array([0]), 0)  # nonempty labels need a range
    with pytest.raises(InvalidParameterError):
        m.count_votes(np.array([0, 1]), 2, mask=np.ones(3, dtype=bool))


def test_masked_axpy(m, rng):
    x = rng.random((5, 6))
    y = rng.random((5, 6))
    mask = x > 0.5
    want = np.where(mask, np.maximum(0.0, -1.0 * x + y), 9.0)
    got = m.masked_axpy(-1.0, x, y, clamp_min=0.0, mask=mask, fill=9.0)
    assert np.allclose(got, want)


def test_masked_axpy_scalar_y(m, rng):
    x = rng.random((4, 3))
    assert np.allclose(m.masked_axpy(2.0, x, 1.5), 2.0 * x + 1.5)


def test_argsort_rows(m, rng):
    """A row argsort is ``argsort_segments`` over uniform segments."""
    a = rng.random((4, 7))
    got = m.argsort_segments(a.ravel(), np.arange(0, 29, 7))
    assert np.array_equal(a.ravel()[got].reshape(4, 7), np.sort(a, axis=1))


def test_sort_vector(m, rng):
    v = rng.random(20)
    assert np.array_equal(m.sort(v), np.sort(v))


def test_sort_vector_requires_1d(m):
    with pytest.raises(InvalidParameterError):
        m.sort(np.ones((2, 2)))


def test_sorted_unique_values(m, rng):
    v = rng.integers(0, 12, size=40).astype(float)
    assert np.array_equal(m.sorted_unique(v), np.unique(v))


def test_sorted_unique_requires_1d(m):
    with pytest.raises(InvalidParameterError):
        m.sorted_unique(np.ones((2, 2)))


def test_sorted_unique_empty(m):
    assert m.sorted_unique(np.array([])).size == 0


def test_sorted_unique_charges_one_sort_plus_pack(rng):
    """The ledger-honesty regression: exactly one sort charge (no
    second, uncharged sort the way ``np.unique(machine.sort(v))`` did)
    plus one pack for the adjacent-difference compaction."""
    import math

    m = PramMachine()
    v = rng.integers(0, 30, size=128).astype(float)
    m.sorted_unique(v)
    assert m.ledger.calls_by_op["sorted_unique"] == 1
    assert m.ledger.calls_by_op["pack"] == 1
    assert "sort" not in m.ledger.calls_by_op
    assert m.ledger.total_calls == 2
    # work = one m·log₂(m) sort + one m pack, nothing else
    assert m.ledger.work == pytest.approx(128 * math.log2(128) + 128)


def test_random_priorities_distinct(m):
    p = m.random_priorities(50)
    assert sorted(p.tolist()) == list(range(50))


def test_machine_seed_determinism():
    a = PramMachine(seed=3).random_priorities(10)
    b = PramMachine(seed=3).random_priorities(10)
    assert np.array_equal(a, b)


# -- cost-charging contracts ---------------------------------------------------

def test_map_charges_unit_depth(m, rng):
    a = rng.random((8, 8))
    before = m.snapshot()
    m.map(lambda x: x, a)
    d = m.ledger.since(before)
    assert d.work == 64 and d.depth == 1


def test_reduce_charges_log_depth(m, rng):
    a = rng.random((16, 16))  # 256 elements -> depth 9
    before = m.snapshot()
    m.reduce(a, "add")
    d = m.ledger.since(before)
    assert d.work == 256 and d.depth == 9


def test_sort_rows_charges_superlinear_work(m, rng):
    """Sorting rows (``argsort_segments`` over uniform segments) charges
    ``m log r`` work and ``log r`` depth."""
    a = rng.random((4, 256))
    before = m.snapshot()
    m.argsort_segments(a.ravel(), np.arange(0, a.size + 1, 256))
    d = m.ledger.since(before)
    assert d.work == pytest.approx(4 * 256 * 8)
    assert d.depth == pytest.approx(8)


def test_calls_tracked_per_op(m, rng):
    a = rng.random((4, 4))
    m.reduce(a, "min", axis=1)
    m.reduce(a, "min", axis=0)
    m.scan(a, "add", axis=1)
    assert m.ledger.calls_by_op["reduce[min]"] == 2
    assert m.ledger.calls_by_op["scan[add]"] == 1


def test_bump_round_delegates(m):
    m.bump_round("phase")
    assert m.ledger.rounds["phase"] == 1


def test_frontier_primitives_charge(m, rng):
    a = rng.random((8, 8))
    m.take_rows(a, np.array([1, 2]))
    m.segment_positions(np.arange(0, 65, 8), np.array([0, 3]))
    m.pack(a.ravel(), np.tile(np.array([True, False]), 32))
    m.count_votes(np.array([0, 1, 1]), 3)
    m.masked_axpy(1.0, a, 0.0)
    assert m.ledger.calls_by_op["take_rows"] == 1
    assert m.ledger.calls_by_op["segment_gather"] == 1
    assert m.ledger.calls_by_op["pack"] == 1
    assert m.ledger.calls_by_op["count_votes"] == 1
    assert m.ledger.calls_by_op["masked_axpy"] == 1
    assert m.ledger.work > 0
    # gathers are O(1)-depth parallel reads; pack/count carry log depth
    assert m.ledger.depth < m.ledger.work


# -- property-based agreement with NumPy ---------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_scan_then_last_equals_reduce(a):
    m = PramMachine(seed=0)
    scanned = m.scan(a, "add", axis=1)
    assert np.allclose(scanned[:, -1], m.reduce(a, "add", axis=1))


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_sort_rows_is_permutation_and_ordered(a):
    """Rows sorted by ``argsort_segments`` are ordered permutations."""
    m = PramMachine(seed=0)
    pos = m.argsort_segments(a.ravel(), np.arange(0, a.size + 1, a.shape[1]))
    assert np.array_equal(np.sort(pos.reshape(a.shape), axis=1), np.arange(a.size).reshape(a.shape))
    s = a.ravel()[pos].reshape(a.shape)
    assert np.all(np.diff(s, axis=1) >= 0)
    assert np.allclose(np.sort(a, axis=1), s)


# -- backend lifecycle --------------------------------------------------------

def test_machine_context_manager_closes_owned_backend(rng):
    backend = ThreadBackend(2)
    with PramMachine(backend=backend, seed=1) as m:
        a = rng.random((16, 8))
        assert np.allclose(m.reduce(a, "add", axis=1), a.sum(axis=1))
    assert backend.closed


def test_machine_close_leaves_shared_backend_open():
    m = PramMachine(backend="serial", seed=1)
    shared = m.backend
    m.close()
    assert not shared.closed
    # a second machine on the same spec reuses the still-open instance
    assert PramMachine(backend="serial").backend is shared


def test_ensure_machine_passthrough_and_conflict():
    m = PramMachine(seed=3)
    assert ensure_machine(m) is m
    with pytest.raises(InvalidParameterError):
        ensure_machine(m, backend="serial")


def test_ensure_machine_builds_on_named_backend():
    m = ensure_machine(backend="serial", seed=9)
    assert isinstance(m.backend, SerialBackend)
    # there is no size-based "auto" backend
    with pytest.raises(InvalidParameterError, match="unknown backend 'auto'"):
        ensure_machine(backend="auto", seed=9)
