"""MetricSpace: construction, p-norms, queries, immutability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.metrics.space import MetricSpace
from repro.metrics.validation import triangle_violation


@pytest.fixture
def square_space():
    # Unit square corners: distances known exactly.
    return MetricSpace.from_points(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float))


def test_from_points_euclidean(square_space):
    assert square_space.distance(0, 1) == pytest.approx(1.0)
    assert square_space.distance(0, 3) == pytest.approx(np.sqrt(2))


def test_from_points_l1():
    sp = MetricSpace.from_points(np.array([[0.0, 0.0], [1.0, 1.0]]), p=1.0)
    assert sp.distance(0, 1) == pytest.approx(2.0)


def test_from_points_linf():
    sp = MetricSpace.from_points(np.array([[0.0, 0.0], [1.0, 3.0]]), p=np.inf)
    assert sp.distance(0, 1) == pytest.approx(3.0)


def test_from_points_general_p():
    sp = MetricSpace.from_points(np.array([[0.0, 0.0], [1.0, 1.0]]), p=3.0)
    assert sp.distance(0, 1) == pytest.approx(2 ** (1 / 3))


def test_n_and_repr(square_space):
    assert square_space.n == 4
    assert "n=4" in repr(square_space)


def test_points_retained(square_space):
    assert square_space.points.shape == (4, 2)


def test_matrix_readonly(square_space):
    with pytest.raises(ValueError):
        square_space.D[0, 1] = 99.0


def test_caller_keeps_writing_its_arrays():
    """Unvalidated construction copies a caller's writable matrix and
    points rather than freezing them; its own stay read-only."""
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    P = np.array([[0.0], [1.0]])
    space = MetricSpace(D, points=P, validate=False)
    D[0] = 1.0
    P[0] = 1.0
    assert space.D[0, 0] == 0.0 and space.points[0, 0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        space.D[0, 1] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        space.points[0, 0] = 2.0


def test_distance_to_set(square_space):
    d = square_space.distance_to_set([3], [0, 1])
    assert d[0] == pytest.approx(1.0)  # corner (1,1) to (1,0)


def test_distance_to_set_empty_raises(square_space):
    with pytest.raises(InvalidInstanceError):
        square_space.distance_to_set([0], [])


def test_submatrix(square_space):
    block = square_space.submatrix([0, 1], [2, 3])
    assert block.shape == (2, 2)
    assert block[0, 0] == pytest.approx(1.0)


def test_constructor_validates():
    bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(InvalidInstanceError):
        MetricSpace(bad)


def test_constructor_validate_false_trusts():
    bad = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    sp = MetricSpace(bad, validate=False)
    assert sp.n == 3


def test_points_length_mismatch():
    D = np.zeros((2, 2))
    with pytest.raises(InvalidInstanceError, match="disagree"):
        MetricSpace(D, points=np.zeros((3, 2)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(1, 3),
    st.sampled_from([1.0, 2.0, np.inf]),
    st.integers(0, 1000),
)
def test_from_points_is_always_metric(n, dim, p, seed):
    pts = np.random.default_rng(seed).random((n, dim)) * 10
    sp = MetricSpace.from_points(pts, p=p)
    assert triangle_violation(sp.D) <= 1e-9
    assert np.allclose(sp.D, sp.D.T)
    assert np.all(np.diagonal(sp.D) == 0)
