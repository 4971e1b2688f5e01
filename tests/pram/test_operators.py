"""Associative operators: identities, reductions, scans, registry."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.pram.machine import PramMachine
from repro.pram.operators import ADD, AND, MAX, MIN, OR, get_operator

ALL_OPS = [ADD, MIN, MAX, OR, AND]


@pytest.mark.parametrize("op", ALL_OPS)
def test_identity_is_two_sided(op):
    for v in ([0.5], [2.0], [True] if op.name in ("or", "and") else [-3.0]):
        x = np.asarray(v)
        assert np.array_equal(op.ufunc(op.identity, x), x.astype(op.ufunc(op.identity, x).dtype))
        assert np.array_equal(op.ufunc(x, op.identity), op.ufunc(op.identity, x))


def test_add_reduce_matches_sum():
    a = np.arange(12.0).reshape(3, 4)
    assert np.allclose(ADD.reduce(a, axis=1), a.sum(axis=1))
    assert np.allclose(ADD.reduce(a, axis=0), a.sum(axis=0))


def test_min_max_reduce():
    a = np.array([[3.0, 1.0, 2.0], [0.0, -1.0, 5.0]])
    assert np.array_equal(MIN.reduce(a, axis=1), [1.0, -1.0])
    assert np.array_equal(MAX.reduce(a, axis=1), [3.0, 5.0])


def test_bool_reduce():
    a = np.array([[True, False], [False, False]])
    assert np.array_equal(OR.reduce(a, axis=1), [True, False])
    assert np.array_equal(AND.reduce(a, axis=1), [False, False])


def test_reduce_empty_returns_identity():
    assert ADD.reduce(np.empty(0)) == 0
    assert MIN.reduce(np.empty(0)) == np.inf
    assert MAX.reduce(np.empty(0)) == -np.inf


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.name)
@pytest.mark.parametrize("shape,axis", [((3, 0), 1), ((0, 3), 0)], ids=["rows", "columns"])
def test_reduce_over_empty_axis_returns_identity(op, shape, axis):
    """An empty reduced axis yields the identity once per output slot,
    through the machine as well as the operator."""
    a = np.zeros(shape, dtype=bool if op.name in ("or", "and") else float)
    want = np.full(3, op.identity)
    assert np.array_equal(op.reduce(a, axis=axis), want)
    assert np.array_equal(PramMachine().reduce(a, op.name, axis=axis), want)


def test_scan_inclusive_semantics():
    a = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(ADD.scan(a, axis=1), [[1.0, 3.0, 6.0]])
    assert np.array_equal(MIN.scan(np.array([[3.0, 1.0, 2.0]]), axis=1), [[3.0, 1.0, 1.0]])
    assert np.array_equal(MAX.scan(np.array([[1.0, 3.0, 2.0]]), axis=1), [[1.0, 3.0, 3.0]])


@pytest.mark.parametrize("name,expected", [("add", ADD), ("min", MIN), ("max", MAX), ("or", OR), ("and", AND)])
def test_registry_lookup(name, expected):
    assert get_operator(name) is expected


def test_registry_unknown_raises():
    with pytest.raises(InvalidParameterError, match="unknown associative operator"):
        get_operator("xor")


def test_operator_is_hashable_and_frozen():
    with pytest.raises(AttributeError):
        ADD.name = "other"
    assert {ADD, MIN, ADD} == {ADD, MIN}
