"""Machine primitives against NumPy references, on the pool backend.

Property sweeps over mixed broadcast shapes, masked_axpy mask/clamp
combinations, bool reductions, empty inputs, a 3-D reduce and an
axis-0 scan. Every primitive runs as plain NumPy in the calling
thread, whatever the machine's backend, so each case must equal its
NumPy reference exactly (``array_equal``, never ``allclose``). Each
case runs on a machine built on a process pool: a primitive that
reached the pool, or depended on it, would show here.

The pool is module-scoped so the whole sweep shares one worker pool
instead of spawning one per test.
"""

import numpy as np
import pytest

from repro.pram.backends import ProcessBackend
from repro.pram.machine import PramMachine


@pytest.fixture(scope="module", params=["process"])
def pool(request):
    with ProcessBackend(2) as backend:
        yield PramMachine(backend=backend, seed=0)


@pytest.fixture
def data(rng):
    return rng.random((43, 19))


# -- map: mixed broadcast shapes ------------------------------------------------

SCALE = 1.5  # a module-level global read inside the mapped lambda


@pytest.mark.parametrize(
    "shapes",
    [
        [(43, 19)],
        [(43, 19), (43, 1)],
        [(43, 19), (1, 19)],
        [(43, 1), (1, 19)],
        [(43, 19), (43, 1), (1, 19)],
        [(43, 19), ()],
        [(19,), (43, 19)],
    ],
    ids=lambda s: "x".join("v" + "_".join(map(str, sh)) for sh in s),
)
def test_elementwise_mixed_broadcast(pool, rng, shapes):
    arrays = [rng.random(sh) for sh in shapes]
    fn = lambda *vs: sum(vs) * SCALE  # noqa: E731
    assert np.array_equal(pool.map(fn, *arrays), fn(*arrays))


def test_elementwise_closure_over_arrays(pool, rng):
    bias = rng.random(19)
    fn = lambda m: m + bias  # noqa: E731
    a = rng.random((43, 19))
    assert np.array_equal(pool.map(fn, a), a + bias)


def test_elementwise_bool_output(pool, rng):
    a = rng.random((43, 19))
    got = pool.map(lambda m: m > 0.5, a)
    assert got.dtype == bool
    assert np.array_equal(got, a > 0.5)


def test_elementwise_ufunc(pool, data):
    assert np.array_equal(pool.map(np.sqrt, data), np.sqrt(data))


# -- reductions / scans over every operator -----------------------------------

REDUCE_REF = {"add": np.sum, "min": np.min, "max": np.max, "or": np.any, "and": np.all}
SCAN_REF = {"add": np.cumsum, "min": np.minimum.accumulate, "max": np.maximum.accumulate}


@pytest.mark.parametrize("op", ["add", "min", "max"])
@pytest.mark.parametrize("axis", [0, 1, -1, None])
def test_reduce_parity(pool, data, op, axis):
    assert np.array_equal(pool.reduce(data, op, axis=axis), REDUCE_REF[op](data, axis=axis))


@pytest.mark.parametrize("op", ["or", "and"])
@pytest.mark.parametrize("axis", [0, 1, None])
def test_reduce_bool_parity(pool, rng, op, axis):
    m = rng.random((43, 19)) < 0.3
    got = pool.reduce(m, op, axis=axis)
    assert got.dtype == bool
    assert np.array_equal(got, REDUCE_REF[op](m, axis=axis))


@pytest.mark.parametrize("op", ["add", "min", "max"])
def test_scan_parity(pool, data, op):
    assert np.array_equal(pool.scan(data, op, axis=1), SCAN_REF[op](data, axis=1))


def test_sort_argsort_parity(pool, rng):
    # Duplicate-heavy rows make argsort stability observable.
    a = rng.integers(0, 5, size=(61, 17)).astype(float)
    indptr = np.arange(0, a.size + 1, a.shape[1])
    assert np.array_equal(pool.sort(a.ravel()), np.sort(a.ravel(), kind="stable"))
    want = np.argsort(a, axis=1, kind="stable") + indptr[:-1, None]
    assert np.array_equal(pool.argsort_segments(a.ravel(), indptr), want.ravel())


def test_count_votes_parity(pool, rng):
    labels = rng.integers(0, 13, size=4097)
    assert np.array_equal(pool.count_votes(labels, 13), np.bincount(labels, minlength=13))


# -- masked_axpy: every clamp/mask/broadcast combination ----------------------

def _axpy_reference(a, x, y, clamp_min, mask, fill):
    out = a * x + y
    if clamp_min is not None:
        out = np.maximum(out, clamp_min)
    if mask is not None:
        out = np.where(mask, out, fill)
    return out


@pytest.mark.parametrize("clamp", [None, 0.25], ids=["noclamp", "clamp"])
@pytest.mark.parametrize("mask_kind", ["none", "full", "column"])
@pytest.mark.parametrize("y_kind", ["scalar", "full", "column"])
def test_fused_axpy_combinations(pool, rng, clamp, mask_kind, y_kind):
    x = rng.random((43, 19))
    y = {"scalar": 0.75, "full": rng.random((43, 19)), "column": rng.random((43, 1))}[y_kind]
    mask = {
        "none": None,
        "full": rng.random((43, 19)) < 0.5,
        "column": rng.random((43, 1)) < 0.5,
    }[mask_kind]
    got = pool.masked_axpy(-2.0, x, y, clamp_min=clamp, mask=mask, fill=-1.0)
    assert np.array_equal(got, _axpy_reference(-2.0, x, y, clamp, mask, -1.0))


def test_fused_axpy_column_x_broadcast(pool, rng):
    x = rng.random((43, 1))
    y = rng.random((43, 19))
    got = pool.masked_axpy(3.0, x, y, clamp_min=1.0)
    assert got.shape == (43, 19)
    assert np.array_equal(got, np.maximum(3.0 * x + y, 1.0))


# -- empty, 3-D and axis-0 inputs ------------------------------------------------

def test_empty_inputs(pool):
    empty = np.zeros((0, 4))
    assert pool.reduce(empty, "add") == 0.0
    assert pool.sort(empty.ravel()).size == 0
    assert pool.argsort_segments(empty.ravel(), np.zeros(1, dtype=np.intp)).size == 0


def test_3d_reduce_falls_back(pool, rng):
    a = rng.random((6, 7, 8))
    assert np.array_equal(pool.reduce(a, "add", axis=2), a.sum(axis=2))


def test_axis0_scan_falls_back(pool, data):
    assert np.array_equal(pool.scan(data, "add", axis=0), np.cumsum(data, axis=0))
