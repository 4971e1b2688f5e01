"""Cross-backend kernel parity: every pool backend vs SerialBackend.

Property sweeps over mixed broadcast shapes, fused_axpy mask/clamp
combinations, and sub-grain inputs (the serial-fallback path). Exact
equality is asserted wherever the operation sequence is associativity-
safe (elementwise maps, row-chunked axis-1 reductions, scans, sorts,
integer counts); allclose only where the thread pool's partial
combining legitimately reassociates float addition (axis-0 / full
add-reductions). ProcessBackend has no kernels of its own — it runs the
serial ones in the calling process — so it must agree exactly
everywhere, those reductions included.

Pool backends are module-scoped so the whole sweep shares two worker
pools instead of spawning one per test.
"""

import numpy as np
import pytest

from repro.pram.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.pram.operators import ADD, AND, MAX, MIN, OR

SERIAL = SerialBackend()


@pytest.fixture(scope="module", params=["thread", "process"])
def pool(request):
    backend = ThreadBackend(3, grain=4) if request.param == "thread" else ProcessBackend(2)
    yield backend
    backend.close()


@pytest.fixture
def data(rng):
    return rng.random((43, 19))


# -- elementwise: mixed broadcast shapes --------------------------------------

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
    assert np.array_equal(
        pool.elementwise(fn, tuple(arrays)), SERIAL.elementwise(fn, tuple(arrays))
    )


def test_elementwise_closure_over_arrays(pool, rng):
    """Lambdas closing over local arrays run block by block unchanged."""
    bias = rng.random(19)
    fn = lambda m: m + bias  # noqa: E731
    a = rng.random((43, 19))
    assert np.array_equal(pool.elementwise(fn, (a,)), a + bias)


def test_elementwise_bool_output(pool, rng):
    a = rng.random((43, 19))
    fn = lambda m: m > 0.5  # noqa: E731
    got = pool.elementwise(fn, (a,))
    assert got.dtype == bool
    assert np.array_equal(got, a > 0.5)


def test_elementwise_ufunc(pool, data):
    assert np.array_equal(pool.elementwise(np.sqrt, (data,)), np.sqrt(data))


# -- reductions / scans over every operator -----------------------------------

@pytest.mark.parametrize("op", [ADD, MIN, MAX], ids=lambda o: o.name)
@pytest.mark.parametrize("axis", [0, 1, -1, None])
def test_reduce_parity(pool, data, op, axis):
    got = pool.reduce(op, data, axis)
    want = SERIAL.reduce(op, data, axis)
    if op is ADD and axis in (0, None) and isinstance(pool, ThreadBackend):
        assert np.allclose(got, want)  # partial combine may reassociate
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("op", [OR, AND], ids=lambda o: o.name)
@pytest.mark.parametrize("axis", [0, 1, None])
def test_reduce_bool_parity(pool, rng, op, axis):
    m = rng.random((43, 19)) < 0.3
    assert np.array_equal(pool.reduce(op, m, axis), SERIAL.reduce(op, m, axis))


@pytest.mark.parametrize("op", [ADD, MIN, MAX], ids=lambda o: o.name)
def test_scan_parity(pool, data, op):
    assert np.array_equal(pool.scan(op, data, 1), SERIAL.scan(op, data, 1))


def test_sort_argsort_parity(pool, rng):
    # Duplicate-heavy rows make argsort stability observable.
    a = rng.integers(0, 5, size=(61, 17)).astype(float)
    assert np.array_equal(pool.sort(a, 1), SERIAL.sort(a, 1))
    assert np.array_equal(pool.argsort(a, 1), SERIAL.argsort(a, 1))


def test_count_votes_parity(pool, rng):
    labels = rng.integers(0, 13, size=4097)
    assert np.array_equal(pool.count_votes(labels, 13), SERIAL.count_votes(labels, 13))


# -- fused_axpy: every clamp/mask/broadcast combination -----------------------

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
    got = pool.fused_axpy(-2.0, x, y, clamp_min=clamp, mask=mask, fill=-1.0)
    want = SERIAL.fused_axpy(-2.0, x, y, clamp_min=clamp, mask=mask, fill=-1.0)
    assert np.array_equal(got, want)


def test_fused_axpy_column_x_broadcast(pool, rng):
    x = rng.random((43, 1))
    y = rng.random((43, 19))
    got = pool.fused_axpy(3.0, x, y, clamp_min=1.0)
    assert np.array_equal(got, SERIAL.fused_axpy(3.0, x, y, clamp_min=1.0))


# -- sub-grain inputs: the serial-fallback path -------------------------------

@pytest.mark.parametrize(
    "shape", [(1, 5), (3, 2), (7,), (2, 1)], ids=lambda s: "x".join(map(str, s))
)
def test_sub_grain_inputs_fall_back_identically(pool, rng, shape):
    """Inputs below grain*workers (or with one row) must take the serial
    path and agree exactly on every kernel that accepts the shape."""
    a = rng.random(shape)
    fn = lambda v: v * 2 + 1  # noqa: E731
    assert np.array_equal(pool.elementwise(fn, (a,)), SERIAL.elementwise(fn, (a,)))
    assert np.array_equal(pool.reduce(ADD, a, None), SERIAL.reduce(ADD, a, None))
    if a.ndim == 2:
        assert np.array_equal(pool.sort(a, 1), SERIAL.sort(a, 1))
        assert np.array_equal(pool.scan(ADD, a, 1), SERIAL.scan(ADD, a, 1))


def test_empty_inputs(pool):
    empty = np.zeros((0, 4))
    assert pool.reduce(ADD, empty, None) == 0.0
    assert np.array_equal(pool.sort(empty, 1), empty)


# -- unsupported-axis fallbacks ----------------------------------------------

def test_3d_reduce_falls_back(pool, rng):
    a = rng.random((6, 7, 8))
    assert np.array_equal(pool.reduce(ADD, a, 2), SERIAL.reduce(ADD, a, 2))


def test_axis0_scan_falls_back(pool, data):
    assert np.array_equal(pool.scan(ADD, data, 0), SERIAL.scan(ADD, data, 0))
