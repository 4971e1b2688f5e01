"""Segmented (CSR) PRAM primitives: correctness, parity, charges.

The segmented kernels are the sparse subsystem's counterpart of the
dense row reductions: per-segment min/sum/or over a flat CSR layout,
frontier-restricted segment gathers, and scatter combines for the
column axis. The primitives run as plain NumPy in the calling thread,
so they must be byte-identical on machines built on every backend, and
the uniform-segment fast path must match the dense 2-D reduction
bit-for-bit.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.pram.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.pram.kernels import segmented_reduce
from repro.pram.machine import PramMachine
from repro.pram.operators import get_operator


def ragged_case(seed=0, n_seg=23, max_len=9):
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, max_len, size=n_seg)
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
    values = rng.random(int(indptr[-1]))
    return values, indptr


def reference_reduce(values, indptr, op):
    oper = get_operator(op)
    return np.array(
        [
            oper.reduce(values[indptr[i] : indptr[i + 1]])
            for i in range(indptr.size - 1)
        ]
    )


class TestSegmentedReduceKernel:
    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_matches_reference(self, op):
        values, indptr = ragged_case(1)
        out = segmented_reduce(get_operator(op), values, indptr)
        np.testing.assert_allclose(out, reference_reduce(values, indptr, op))

    def test_empty_segments_get_identity(self):
        values = np.array([2.0, 5.0])
        indptr = np.array([0, 0, 1, 1, 2, 2])
        out = segmented_reduce(get_operator("min"), values, indptr)
        np.testing.assert_array_equal(out, [np.inf, 2.0, np.inf, 5.0, np.inf])

    def test_all_empty(self):
        out = segmented_reduce(
            get_operator("add"), np.array([]), np.array([0, 0, 0])
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_bool_or(self):
        values = np.array([False, True, False, False])
        indptr = np.array([0, 2, 2, 4])
        out = segmented_reduce(get_operator("or"), values, indptr)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, [True, False, False])


class TestBackendParity:
    @pytest.fixture(scope="class")
    def backends(self):
        pool = {
            "serial": SerialBackend(),
            "thread": ThreadBackend(2),
            "process": ProcessBackend(2),
        }
        yield pool
        for b in pool.values():
            b.close()

    @pytest.mark.parametrize("op", ["add", "min", "or"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_segmented_reduce_byte_identical(self, backends, op, seed):
        values, indptr = ragged_case(seed, n_seg=40, max_len=12)
        if op == "or":
            values = values < 0.3
        ref = PramMachine(backend=backends["serial"]).segmented_reduce(values, indptr, op)
        for name in ("thread", "process"):
            out = PramMachine(backend=backends[name]).segmented_reduce(values, indptr, op)
            assert out.dtype == ref.dtype, name
            np.testing.assert_array_equal(out, ref, err_msg=name)

    def test_closed_backend_still_reduces(self):
        b = ThreadBackend(2)
        m = PramMachine(backend=b)
        values, indptr = ragged_case(3)
        ref = m.segmented_reduce(values, indptr, "add")
        b.close()
        np.testing.assert_array_equal(m.segmented_reduce(values, indptr, "add"), ref)


class TestMachineSegmented:
    @pytest.fixture
    def machine(self):
        return PramMachine(seed=0)

    def test_segmented_reduce_uniform_matches_dense(self, machine):
        rng = np.random.default_rng(5)
        M = rng.random((6, 4))
        out = machine.segmented_reduce(M.ravel(), np.arange(0, 25, 4), "add")
        # The uniform fast path must be bit-identical to the dense row
        # reduction (same backend kernel).
        np.testing.assert_array_equal(out, np.add.reduce(M, axis=1))

    def test_segmented_reduce_charges_nnz(self, machine):
        values, indptr = ragged_case(2)
        before = machine.ledger.work
        machine.segmented_reduce(values, indptr, "min")
        assert machine.ledger.work - before == values.size + indptr.size - 1

    def test_segmented_scan_uniform_matches_dense(self, machine):
        rng = np.random.default_rng(6)
        M = rng.random((5, 3))
        out = machine.segmented_scan(M.ravel(), np.arange(0, 16, 3), "add")
        np.testing.assert_array_equal(out, np.add.accumulate(M, axis=1).ravel())

    def test_segmented_scan_ragged_bit_exact(self, machine):
        """Ragged scans accumulate left-to-right per segment — results
        are bit-identical to a sequential per-segment cumsum (no
        global-cumsum cancellation)."""
        values, indptr = ragged_case(4)
        out = machine.segmented_scan(values, indptr, "add")
        ref = np.concatenate(
            [
                np.cumsum(values[indptr[i] : indptr[i + 1]])
                for i in range(indptr.size - 1)
            ]
        )
        np.testing.assert_array_equal(out, ref)

    def test_segmented_scan_ragged_no_cancellation_at_scale(self, machine):
        """Large upstream segments must not bleed rounding error into
        later segments (the global-cumsum-minus-offset failure mode)."""
        rng = np.random.default_rng(12)
        lens = rng.integers(0, 30, size=2000)
        indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
        values = rng.random(int(indptr[-1])) * (
            10.0 ** rng.integers(0, 6, size=int(indptr[-1]))
        )
        out = machine.segmented_scan(values, indptr, "add")
        ref = np.concatenate(
            [
                np.cumsum(values[indptr[i] : indptr[i + 1]])
                for i in range(indptr.size - 1)
            ]
        )
        np.testing.assert_array_equal(out, ref)

    def test_segmented_scan_dtype_consistent_across_paths(self, machine):
        """Uniform and ragged structures must give the same dtype for
        the same values (int stays int, bool accumulates through int)."""
        vals = np.array([1, 2, 3, 4, 5, 6])
        uniform = machine.segmented_scan(vals, np.array([0, 3, 6]), "add")
        ragged = machine.segmented_scan(vals, np.array([0, 2, 6]), "add")
        assert uniform.dtype == ragged.dtype
        np.testing.assert_array_equal(ragged, [1, 3, 3, 7, 12, 18])
        b = np.array([True, False, True, True])
        out = machine.segmented_scan(b, np.array([0, 1, 4]), "add")
        assert out.dtype.kind == "i"  # matches np.add.accumulate on bool
        np.testing.assert_array_equal(out, [1, 0, 1, 2])

    def test_segmented_scan_ragged_rejects_min(self, machine):
        values, indptr = ragged_case(4)
        with pytest.raises(InvalidParameterError, match="add"):
            machine.segmented_scan(values, indptr, "min")

    def test_segmented_argmin(self, machine):
        values = np.array([3.0, 1.0, 1.0, 9.0, 2.0])
        indptr = np.array([0, 3, 3, 5])
        out = machine.segmented_argmin(values, indptr)
        # first minimum wins within a segment; empty segment -> -1
        np.testing.assert_array_equal(out, [1, -1, 4])

    def test_segment_positions(self, machine):
        values, indptr = ragged_case(8)
        rows = np.array([4, 0, 7])
        pos, sub = machine.segment_positions(indptr, rows)
        expected = np.concatenate(
            [np.arange(indptr[r], indptr[r + 1]) for r in rows]
        )
        np.testing.assert_array_equal(pos, expected)
        np.testing.assert_array_equal(np.diff(sub), np.diff(indptr)[rows])

    def test_segment_positions_validates(self, machine):
        with pytest.raises(InvalidParameterError, match="out of range"):
            machine.segment_positions(np.array([0, 2, 4]), np.array([2]))

    def test_segment_spread(self, machine):
        out = machine.segment_spread(np.array([5.0, 7.0]), np.array([0, 2, 3]))
        np.testing.assert_array_equal(out, [5.0, 5.0, 7.0])
        with pytest.raises(InvalidParameterError, match="one value per segment"):
            machine.segment_spread(np.array([1.0]), np.array([0, 1, 2]))

    def test_scatter_min(self, machine):
        out = machine.scatter_min(
            np.array([4.0, 2.0, 9.0, 1.0]), np.array([1, 1, 0, 3]), 5
        )
        np.testing.assert_array_equal(out, [9.0, 2.0, np.inf, 1.0, np.inf])

    def test_scatter_add(self, machine):
        out = machine.scatter_add(
            np.array([1.0, 2.0, 4.0]), np.array([2, 0, 2]), 3
        )
        np.testing.assert_array_equal(out, [2.0, 0.0, 5.0])

    def test_scatter_validates(self, machine):
        with pytest.raises(InvalidParameterError, match="out of range"):
            machine.scatter_min(np.array([1.0]), np.array([4]), 3)
        with pytest.raises(InvalidParameterError, match="shape"):
            machine.scatter_add(np.array([1.0, 2.0]), np.array([0]), 3)

    def test_argsort_segments_uniform_matches_rows(self, machine):
        rng = np.random.default_rng(9)
        M = rng.random((7, 5))
        indptr = np.arange(0, 36, 5)
        pos = machine.argsort_segments(M.ravel(), indptr)
        expected = np.argsort(M, axis=1, kind="stable") + indptr[:-1][:, None]
        np.testing.assert_array_equal(pos, expected.ravel())

    def test_argsort_segments_ragged_stable(self, machine):
        values = np.array([2.0, 2.0, 1.0, 5.0, 0.0])
        indptr = np.array([0, 3, 3, 5])
        pos = machine.argsort_segments(values, indptr)
        np.testing.assert_array_equal(pos, [2, 0, 1, 4, 3])

    def test_machine_segmented_parity_across_backends(self):
        values, indptr = ragged_case(11, n_seg=30, max_len=10)
        outs = {}
        for name, backend in (
            ("serial", SerialBackend()),
            ("thread", ThreadBackend(2)),
        ):
            with backend:
                m = PramMachine(backend=backend, seed=1)
                outs[name] = (
                    m.segmented_reduce(values, indptr, "min"),
                    m.segmented_scan(values, indptr, "add"),
                    m.ledger.work,
                )
        np.testing.assert_array_equal(outs["serial"][0], outs["thread"][0])
        np.testing.assert_array_equal(outs["serial"][1], outs["thread"][1])
        assert outs["serial"][2] == outs["thread"][2]


# --------------------------------------------------------------------------
# argsort_segments: the default sort on uniform rows, with a stable sort's
# bytes. Rows that tie (equal values, ±0.0, NaNs, repeated infinities) are
# the ones a non-stable sort may permute.
# --------------------------------------------------------------------------

_nan, _inf = np.nan, np.inf
UNIFORM_ROWS = [
    ("ties", np.random.default_rng(4).integers(0, 3, size=(6, 9)).astype(float)),
    ("signed-zeros", np.array([[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, 0.0, -1.0]])),
    ("nans", np.array([[_nan, 1.0, _nan, 0.5], [2.0, _nan, 1.0, 1.0]])),
    ("infs", np.array([[_inf, 1.0, -_inf, _inf], [-_inf, -_inf, 0.0, _inf]])),
    ("mixed", np.array([[_nan, -0.0, _inf, 0.0, 2.0, _nan, -_inf, 2.0, 0.0, _inf]])),
    ("distinct", np.random.default_rng(5).random((8, 11))),
    ("one-column", np.array([[3.0], [_nan], [-0.0], [1.0]])),
    ("single-row", np.array([[2.0, 1.0, 2.0, 0.0, 1.0, 2.0, -0.0]])),
    ("int-ties", np.random.default_rng(6).integers(0, 4, size=(5, 12))),
]


@pytest.mark.parametrize("name,rows", UNIFORM_ROWS, ids=[c[0] for c in UNIFORM_ROWS])
def test_argsort_segments_uniform_is_the_stable_sort(name, rows):
    n_seg, k = rows.shape
    indptr = np.arange(0, rows.size + 1, k, dtype=np.intp)
    got = PramMachine(seed=0).argsort_segments(rows.ravel(), indptr)
    want = (np.argsort(rows, axis=1, kind="stable") + indptr[:-1, None]).ravel()
    assert got.dtype == np.intp
    assert got.tobytes() == want.astype(np.intp).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_argsort_segments_ragged_is_the_stable_sort(seed):
    """Ragged rows, empty ones included, with ties, ±0.0, NaN and inf."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(0, 7, size=12)
    indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
    values = rng.choice(np.array([0.0, -0.0, 1.0, 2.0, _nan, _inf, -_inf]), size=indptr[-1])
    got = PramMachine(seed=0).argsort_segments(values, indptr)
    want = np.lexsort((values, np.repeat(np.arange(lens.size), lens)))
    per_row = np.concatenate(
        [np.argsort(values[a:b], kind="stable") + a for a, b in zip(indptr[:-1], indptr[1:])]
    )
    assert got.tobytes() == want.astype(np.intp).tobytes()
    assert got.tobytes() == per_row.astype(np.intp).tobytes()


@pytest.mark.parametrize(
    "indptr", [np.zeros(1, dtype=np.intp), np.zeros(4, dtype=np.intp)], ids=["no-rows", "empty-rows"]
)
def test_argsort_segments_empty_input(indptr):
    got = PramMachine(seed=0).argsort_segments(np.zeros(0), indptr)
    assert got.size == 0 and got.dtype == np.intp
