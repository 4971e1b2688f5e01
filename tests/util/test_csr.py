"""Tests for the shared CSR structure helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.errors import InvalidInstanceError
from repro.util.csr import (
    csr_drop_diagonal,
    csr_transpose,
    rows_are_uniform,
    rows_strictly_ascending,
    validate_csr,
)
from tests.reference.primal_dual_levels import group_by_key


def _accepts_by_full_check(indptr, indices, n_cols, require_sorted):
    """The row checks as a full scan: the ascent test with
    ``require_sorted``, else the (row, col) sort for duplicates."""
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    if require_sorted:
        same_row = np.diff(rows) == 0
        return not np.any(same_row & (np.diff(indices) <= 0))
    order = np.lexsort((indices, rows))
    r, c = rows[order], indices[order]
    return not np.any((np.diff(r) == 0) & (np.diff(c) == 0))


def _transpose_by_argsort(indptr, indices, n_cols):
    """Transpose by a stable argsort on the column ids."""
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    counts = np.bincount(indices, minlength=n_cols)
    t_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    entry = np.argsort(indices, kind="stable").astype(np.intp)
    return t_indptr, rows[entry], entry


@st.composite
def row_structures(draw, dupes=st.booleans()):
    """CSR index structures with empty rows, unsorted rows, and (when
    ``dupes`` draws true) repeated columns within a row."""
    n_cols = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n_cols - 1), max_size=n_cols + 1, unique=not draw(dupes))
    rows = draw(st.lists(row, max_size=6))
    sort_rows = draw(st.booleans())
    if sort_rows:
        rows = [sorted(r) for r in rows]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.intp)
    indices = np.array([c for r in rows for c in r], dtype=np.intp)
    return indptr, indices, n_cols


class TestValidateCsr:
    def test_accepts_canonical_structure(self):
        indptr, indices = validate_csr([0, 2, 2, 3], [0, 3, 1], 4)
        assert indptr.dtype == np.intp and indices.dtype == np.intp

    def test_rejects_nonzero_start(self):
        with pytest.raises(InvalidInstanceError, match="start at 0"):
            validate_csr([1, 2], [0], 4)

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(InvalidInstanceError, match="non-decreasing"):
            validate_csr([0, 2, 1], [0, 1], 4)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInstanceError, match="len"):
            validate_csr([0, 3], [0, 1], 4)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(InvalidInstanceError, match="out of range"):
            validate_csr([0, 1], [4], 4)
        with pytest.raises(InvalidInstanceError, match="out of range"):
            validate_csr([0, 1], [-1], 4)

    def test_rejects_duplicate_column_in_row(self):
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            validate_csr([0, 2], [1, 1], 4)

    def test_duplicates_across_rows_are_fine(self):
        validate_csr([0, 1, 2], [1, 1], 4)

    def test_require_sorted(self):
        validate_csr([0, 2, 4], [0, 3, 1, 2], 4, require_sorted=True)
        with pytest.raises(InvalidInstanceError, match="ascending"):
            validate_csr([0, 2], [3, 0], 4, require_sorted=True)
        # Descent across a row boundary is fine.
        validate_csr([0, 1, 2], [3, 0], 4, require_sorted=True)
        # Duplicates are caught by strict ascent.
        with pytest.raises(InvalidInstanceError, match="ascending"):
            validate_csr([0, 2], [1, 1], 4, require_sorted=True)

    def test_empty_rows_and_empty_matrix(self):
        validate_csr([0, 0, 0], [], 4, require_sorted=True)
        validate_csr([0], [], 0)


@settings(max_examples=300, deadline=None)
@given(structure=row_structures(), require_sorted=st.booleans())
def test_validate_accepts_exactly_what_the_full_check_accepts(structure, require_sorted):
    """The ascent shortcut changes no accept/reject decision."""
    indptr, indices, n_cols = structure
    want = _accepts_by_full_check(indptr, indices, n_cols, require_sorted)
    try:
        validate_csr(indptr, indices, n_cols, require_sorted=require_sorted)
        got = True
    except InvalidInstanceError:
        got = False
    assert got == want
    assert rows_strictly_ascending(indptr, indices) == _accepts_by_full_check(
        indptr, indices, n_cols, True
    )


class TestRowsAreUniform:
    def test_uniform(self):
        flag, k = rows_are_uniform(np.array([0, 3, 6, 9]))
        assert flag and k == 3

    def test_ragged(self):
        flag, _ = rows_are_uniform(np.array([0, 3, 5, 9]))
        assert not flag

    def test_empty(self):
        flag, k = rows_are_uniform(np.array([0]))
        assert flag and k == 0


class TestCsrTranspose:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_transpose(self, seed):
        rng = np.random.default_rng(seed)
        A = sparse.random(13, 7, density=0.3, random_state=rng, format="csr")
        A.sort_indices()
        t_indptr, t_indices, entry = csr_transpose(A.indptr, A.indices, 7)
        T = A.T.tocsr()
        T.sort_indices()
        np.testing.assert_array_equal(t_indptr, T.indptr)
        np.testing.assert_array_equal(t_indices, T.indices)
        np.testing.assert_allclose(A.data[entry], T.data)

    def test_entry_round_trips_payload(self):
        indptr = np.array([0, 2, 3])
        indices = np.array([1, 2, 1])
        data = np.array([10.0, 20.0, 30.0])
        t_indptr, t_indices, entry = csr_transpose(indptr, indices, 3)
        # column 1 holds rows 0 and 1 in ascending row order
        np.testing.assert_array_equal(t_indptr, [0, 0, 2, 3])
        np.testing.assert_array_equal(t_indices, [0, 1, 0])
        np.testing.assert_allclose(data[entry], [10.0, 30.0, 20.0])


    @settings(max_examples=200, deadline=None)
    @given(structure=row_structures(dupes=st.just(False)), extra_cols=st.integers(0, 3))
    def test_byte_identical_to_argsort_transpose(self, structure, extra_cols):
        """Counting sort == stable argsort, arrays and dtypes, with
        empty rows, unsorted rows and empty columns."""
        indptr, indices, n_cols = structure
        got = csr_transpose(indptr, indices, n_cols + extra_cols)
        want = _transpose_by_argsort(indptr, indices, n_cols + extra_cols)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "indptr,indices", [([0, 1], [7]), ([0, 1], [-1]), ([0, 2, 1], [0, 1])]
    )
    def test_rejects_a_malformed_layout(self, indptr, indices):
        """The compiled walk must never see an index outside its arrays."""
        with pytest.raises(InvalidInstanceError):
            csr_transpose(np.array(indptr), np.array(indices), 3)

    def test_group_by_key_is_a_stable_sort(self):
        keys = np.array([2, 0, 2, 1, 0, 4])
        indptr, order = group_by_key(keys, 6)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(indptr, [0, 2, 3, 5, 5, 6, 6])


class TestCsrDropDiagonal:
    def test_removes_diagonal_only(self):
        A = sparse.csr_matrix(
            np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        )
        B = csr_drop_diagonal(A)
        assert sparse.isspmatrix_csr(B)
        expected = A.toarray().copy()
        np.fill_diagonal(expected, False)
        np.testing.assert_array_equal(B.toarray(), expected)

    def test_no_diagonal_is_identity(self):
        A = sparse.csr_matrix(np.array([[0, 1], [1, 0]], dtype=bool))
        B = csr_drop_diagonal(A)
        np.testing.assert_array_equal(B.toarray(), A.toarray())

    @pytest.mark.parametrize("seed", [3, 4])
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((20, 20)) < 0.2
        A = sparse.csr_matrix(dense)
        B = csr_drop_diagonal(A)
        expected = dense.copy()
        np.fill_diagonal(expected, False)
        np.testing.assert_array_equal(B.toarray() != 0, expected)
