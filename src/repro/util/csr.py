"""Shared CSR (compressed sparse row) structure helpers.

The sparse subsystem stores every ragged facility→client structure as
three flat arrays — ``indptr`` (segment boundaries), ``indices``
(column ids), ``data`` (values) — the layout the paper's Lemma 3.1
remark assumes for ``O(|E| log |V|)`` execution. These helpers are the
single place that layout is validated and transformed; both
:mod:`repro.metrics.sparse` and :mod:`repro.core.dominator_sparse`
route through them so a malformed structure fails loudly in one
vocabulary.

Everything here is ``O(nnz)`` (the transpose is a counting sort) and
never round-trips through a coordinate or LIL representation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError


def validate_csr(
    indptr,
    indices,
    n_cols: int,
    *,
    name: str = "csr",
    require_sorted: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a CSR index structure; return canonical intp arrays.

    Checks: ``indptr`` starts at 0, is non-decreasing, and ends at
    ``len(indices)``; every column index lies in ``[0, n_cols)``; no
    row contains a duplicate column. With ``require_sorted`` each row's
    column indices must additionally be strictly ascending (the
    canonical scipy layout).

    Rows that strictly ascend cannot hold a duplicate, so the
    ``O(nnz log nnz)`` duplicate sort runs only when some row does not
    (``O(nnz)`` for the canonical layout every generator builds).
    """
    indptr, indices = _checked_layout(indptr, indices, n_cols, name)
    if indices.size and not rows_strictly_ascending(indptr, indices):
        if require_sorted:
            raise InvalidInstanceError(
                f"{name}: row column indices must be strictly ascending"
            )
        # Duplicate check without assuming order: sort (row, col) pairs.
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        order = np.lexsort((indices, rows))
        r, c = rows[order], indices[order]
        if np.any((np.diff(r) == 0) & (np.diff(c) == 0)):
            raise InvalidInstanceError(f"{name}: duplicate column within a row")
    return indptr, indices


def _checked_layout(indptr, indices, n_cols: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Canonical intp arrays of a CSR layout whose ``indptr`` runs from
    0 to ``len(indices)`` without decreasing and whose column ids lie
    in ``[0, n_cols)`` — ``O(nnz)``."""
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    if indptr.ndim != 1 or indices.ndim != 1:
        raise InvalidInstanceError(f"{name}: indptr and indices must be 1-D")
    if indptr.size == 0 or indptr[0] != 0:
        raise InvalidInstanceError(f"{name}: indptr must start at 0")
    if np.any(np.diff(indptr) < 0):
        raise InvalidInstanceError(f"{name}: indptr must be non-decreasing")
    if indptr[-1] != indices.size:
        raise InvalidInstanceError(
            f"{name}: indptr[-1]={int(indptr[-1])} != len(indices)={indices.size}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
        raise InvalidInstanceError(
            f"{name}: column index out of range [0, {n_cols}): "
            f"[{int(indices.min())}, {int(indices.max())}]"
        )
    return indptr, indices


def rows_are_uniform(indptr: np.ndarray) -> tuple[bool, int]:
    """Whether every segment has the same length; returns ``(flag, k)``.

    Uniform structures admit a rectangular fast path (reshape to a
    dense ``(rows, k)`` matrix) that is bit-identical to the dense
    kernels — the parity backbone of the sparse algorithm suite.
    """
    lens = np.diff(indptr)
    if lens.size == 0:
        return True, 0
    k = int(lens[0])
    return bool(np.all(lens == k)), k


def rows_strictly_ascending(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every row's column indices strictly ascend — ``O(nnz)``."""
    if indices.size == 0:
        return True
    # A consecutive-pair decrease matters only within a row, i.e. when
    # the second entry of the pair does not start a new row.
    is_start = np.zeros(indices.size, dtype=bool)
    starts = indptr[:-1]
    is_start[starts[starts < indices.size]] = True
    return not np.any((np.diff(indices) <= 0) & ~is_start[1:])


def csr_transpose(
    indptr: np.ndarray, indices: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counting-sort transpose of a CSR index structure.

    Returns ``(t_indptr, t_indices, entry)`` describing the same edge
    set grouped by column: ``t_indices`` holds the *row* id of each
    edge, and ``entry`` the position of that edge in the original flat
    arrays (so any per-edge payload transposes by ``payload[entry]``).
    Within each column, edges appear in flat (row-major) order: the
    counting sort is stable. ``O(nnz + n_cols)``.
    """
    from scipy import sparse

    # The compiled walk below trusts its input; check the layout first.
    indptr, indices = _checked_layout(indptr, indices, n_cols, "csr_transpose")
    # scipy's compiled CSR -> CSC conversion is that counting sort: it
    # counts per column, then walks the rows in order appending each
    # entry to its column. Carrying the flat positions as the payload
    # yields ``entry``.
    csc = sparse.csr_matrix(
        (np.arange(indices.size, dtype=np.intp), indices, indptr),
        shape=(indptr.size - 1, int(n_cols)),
    ).tocsc()
    return (
        csc.indptr.astype(np.intp),
        csc.indices.astype(np.intp),
        csc.data.astype(np.intp, copy=False),
    )


def csr_drop_diagonal(A):
    """Remove diagonal entries from a square scipy CSR matrix, in CSR.

    The previous implementation round-tripped through LIL
    (``A.tolil(); setdiag; tolil().tocsr()``), an ``O(n · nnz)`` format
    conversion on large graphs. This keeps the cleanup in CSR: one
    boolean mask over the flat index arrays and a bincount rebuild of
    ``indptr`` — ``O(nnz)``.
    """
    from scipy import sparse

    A = A.tocsr()
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    keep = A.indices != rows
    if keep.all():
        return A
    new_counts = np.bincount(rows[keep], minlength=n)
    indptr = np.concatenate(([0], np.cumsum(new_counts)))
    return sparse.csr_matrix(
        (A.data[keep], A.indices[keep], indptr), shape=A.shape
    )
