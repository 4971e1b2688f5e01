"""Lemma 3.1 remark — sparse dominator sets in ``O(|E| log |V|)`` work.

The paper notes: *"For sparse matrices, which we do not use in this
paper, this can easily be improved to O(|E| log |V|) work."* This module
is that improvement, and the library's one MaxDom and one MaxUDom body:
the same in-place Luby select step as §3 (:mod:`repro.core.dominator`,
whose public names are these entries), but every neighborhood reduction
runs over a CSR adjacency in ``O(nnz)`` work instead of ``O(n²)``. A
dense boolean matrix is accepted and converted to CSR first.

The kernels are segmented reductions over the CSR row structure
(``reduceat`` over gathered segments) and scatters along the stored
edges, i.e., prefix-sum-style basic operations in the §2 sense —
charged as work ``|E|`` per pass.

**Two layers.** :func:`max_dominator_set_sparse`, the public entry,
validates its input (square, symmetric; stored zeros and the diagonal
dropped; rows sorted) and then runs :func:`_max_dominator_rounds`. That
internal body trusts its caller and re-checks nothing, so a caller
holding an already validated graph — the §6.1 k-center probes, which cut
each threshold graph from a validated instance — calls it directly.

**Frontier compaction.** The first round, with every node a candidate,
passes over the whole CSR structure without a gather. Every later round
touches only the candidate rows' segments (built once per round) and
the newly selected rows' segments: by symmetry, the one-hop relay of
the candidates' priorities is a scatter along the candidates' own
edges, and the nodes next to a selection are its rows' columns. Per-
round work is ``O(n + nnz(candidate rows))`` instead of ``O(nnz)``.
Seeded selections are identical to the dense-matrix bodies kept under
``tests/`` as the oracle, which run the same rounds on candidate strips
of the adjacency matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, InvalidParameterError
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.csr import csr_drop_diagonal, validate_csr
from repro.util.validation import check_max_rounds


def _as_csr(matrix, name: str) -> sparse.csr_matrix:
    """``matrix`` — scipy.sparse, or a 2-D array — as a boolean CSR
    matrix. Explicit stored zeros are not edges: a dense matrix reads
    them as False, so the structural kernels below must too."""
    if sparse.issparse(matrix):
        out = matrix.tocsr().astype(bool)
        out.eliminate_zeros()
        return out
    arr = np.asarray(matrix, dtype=bool)
    if arr.ndim != 2:
        raise InvalidParameterError(f"{name} must be 2-D, got shape {arr.shape}")
    return sparse.csr_matrix(arr)


def _to_csr(adjacency) -> sparse.csr_matrix:
    A = _as_csr(adjacency, "adjacency")
    if A.shape[0] != A.shape[1]:
        raise InvalidParameterError(f"adjacency must be square, got {A.shape}")
    if (A != A.T).nnz != 0:
        raise InvalidParameterError("adjacency must be symmetric (simple undirected graph)")
    # Diagonal cleanup stays in CSR (one O(nnz) mask) — the previous
    # LIL round-trip was an O(n·nnz) format conversion on large graphs.
    A = csr_drop_diagonal(A)
    A.sort_indices()
    validate_csr(A.indptr, A.indices, A.shape[1], name="adjacency", require_sorted=True)
    return A


def _segments(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray):
    """The CSR segments of ``rows``: their column ids concatenated, each
    segment's start in that concatenation, and its length — the
    frontier-rows gather, ``O(|rows| + nnz(rows))``."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    seg = np.cumsum(lens) - lens
    idx = np.arange(int(lens.sum())) + np.repeat(starts - seg, lens)
    return indices[idx], seg, lens


def _reduce_segments(ufunc, values, cols, seg, lens, fill):
    """``out[r]`` = the ``ufunc`` reduction of ``values[cols]`` over
    segment ``r``, and ``fill`` (the operator's identity) on an empty
    one: one gather and one ``reduceat``.

    The gather keeps one trailing ``fill`` slot so that ``reduceat`` can
    start a segment at ``len(cols)`` (an empty last segment); the slot
    only ever joins the last segment's reduction, where the identity
    changes nothing."""
    gathered = np.empty(cols.size + 1, dtype=values.dtype)
    np.take(values, cols, out=gathered[:-1], mode="clip")
    gathered[-1] = fill
    out = ufunc.reduceat(gathered, seg)
    out[lens == 0] = fill
    return out


def _max_dominator_rounds(
    machine: PramMachine, indptr: np.ndarray, indices: np.ndarray, limit: int
) -> np.ndarray:
    """The ``MaxDom`` rounds over a CSR adjacency the caller vouches for:
    square, symmetric, ``n ≥ 1`` rows. Nothing here re-checks that:
    :func:`max_dominator_set_sparse` validates its input first, and
    :mod:`repro.core.kcenter_sparse` hands over threshold graphs cut
    from an already validated instance.

    Stored diagonal entries change no selection: a self-loop relays a
    candidate's own priority, which its neighbours relay back anyway (an
    isolated candidate then meets its own priority and is still
    selected), and marks a selected node as hit, which leaves the
    candidates as they would be.

    A round touches only the candidate rows' segments, built once per
    round (while every node is a candidate they are the whole structure,
    used without a gather), and the selected rows' segments. Symmetry
    turns each one-hop relay into a pass over those segments: a node's
    minimum candidate-neighbour priority is a scatter-min of every
    candidate's priority onto its neighbours, and the nodes next to a
    selected one are the selected rows' columns.
    """
    n = indptr.size - 1
    all_lens = np.diff(indptr)
    candidate = np.ones(n, dtype=bool)
    selected = np.zeros(n, dtype=bool)
    for _ in range(limit):
        if not candidate.any():
            return selected
        machine.bump_round("maxdom")
        # Priorities are a permutation of 0..n-1, so n stands for "no
        # candidate" in every minimum below.
        pi = machine.random_priorities(n)
        cand = np.flatnonzero(candidate)
        if cand.size == n:
            cols, seg, lens = indices, indptr[:-1], all_lens
        else:
            cols, seg, lens = _segments(indptr, indices, cand)
        pi_c = pi[cand]
        # relay[j] = the smallest candidate priority at j or next to j
        # (a scatter-min of each candidate's priority onto its
        # neighbours); hop2[c] = the smallest relay next to candidate c.
        # Every neighbour relays, candidate or not: G² adjacency is
        # defined by the original graph (repro.core.dominator).
        relay = np.full(n, n)
        np.minimum.at(relay, cols, np.repeat(pi_c, lens))
        relay[cand] = np.minimum(relay[cand], pi_c)
        hop2_c = _reduce_segments(np.minimum, relay, cols, seg, lens, n)
        # A candidate is its closed two-hop neighbourhood's minimum
        # exactly when nothing below its priority reached it (an
        # isolated one sees n).
        sel_c = pi_c <= hop2_c
        sel_idx = cand[sel_c]
        selected[sel_idx] = True
        sel_cols = _segments(indptr, indices, sel_idx)[0]
        hop1_hit = np.zeros(n, dtype=bool)
        hop1_hit[sel_cols] = True
        hop2_hit_c = _reduce_segments(np.logical_or, hop1_hit, cols, seg, lens, False)
        candidate[cand] = ~(sel_c | hop1_hit[cand] | hop2_hit_c)
        machine.ledger.charge_basic("scatter_min", max(cols.size + n, 1))
        machine.ledger.charge_basic("sparse_segmented_min", max(cols.size, 1))
        machine.ledger.charge_basic("scatter", max(sel_cols.size + n, 1), depth=1)
        machine.ledger.charge_basic("sparse_neighbor_any", max(cols.size, 1))
        machine.ledger.charge_basic("map", n, depth=1)
    if candidate.any():
        raise ConvergenceError(f"sparse MaxDom exceeded {limit} rounds (n={n})")
    return selected


def max_dominator_set_sparse(
    adjacency,
    machine: PramMachine | None = None,
    *,
    max_rounds: int | None = None,
) -> np.ndarray:
    """``MaxDom`` of a simple graph (MIS of ``G²``, §3) in
    ``O(|E| log |V|)`` work; :func:`repro.core.dominator.max_dominator_set`
    is this entry. Rounds count under ``maxdom``.

    The input is validated (square, symmetric; stored zeros and the
    diagonal dropped, rows sorted) before the rounds run, so any
    scipy.sparse or dense boolean adjacency is accepted.

    Parameters
    ----------
    adjacency:
        scipy.sparse matrix or dense boolean array (symmetric).

    Returns
    -------
    numpy.ndarray
        Boolean selection mask: maximal, and independent in ``G²``.
    """
    cap = None if max_rounds is None else check_max_rounds(max_rounds)
    A = _to_csr(adjacency)
    n = A.shape[0]
    machine = ensure_machine(machine)
    if n == 0:
        return np.zeros(0, dtype=bool)
    limit = (n + 1) if cap is None else cap
    return _max_dominator_rounds(machine, A.indptr, A.indices, limit)


def max_u_dominator_set_sparse(
    biadjacency,
    machine: PramMachine | None = None,
    *,
    candidates: np.ndarray | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """``MaxUDom`` of a bipartite graph (MIS of ``H'``, §3) in ``O(nnz)``
    work per round; :func:`repro.core.dominator.max_u_dominator_set` is
    this entry. Rounds count under ``maxudom``.

    Every round touches only the candidate rows' CSR segments: the
    V-side priority minimum is a :meth:`~repro.pram.machine.PramMachine.scatter_min`
    over those edges, and the U-side conflict relays are segmented
    min/or reductions over the same segments. Non-candidate rows never
    contribute anything but the operator identity, so restricting to
    candidate segments changes no selection.

    Parameters
    ----------
    biadjacency:
        ``|U| × |V|`` scipy.sparse matrix or dense boolean array.
    candidates:
        Optional mask restricting which U-nodes may be selected (the
        §5 caller passes the tentatively open facilities).
    """
    cap = None if max_rounds is None else check_max_rounds(max_rounds)
    B = _as_csr(biadjacency, "biadjacency")
    nu, nv = B.shape
    machine = ensure_machine(machine)
    if nu == 0:
        return np.zeros(0, dtype=bool)
    candidate = (
        np.ones(nu, dtype=bool)
        if candidates is None
        else np.asarray(candidates, dtype=bool).copy()
    )
    if candidate.shape != (nu,):
        raise InvalidParameterError(
            f"candidates mask must have shape ({nu},), got {candidate.shape}"
        )
    limit = (nu + 1) if cap is None else cap
    indptr = np.asarray(B.indptr, dtype=np.intp)

    selected = np.zeros(nu, dtype=bool)
    for _ in range(limit):
        if not candidate.any():
            return selected
        machine.bump_round("maxudom")
        pi = machine.random_priorities(nu).astype(float)
        cand_idx = np.flatnonzero(candidate)
        pos, sub = machine.segment_positions(indptr, cand_idx)
        cols = machine.take_rows(np.asarray(B.indices, dtype=np.intp), pos)
        pim_c = machine.take_rows(pi, cand_idx)
        # down[v] = min priority among candidate U-neighbors of v;
        # up[u]   = min over v ∈ Γ(u) of down[v]  (covers u itself).
        down = machine.scatter_min(machine.segment_spread(pim_c, sub), cols, nv)
        up_c = machine.segmented_reduce(machine.take_rows(down, cols), sub, "min")
        sel_c = np.asarray(
            machine.map(lambda p, h: (p <= h) | ~np.isfinite(h), pim_c, up_c)
        )
        selected[cand_idx[sel_c]] = True
        # Conflict exclusion: candidates sharing a V-neighbor with a pick.
        sel_edge = machine.segment_spread(sel_c, sub)
        v_hit = machine.count_votes(cols, nv, mask=sel_edge) > 0
        u_conflict_c = np.asarray(
            machine.segmented_reduce(machine.take_rows(v_hit, cols), sub, "or")
        )
        candidate[cand_idx] = ~(sel_c | u_conflict_c)
        machine.ledger.charge_basic("scatter", max(cand_idx.size, 1), depth=1)
    if candidate.any():
        raise ConvergenceError(f"sparse MaxUDom exceeded {limit} rounds (|U|={nu})")
    return selected
