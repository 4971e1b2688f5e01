"""Lemma 3.1 remark — sparse dominator sets in ``O(|E| log |V|)`` work.

The paper notes: *"For sparse matrices, which we do not use in this
paper, this can easily be improved to O(|E| log |V|) work."* This module
is that improvement: the same in-place Luby select step, but every
neighborhood reduction runs over a CSR adjacency in ``O(nnz)`` work
instead of ``O(n²)``.

The kernel is segmented minimum over the CSR row structure
(``np.minimum.reduceat``), i.e., a prefix-sum-style basic operation in
the §2 sense — charged as work ``|E|``, depth ``log n``.

**Frontier compaction.** The first round, with every node a
candidate, is one plain pass over the whole CSR structure. Every later
round only touches the candidate rows and their one-hop halo (the relay
nodes): the segmented reductions run over those rows' CSR segments, so
per-round work is ``O(n + nnz(frontier rows))`` instead of
``O(nnz)`` — the sparse counterpart of the candidate-strip rounds in
:mod:`repro.core.dominator`, with identical selections.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, InvalidParameterError
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.csr import csr_drop_diagonal, validate_csr


def _to_csr(adjacency) -> sparse.csr_matrix:
    if sparse.issparse(adjacency):
        A = adjacency.tocsr().astype(bool)
        # Explicit stored zeros are not edges: the dense variant sees
        # them as False, so the structural kernels below must too.
        A.eliminate_zeros()
    else:
        A = sparse.csr_matrix(np.asarray(adjacency, dtype=bool))
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


def _segmented_min(machine: PramMachine, A: sparse.csr_matrix, values: np.ndarray) -> np.ndarray:
    """``out[i] = min_{j ∈ Γ(i)} values[j]`` in O(nnz) work (+inf on
    isolated rows)."""
    n = A.shape[0]
    nnz = A.indptr[-1]
    if nnz == 0:
        return np.full(n, np.inf)
    gathered = np.append(values[A.indices], np.inf)
    starts = np.minimum(A.indptr[:-1], nnz)
    out = np.minimum.reduceat(gathered, starts)
    out[np.diff(A.indptr) == 0] = np.inf
    machine.ledger.charge_basic("sparse_segmented_min", int(nnz))
    return out


def _neighbor_any(machine: PramMachine, A: sparse.csr_matrix, mask: np.ndarray) -> np.ndarray:
    """``out[i] = any(mask[Γ(i)])`` via a sparse matvec, O(nnz) work.

    scipy accumulates a bool-CSR product in the vector's dtype, so the
    count must be ``intp``: an ``int8`` sum wraps at 128 hits and would
    read a node with 128–255 (mod 256) masked neighbours as "not hit".
    """
    out = (A @ mask.astype(np.intp)) > 0
    machine.ledger.charge_basic("sparse_neighbor_any", max(int(A.indptr[-1]), 1))
    return out


def _row_segments(A: sparse.csr_matrix, rows: np.ndarray):
    """CSR column indices of the given ``rows``, concatenated, plus the
    per-row lengths and segment starts (the frontier-rows gather)."""
    starts = A.indptr[rows]
    lens = A.indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return None, lens, None
    seg = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.arange(total) + np.repeat(starts - seg, lens)
    return A.indices[idx], lens, seg


def _segmented_min_rows(
    machine: PramMachine, A: sparse.csr_matrix, values: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``out[r] = min_{j ∈ Γ(rows[r])} values[j]`` touching only the
    frontier rows' segments — ``O(nnz(rows))`` work."""
    cols, lens, seg = _row_segments(A, rows)
    if cols is None:
        machine.ledger.charge_basic("sparse_segmented_min", max(rows.size, 1))
        return np.full(rows.size, np.inf)
    gathered = np.append(values[cols], np.inf)
    out = np.minimum.reduceat(gathered, seg)
    out[lens == 0] = np.inf
    machine.ledger.charge_basic("sparse_segmented_min", int(cols.size))
    return out


def _neighbor_any_rows(
    machine: PramMachine, A: sparse.csr_matrix, mask: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``out[r] = any(mask[Γ(rows[r])])`` over the frontier rows only."""
    cols, lens, seg = _row_segments(A, rows)
    if cols is None:
        machine.ledger.charge_basic("sparse_neighbor_any", max(rows.size, 1))
        return np.zeros(rows.size, dtype=bool)
    gathered = np.append(mask[cols], False)
    out = np.logical_or.reduceat(gathered, seg)
    out[lens == 0] = False
    machine.ledger.charge_basic("sparse_neighbor_any", int(cols.size))
    return out


def max_dominator_set_sparse(
    adjacency,
    machine: PramMachine | None = None,
    *,
    backend=None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sparse ``MaxDom`` — identical semantics to
    :func:`repro.core.dominator.max_dominator_set`, ``O(|E| log |V|)``
    work.

    Parameters
    ----------
    adjacency:
        scipy.sparse matrix or dense boolean array (symmetric).
    backend:
        Execution backend name or instance for a freshly constructed
        machine; mutually exclusive with ``machine``. Selections are
        backend-invariant.

    Returns
    -------
    numpy.ndarray
        Boolean selection mask: maximal, and independent in ``G²``.
    """
    A = _to_csr(adjacency)
    n = A.shape[0]
    machine = ensure_machine(machine, backend=backend)
    if n == 0:
        return np.zeros(0, dtype=bool)
    limit = (n + 1) if max_rounds is None else int(max_rounds)

    candidate = np.ones(n, dtype=bool)
    selected = np.zeros(n, dtype=bool)
    for _ in range(limit):
        if not candidate.any():
            return selected
        machine.bump_round("maxdom_sparse")
        pi = machine.random_priorities(n).astype(float)
        if not candidate.all():
            # Frontier round: candidate rows + their one-hop halo. The
            # halo relays priorities/hits exactly like the full pass —
            # any row outside it can neither select nor affect a
            # candidate this round.
            cand_idx = np.flatnonzero(candidate)
            pim = np.where(candidate, pi, np.inf)
            pim_c = pim[cand_idx]
            cols_c, _, _ = _row_segments(A, cand_idx)
            nbr_mask = np.zeros(n, dtype=bool)
            if cols_c is not None:
                nbr_mask[cols_c] = True
            nbr_idx = np.flatnonzero(nbr_mask)
            machine.ledger.charge_basic("map", n, depth=1)
            hop1 = np.full(n, np.inf)
            hop1[nbr_idx] = _segmented_min_rows(machine, A, pim, nbr_idx)
            hop2_c = _segmented_min_rows(machine, A, np.minimum(pim, hop1), cand_idx)
            sel_c = np.isfinite(pim_c) & (pim_c <= hop2_c)
            sel_idx = cand_idx[sel_c]
            selected[sel_idx] = True
            sel_mask = np.zeros(n, dtype=bool)
            sel_mask[sel_idx] = True
            hit_idx = np.flatnonzero(nbr_mask | candidate)
            hop1_hit = np.zeros(n, dtype=bool)
            hop1_hit[hit_idx] = _neighbor_any_rows(machine, A, sel_mask, hit_idx)
            hop2_hit_c = _neighbor_any_rows(machine, A, hop1_hit, cand_idx)
            candidate[cand_idx] = ~(sel_c | hop1_hit[cand_idx] | hop2_hit_c)
            machine.ledger.charge_basic("map", n, depth=1)
            continue
        pim = np.where(candidate, pi, np.inf)
        machine.ledger.charge_basic("map", n, depth=1)
        hop1 = _segmented_min(machine, A, pim)
        hop2 = _segmented_min(machine, A, np.minimum(pim, hop1))
        sel = candidate & np.isfinite(pim) & (pim <= hop2)
        machine.ledger.charge_basic("map", n, depth=1)
        selected |= sel
        hop1_hit = _neighbor_any(machine, A, sel)
        hop2_hit = _neighbor_any(machine, A, hop1_hit)
        candidate &= ~(sel | hop1_hit | hop2_hit)
        machine.ledger.charge_basic("map", n, depth=1)
    if candidate.any():
        raise ConvergenceError(f"sparse MaxDom exceeded {limit} rounds (n={n})")
    return selected


def max_u_dominator_set_sparse(
    biadjacency,
    machine: PramMachine | None = None,
    *,
    backend=None,
    candidates: np.ndarray | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Sparse ``MaxUDom`` — identical semantics (and, on identically
    seeded machines, byte-identical selections) to
    :func:`repro.core.dominator.max_u_dominator_set`, in ``O(nnz)``
    work per round.

    Every round touches only the candidate rows' CSR segments: the
    V-side priority minimum is a :meth:`~repro.pram.machine.PramMachine.scatter_min`
    over those edges, and the U-side conflict relays are segmented
    min/or reductions over the same segments. Non-candidate rows never
    contribute anything but the operator identity, so restricting to
    candidate segments reproduces the dense selections exactly.

    Parameters
    ----------
    biadjacency:
        ``|U| × |V|`` scipy.sparse matrix or dense boolean array.
    candidates:
        Optional mask restricting which U-nodes may be selected (the
        §5 caller passes the tentatively open facilities).
    """
    if sparse.issparse(biadjacency):
        B = biadjacency.tocsr().astype(bool)
        # Explicit stored zeros are not edges (dense parity: a False
        # entry never relays a priority or a conflict).
        B.eliminate_zeros()
    else:
        B = sparse.csr_matrix(np.asarray(biadjacency, dtype=bool))
    nu, nv = B.shape
    machine = ensure_machine(machine, backend=backend)
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
    limit = (nu + 1) if max_rounds is None else int(max_rounds)
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
