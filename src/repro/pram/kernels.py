"""NumPy kernels for the fused and segmented primitives.

The inner loops behind :meth:`~repro.pram.machine.PramMachine
.masked_axpy`, the ragged branch of
:meth:`~repro.pram.machine.PramMachine.segmented_reduce`,
:meth:`~repro.pram.machine.PramMachine.scatter_min`,
:meth:`~repro.pram.machine.PramMachine.scatter_add`,
:meth:`~repro.pram.machine.PramMachine.segmented_argmin` and the ragged
branch of :meth:`~repro.pram.machine.PramMachine.segmented_scan`. Inputs
arrive validated and canonical (the machine owns validation and ledger
charging): ``idx`` and ``indptr`` are 1-D ``intp`` arrays. Segmented
reductions combine each segment left-to-right (``ufunc.reduceat``);
scatters combine elements in flat array order (``ufunc.at``); the
ragged scan accumulates left-to-right within each segment.
"""

from __future__ import annotations

import numpy as np


def fused_axpy(a, x, y, clamp_min, mask, fill):
    """``a*x + y`` with optional lower clamp and mask-select, minimizing
    temporaries."""
    x = np.asarray(x)
    operands = [x] + [np.asarray(v) for v in (y, mask) if isinstance(v, np.ndarray)]
    shape = np.broadcast_shapes(*(v.shape for v in operands))
    out = np.multiply(np.broadcast_to(x, shape), a)
    out += y
    if clamp_min is not None:
        np.maximum(out, clamp_min, out=out)
    if mask is not None:
        out = np.where(mask, out, fill)
    return out


def segmented_reduce(op, values, indptr):
    """Per-segment reduction over a flat CSR-style array.

    ``out[s] = op.reduce(values[indptr[s]:indptr[s+1]])``, with the
    operator identity for empty segments. One ``reduceat`` pass —
    ``O(nnz + n_segments)`` work. ``reduceat`` combines each segment
    left-to-right, so results are deterministic.
    """
    n = indptr.size - 1
    lens = np.diff(indptr)
    # Appending the identity keeps the trailing segment well-defined and
    # gives empty segments at position nnz a valid index to read; it
    # also fixes the output dtype by the same promotion rule whether or
    # not any segment is empty.
    gathered = np.append(values, np.asarray(op.identity))
    if values.size == 0:
        return np.full(n, op.identity, dtype=gathered.dtype)
    out = op.ufunc.reduceat(gathered, indptr[:-1])
    if np.any(lens == 0):
        out[lens == 0] = op.identity
    return out


def scatter_min(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """``out[i] = min{values[j] : idx[j] == i}`` (``+inf`` if none)."""
    out = np.full(int(size), np.inf)
    np.minimum.at(out, idx, values)
    return out


def scatter_add(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """``out[i] = Σ{values[j] : idx[j] == i}``, accumulated in flat order."""
    out = np.zeros(int(size))
    np.add.at(out, idx, values)
    return out


def segmented_argmin(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Flat position of the *first* per-segment minimum (−1 if empty).

    Minima of the non-empty segments (``reduceat`` needs their starts,
    which strictly increase), the positions equal to their segment's
    minimum, and per segment the first such position at or after its
    start — ``−1`` when it lies past the segment's end (an empty
    segment, or a NaN minimum, which equals nothing).
    """
    lens = np.diff(indptr)
    full = lens > 0
    starts = indptr[:-1][full]
    out = np.full(lens.size, -1, dtype=np.intp)
    if starts.size:
        seg_min = np.minimum.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(seg_min, lens[full]))
        first = np.append(hits, values.size)[np.searchsorted(hits, starts)]
        out[full] = np.where(first < indptr[1:][full], first, -1)
    return out


def segmented_scan_add(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Ragged within-segment inclusive ``+``-scan, left-to-right.

    ``values`` arrives with its output dtype already fixed by the
    machine (bools promoted to int).
    """
    out = values.copy()
    if out.size == 0:
        return out
    lens = np.diff(indptr)
    # Longest-first segment order makes "segments still live at
    # position k" a shrinking prefix, so each position advances with
    # one gather-add over exactly those segments: Σ_k |live_k| = nnz.
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    sorted_starts = indptr[:-1][order]
    neg_lens = -sorted_lens
    for pos in range(1, int(sorted_lens[0]) if sorted_lens.size else 0):
        live = int(np.searchsorted(neg_lens, -pos, side="left"))  # len > pos
        idx = sorted_starts[:live] + pos
        out[idx] += out[idx - 1]
    return out
