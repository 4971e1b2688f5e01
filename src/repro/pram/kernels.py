"""NumPy kernels for the segmented scatter/scan primitives.

The inner loops behind :meth:`~repro.pram.machine.PramMachine
.scatter_min`, :meth:`~repro.pram.machine.PramMachine.scatter_add`,
:meth:`~repro.pram.machine.PramMachine.segmented_argmin` and the ragged
branch of :meth:`~repro.pram.machine.PramMachine.segmented_scan`. Inputs
arrive validated and canonical (the machine owns validation and ledger
charging): ``idx`` and ``indptr`` are 1-D ``intp`` arrays. Scatters
combine elements in flat array order (``ufunc.at``); the ragged scan
accumulates left-to-right within each segment.
"""

from __future__ import annotations

import numpy as np


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
    """Flat position of the *first* per-segment minimum (−1 if empty)."""
    n_seg = indptr.size - 1
    lens = np.diff(indptr)
    # Per-segment min, spread back over entries (identity-append
    # keeps empty segments well-defined, as in the backend kernel).
    gathered = np.append(values, np.inf)
    if values.size == 0:
        seg_min = np.full(n_seg, np.inf)
    else:
        seg_min = np.minimum.reduceat(gathered, indptr[:-1])
        seg_min[lens == 0] = np.inf
    hit = values == np.repeat(seg_min, lens)
    pos = np.where(hit, np.arange(values.size, dtype=float), np.inf)
    gathered_pos = np.append(pos, np.inf)
    if values.size == 0:
        first = np.full(n_seg, np.inf)
    else:
        first = np.minimum.reduceat(gathered_pos, indptr[:-1])
        first[lens == 0] = np.inf
    return np.where(np.isfinite(first), first, -1.0).astype(np.intp)


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
