"""Objectives recomputed from a returned solution, independently of the program.

Every function takes the raw data (a distance matrix, CSR arrays, or
coordinates) and a facility/centre index set, and evaluates the paper's
objective with plain numpy: Eq. (1) for facility location, the sum of
service distances for k-median, the largest service distance for
k-center. Sparse (kNN) instances cap each service distance at the
client's fallback cost, as the sparse model defines it.
"""

from __future__ import annotations

import numpy as np


def _index_set(ids, n: int) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size == 0 or ids.min() < 0 or ids.max() >= n:
        raise ValueError(f"solution indices must be non-empty and within [0, {n})")
    return ids


def fl_dense(D, f, opened) -> float:
    """``Σ_{i∈S} f_i + Σ_j min_{i∈S} D[i, j]`` for a facilities × clients matrix."""
    D = np.asarray(D)
    idx = _index_set(opened, D.shape[0])
    return float(np.sum(np.asarray(f)[idx]) + np.sum(D[idx].min(axis=0)))


def _csr_service(indptr, indices, data, fallback, is_open, n_rows, by_column):
    """Per-client service cost in a CSR candidate structure.

    ``by_column`` says which CSR axis holds the clients: facility-major
    facility-location instances list clients as columns; node-major
    clustering instances list them as rows.
    """
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    if by_column:
        clients, candidates = indices, rows
    else:
        clients, candidates = rows, indices
    best = np.array(fallback, dtype=float, copy=True)
    keep = is_open[candidates]
    np.minimum.at(best, clients[keep], np.asarray(data)[keep])
    return best


def fl_csr(indptr, indices, data, f, fallback, opened) -> float:
    """Eq. (1) on a facility-major CSR instance with per-client fallbacks."""
    f = np.asarray(f)
    idx = _index_set(opened, f.size)
    is_open = np.zeros(f.size, dtype=bool)
    is_open[idx] = True
    service = _csr_service(indptr, indices, data, fallback, is_open, f.size, True)
    return float(np.sum(f[idx]) + np.sum(service))


def clustering_dense(D, centers, objective: str) -> float:
    """k-median (sum) or k-center (max) service cost on an ``n × n`` matrix."""
    D = np.asarray(D)
    idx = _index_set(centers, D.shape[0])
    service = D[:, idx].min(axis=1)
    return float(np.max(service) if objective == "kcenter" else np.sum(service))


def clustering_csr(indptr, indices, data, fallback, centers, objective: str) -> float:
    """k-median or k-center service cost on a node-major CSR instance."""
    n = len(indptr) - 1
    idx = _index_set(centers, n)
    is_open = np.zeros(n, dtype=bool)
    is_open[idx] = True
    service = _csr_service(indptr, indices, data, fallback, is_open, n, False)
    return float(np.max(service) if objective == "kcenter" else np.sum(service))


def kmedian_points(points, centers, chunk: int = 1 << 15) -> float:
    """Sum over ``points`` of the Euclidean distance to the nearest row of
    ``points[centers]``, evaluated in chunks to bound memory."""
    points = np.asarray(points, dtype=float)
    C = points[_index_set(centers, points.shape[0])]
    total = 0.0
    for lo in range(0, points.shape[0], chunk):
        block = points[lo:lo + chunk]
        d2 = ((block[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        total += float(np.sqrt(d2.min(axis=1)).sum())
    return total


def agrees(recomputed: float, reported: float, rtol: float = 1e-9) -> bool:
    """Whether a reported cost matches its recomputation up to summation order."""
    return abs(recomputed - reported) <= rtol * max(abs(recomputed), abs(reported), 1.0)
