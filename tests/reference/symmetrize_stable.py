"""Test-only reference: the stable-sort symmetrization.

The library's ``repro.metrics.sparse._symmetrized_clustering_csr``
sorts its pair keys with NumPy's default kind and recovers each pair's
first occurrence from the sorted run. This module keeps the form it
replaced — one stable sort on the key ``r·n + c``, after which the
first entry of each run of equal keys is the pair's first occurrence —
as the oracle the property suite compares it against, byte for byte.
It is not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np


def symmetrized_clustering_csr_stable(
    n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union the edge list with its transpose and the zero diagonal,
    dedupe keeping first occurrences, and return a node-major CSR
    ``(indptr, indices, data)``."""
    diag = np.arange(n, dtype=np.intp)
    r = np.concatenate([rows, cols, diag])
    c = np.concatenate([cols, rows, diag])
    v = np.concatenate([vals, vals, np.zeros(n)])
    key = r.astype(np.int64, copy=False) * n + c
    order = np.argsort(key, kind="stable")
    key = key[order]
    order = order[np.concatenate(([True], key[1:] != key[:-1]))]
    r, c, v = r[order], c[order], v[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n)))).astype(np.intp)
    return indptr, c.astype(np.intp, copy=False), v
