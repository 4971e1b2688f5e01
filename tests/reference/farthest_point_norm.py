"""Test-only reference: the row-norm farthest-point traversal.

The library's ``repro.shard.coreset.farthest_point_seeds`` computes each
seed's distances column by column into preallocated buffers. This
module keeps the form it replaced — ``np.linalg.norm`` over a fresh
``(n, dim)`` difference per seed — as the oracle the property suite
compares it against. It is not imported by ``src/``.
"""

from __future__ import annotations

import numpy as np


def farthest_point_seeds_norm(points: np.ndarray, size: int, start: int) -> np.ndarray:
    """Farthest-point traversal from ``start``: ``size`` seed indices."""
    seeds = np.empty(size, dtype=np.intp)
    seeds[0] = int(start)
    d = np.linalg.norm(points - points[seeds[0]], axis=1)
    for t in range(1, size):
        seeds[t] = int(np.argmax(d))
        np.minimum(d, np.linalg.norm(points - points[seeds[t]], axis=1), out=d)
    return seeds
