"""Shard assignment over raw point coordinates.

Three partitioners, one contract: given ``n`` points (and a shard
count), return an ``intp`` label vector in ``[0, shards)``. They trade
balance against locality:

* :func:`random_partition` — balanced by construction, zero locality.
  The baseline every distributed-clustering paper compares against:
  coresets then summarize *global* structure per shard, which is fine
  for k-median (each shard sees an iid thinning of the data).
* :func:`grid_partition` — balanced-grid: per-axis quantile cuts give
  equal-mass stripes whose product cells are folded onto shards in
  cell-rank order. Locality within a cell, balance from the quantiles.
* :func:`kdtree_partition` — locality: recursively split the largest
  cell at the median of its widest axis (exactly the KD-tree
  construction the kNN builders use) until there are ``shards``
  leaves. Best locality, balanced to within the median splits.

All three are deterministic given their inputs (``random_partition``
given its seed).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.rng import ensure_rng


def _real_points(points) -> np.ndarray:
    """``points`` as a float array. Other than real dtypes are refused:
    converting complex points to float keeps only their real parts."""
    points = np.asarray(points)
    if points.dtype.kind not in "biuf":
        raise InvalidParameterError(f"points must be real numbers, got dtype {points.dtype}")
    return points.astype(float, copy=False)


def _check_points(points) -> np.ndarray:
    points = _real_points(points)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidParameterError(
            f"points must be a non-empty (n, dim) array, got shape {points.shape}"
        )
    if not np.all(np.isfinite(points)):
        raise InvalidParameterError("points must be finite")
    return points


def _check_shards(shards, n: int | None = None) -> int:
    """The shard count as an ``int``: a whole number ``>= 1``, and at
    most the ``n`` points when ``n`` is given."""
    whole = isinstance(shards, numbers.Real) and 1 <= shards < math.inf and shards == int(shards)
    if not whole or (n is not None and shards > n):
        most = "" if n is None else f" and at most the {n} points"
        raise InvalidParameterError(
            f"shards must be >= 1, a whole number{most}; got {shards!r}"
        )
    return int(shards)


def _check_weights(weights, n: int):
    """``None``, or ``n`` finite, strictly positive point weights
    (multiplicities) as a float array."""
    if weights is None:
        return None
    arr = np.asarray(weights)
    if arr.dtype.kind not in "biuf" or arr.shape != (n,):
        raise InvalidParameterError(
            f"weights must be a real ({n},) array, one per point; got {arr.dtype} "
            f"of shape {arr.shape}"
        )
    arr = arr.astype(float, copy=False)
    if not (np.all(np.isfinite(arr)) and arr.min() > 0):
        raise InvalidParameterError(
            "weights must be finite and strictly positive, one per point"
        )
    return arr


def _check_labels(labels, n: int, shards: int):
    """Check that ``labels`` puts each of ``n`` points on one of ``shards``
    non-empty shards. Returns the labels as the narrowest unsigned type
    holding ``shards - 1`` (NumPy's stable sort is a radix sort on 8- and
    16-bit keys) and the points per shard."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidParameterError(f"labels must have shape ({n},), got {labels.shape}")
    kind = labels.dtype.kind
    if kind not in "biuf" or (kind == "f" and not np.array_equal(labels, np.floor(labels))):
        # Truncating 0.7 would move its point to shard 0 without a word.
        raise InvalidParameterError(
            f"labels must be whole numbers naming shards, got dtype {labels.dtype} "
            "with a fractional, NaN or non-numeric label"
        )
    low, high = labels.min(), labels.max()
    if low < 0 or high >= shards:
        # An out-of-range label would silently drop its point from
        # every shard, breaking weight conservation.
        raise InvalidParameterError(
            f"labels must lie in [0, {shards}); got range [{low}, {high}]"
        )
    key = labels.astype(np.min_scalar_type(shards - 1))
    sizes = np.bincount(key, minlength=shards)
    if not sizes.all():
        raise InvalidParameterError(
            f"shard {int(np.argmin(sizes))} is empty; labels must cover every shard"
        )
    return key, sizes


def random_partition(n: int, shards: int, *, seed=None) -> np.ndarray:
    """Balanced random assignment: a seeded permutation folded onto
    ``[0, shards)``, so shard sizes differ by at most one."""
    n = int(n)
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    shards = _check_shards(shards, n)
    rng = ensure_rng(seed)
    labels = np.empty(n, dtype=np.intp)
    labels[rng.permutation(n)] = np.arange(n, dtype=np.intp) % shards
    return labels


def grid_partition(points, shards: int) -> np.ndarray:
    """Balanced-grid assignment via per-axis quantile cuts.

    Each axis is cut into ``g = ceil(shards^(1/dim))`` equal-mass
    stripes (empirical quantiles), the product cells are ranked in
    row-major order, and cell rank is folded onto ``[0, shards)`` so
    every shard receives whole cells of nearby points.
    """
    points = _check_points(points)
    n, dim = points.shape
    shards = _check_shards(shards, n)
    if shards == 1:
        return np.zeros(n, dtype=np.intp)
    g = int(np.ceil(shards ** (1.0 / dim)))
    cell = np.zeros(n, dtype=np.intp)
    for axis in range(dim):
        cuts = np.quantile(points[:, axis], np.linspace(0, 1, g + 1)[1:-1])
        cell = cell * g + np.searchsorted(cuts, points[:, axis], side="right")
    # Equal-size contiguous runs of the cell-sorted order: whole cells
    # stay together except at the ~shards seam points, and every shard
    # gets n/shards ± 1 points even on degenerate (all-duplicate) data.
    order = np.lexsort((np.arange(n), cell))
    labels = np.empty(n, dtype=np.intp)
    labels[order] = (np.arange(n, dtype=np.int64) * shards // n).astype(np.intp)
    return labels


def kdtree_partition(points, shards: int) -> np.ndarray:
    """Locality assignment: KD-median splits until ``shards`` leaves.

    Repeatedly splits the largest remaining cell at the median of its
    widest axis — each split halves the cell, so the final leaves are
    spatially compact and balanced to within the rounding of the
    median. ``O(n log shards)``.
    """
    points = _check_points(points)
    n, _ = points.shape
    shards = _check_shards(shards, n)
    cells = [np.arange(n, dtype=np.intp)]
    while len(cells) < shards:
        big = max(range(len(cells)), key=lambda i: cells[i].size)
        idx = cells.pop(big)
        sub = points[idx]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        order = np.argsort(sub[:, axis], kind="stable")
        half = idx.size // 2
        cells.append(idx[order[:half]])
        cells.append(idx[order[half:]])
    labels = np.empty(n, dtype=np.intp)
    for s, idx in enumerate(cells):
        labels[idx] = s
    return labels


_PARTITIONERS = ("random", "grid", "locality")


def make_partition(points, shards: int, method: str = "locality", *, seed=None) -> np.ndarray:
    """Dispatch on the partitioner name (``random``/``grid``/``locality``)."""
    if method == "random":
        return random_partition(np.asarray(points).shape[0], shards, seed=seed)
    if method == "grid":
        return grid_partition(points, shards)
    if method == "locality":
        return kdtree_partition(points, shards)
    raise InvalidParameterError(
        f"unknown partition method {method!r}; expected one of {_PARTITIONERS}"
    )


def shard_sizes(labels: np.ndarray, shards: int) -> np.ndarray:
    """Points per shard (validates that every shard is non-empty)."""
    labels = np.asarray(labels)
    return _check_labels(labels, labels.size, _check_shards(shards, labels.size))[1]
