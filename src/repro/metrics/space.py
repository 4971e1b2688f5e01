"""Metric spaces ``(X, d)`` backed by dense distance matrices.

The paper assumes a metric space with ``F ∪ C ⊆ X`` underlying every
instance; :class:`MetricSpace` is that object. Distances are stored as
a dense ``n × n`` float matrix — the paper's algorithms are built on
dense-matrix primitives (§2), so this is the natural representation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError
from repro.metrics.validation import _freeze, _owned_array, check_metric_matrix


class MetricSpace:
    """An immutable finite metric space.

    Parameters
    ----------
    D:
        Dense ``n × n`` symmetric distance matrix with zero diagonal
        satisfying the triangle inequality.
    points:
        Optional ``n × dim`` coordinates (kept for plotting/debugging;
        distances are always read from ``D``).

        Both arrays are kept read-only. A caller's array that is, or
        views, a writable array is copied, so the caller can still
        write its own; a read-only array is kept.
    validate:
        Set ``False`` only for matrices already validated (e.g., loaded
        from a file this library wrote).
    """

    __slots__ = ("_D", "_points")

    def __init__(self, D: np.ndarray, *, points: np.ndarray | None = None, validate: bool = True):
        if validate:
            D = check_metric_matrix(D)  # a fresh array
            _freeze(D)
        self._D = D = _owned_array(D, float)
        if points is not None:
            points = _owned_array(points, float)
            if points.shape[0] != D.shape[0]:
                raise InvalidInstanceError(
                    f"points ({points.shape[0]}) and distances ({D.shape[0]}) disagree on n"
                )
        self._points = points

    @classmethod
    def from_points(cls, points: np.ndarray, *, p: float = 2.0) -> "MetricSpace":
        """Build the ``ℓ_p`` metric over a point set (``n × dim``)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points[:, None, :] - points[None, :, :]
        if p == 2.0:
            D = np.sqrt(np.sum(diff * diff, axis=2))
        elif p == 1.0:
            D = np.sum(np.abs(diff), axis=2)
        elif np.isinf(p):
            D = np.max(np.abs(diff), axis=2)
        else:
            D = np.sum(np.abs(diff) ** p, axis=2) ** (1.0 / p)
        # exact zeros on the diagonal despite floating-point arithmetic
        np.fill_diagonal(D, 0.0)
        D = np.minimum(D, D.T)
        _freeze(D)
        return cls(D, points=points, validate=False)

    @property
    def n(self) -> int:
        """Number of points in the space."""
        return self._D.shape[0]

    @property
    def D(self) -> np.ndarray:
        """The (read-only) full distance matrix."""
        return self._D

    @property
    def points(self) -> np.ndarray | None:
        """Coordinates if the space came from a point set, else ``None``."""
        return self._points

    def distance(self, i: int, j: int) -> float:
        """Distance between points ``i`` and ``j``."""
        return float(self._D[i, j])

    def distance_to_set(self, j, S) -> np.ndarray:
        """``d(j, S) = min_{w ∈ S} d(j, w)`` (vectorized over ``j``)."""
        S = np.asarray(S, dtype=int)
        if S.size == 0:
            raise InvalidInstanceError("distance_to_set requires a non-empty set")
        return np.min(self._D[np.atleast_1d(j)][:, S], axis=1)

    def submatrix(self, rows, cols) -> np.ndarray:
        """Rectangular distance block ``d(rows × cols)`` (copy)."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        return self._D[np.ix_(rows, cols)]

    def __repr__(self) -> str:
        return f"MetricSpace(n={self.n})"
