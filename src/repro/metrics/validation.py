"""Structural validation for metric distance matrices.

The paper's guarantees hold only on metric instances (symmetric ``d``
satisfying the triangle inequality, §2); these checkers enforce that at
instance-construction time so algorithm bugs are never masked by
invalid inputs. Instances also own their arrays: :func:`_owned_array`
keeps an input only when no one else can write it, and builders
:func:`_freeze` the fresh arrays they hand over so nothing is copied.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError
from repro.util.rng import ensure_rng


def _owned_array(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only ``dtype`` array that no one else can write.

    An input array is kept only when neither it nor any array it views
    is writable — so a builder that marks its fresh arrays read-only
    hands them over uncopied — and copied otherwise. A fresh conversion
    (a list, another dtype) is already private.
    """
    out = np.asarray(arr, dtype=dtype)
    if out is arr or out.base is not None:
        view = out
        while isinstance(view, np.ndarray):
            if view.flags.writeable:
                out = out.copy()
                break
            view = view.base
    out.setflags(write=False)
    return out


def _freeze(*arrays: np.ndarray) -> None:
    """Mark freshly built arrays read-only, so that an instance built
    from them keeps them instead of copying them."""
    for arr in arrays:
        arr.setflags(write=False)


def triangle_violation(D: np.ndarray, *, sample_limit: int = 256, seed=0) -> float:
    """Worst triangle-inequality violation ``max(d(i,j) − d(i,k) − d(k,j))``.

    Exact (all ``n³`` triples, vectorized) for ``n ≤ sample_limit``;
    otherwise checks all triples through a random sample of
    ``sample_limit`` midpoints ``k``, which still catches any midpoint
    involved in a violation with high probability on random inputs.
    Returns a non-positive number for valid metrics.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if n <= sample_limit:
        mids = np.arange(n)
    else:
        mids = ensure_rng(seed).choice(n, size=sample_limit, replace=False)
    # best[i, j] = min_k (d(i,k) + d(k,j)) over the midpoint sample
    best = np.min(D[:, mids, None] + D[None, mids, :], axis=1)
    return float(np.max(D - best))


def check_metric_matrix(
    D: np.ndarray,
    *,
    tol: float = 1e-9,
    check_triangle: bool = True,
    sample_limit: int = 256,
) -> np.ndarray:
    """Validate ``D`` as a metric distance matrix; return it as float64.

    Raises
    ------
    InvalidInstanceError
        If ``D`` is not square, has negative entries or a nonzero
        diagonal, is asymmetric, or (when ``check_triangle``) violates
        the triangle inequality by more than ``tol``.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InvalidInstanceError(f"distance matrix must be square, got shape {D.shape}")
    if D.shape[0] == 0:
        raise InvalidInstanceError("distance matrix must be non-empty")
    if not np.all(np.isfinite(D)):
        raise InvalidInstanceError("distance matrix contains non-finite entries")
    if np.any(D < -tol):
        raise InvalidInstanceError(f"negative distance: min={D.min()}")
    if np.any(np.abs(np.diagonal(D)) > tol):
        raise InvalidInstanceError("self-distances must be zero")
    if np.max(np.abs(D - D.T)) > tol:
        raise InvalidInstanceError(
            f"distance matrix asymmetric (max deviation {np.max(np.abs(D - D.T))})"
        )
    if check_triangle:
        viol = triangle_violation(D, sample_limit=sample_limit)
        if viol > tol:
            raise InvalidInstanceError(f"triangle inequality violated by {viol}")
    return np.clip(D, 0.0, None)
