"""Argument validation helpers shared across the library.

These raise :class:`repro.errors.InvalidParameterError` with messages
that name the offending parameter, so every public entry point can
validate in one line.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import InvalidParameterError


def check_epsilon(epsilon: float, *, name: str = "epsilon", upper: float | None = None) -> float:
    """Validate a slack parameter ``epsilon > 0`` (optionally ``<= upper``)."""
    eps = float(epsilon)
    if not eps > 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {epsilon!r}")
    if upper is not None and eps > upper:
        raise InvalidParameterError(f"{name} must be <= {upper}, got {epsilon!r}")
    return eps


def round_cap(bound: float, epsilon: float, *, what: str) -> int:
    """``⌈bound⌉`` for a round cap that grows as ``epsilon`` shrinks.

    Round caps scale like ``1/log(1+ε)`` or ``1/ε``, so a subnormal
    ``epsilon`` overflows ``bound`` to infinity, where ``math.ceil``
    would raise a bare ``OverflowError``. Refuses that ``epsilon``
    instead, naming it and the bound (``what``).
    """
    if not math.isfinite(bound):
        raise InvalidParameterError(
            f"epsilon={epsilon!r} is too small: the {what} overflows a float; "
            "use a larger epsilon"
        )
    return math.ceil(bound)


def check_max_rounds(value) -> int:
    """Validate an explicit round cap: a whole number ``>= 0``.

    ``0`` is a cap like any other: no round may run. A NaN cap would
    remove the cap (``rounds > nan`` is never true), and text or a
    fraction would fail mid-solve with a bare ``TypeError``.
    """
    whole = (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and 0 <= value < math.inf
        and value == int(value)
    )
    if not whole:
        raise InvalidParameterError(f"max_rounds must be a whole number >= 0, got {value!r}")
    return int(value)


def check_ids(ids, n: int, *, name: str) -> np.ndarray:
    """Validate a non-empty 1-D array of ids in ``[0, n)``; returns ``intp``.

    Whole-number floats (``3.0``) are ids. Fractional or NaN values,
    booleans, non-numbers and any shape but 1-D raise
    :class:`InvalidParameterError`: an ``int`` cast would truncate
    ``0.7`` to id 0, read a boolean mask as ids 0 and 1, and flatten a
    nested list.
    """
    try:
        arr = np.asarray(ids)
    except ValueError:  # a ragged nesting has no array form
        arr = np.asarray(None)
    kind = arr.dtype.kind
    if (
        kind not in "iuf"
        or arr.ndim != 1
        or arr.size == 0
        or (kind == "f" and not np.array_equal(arr, np.floor(arr)))
    ):
        raise InvalidParameterError(
            f"{name} must be a non-empty 1-D sequence of whole-number ids, got {ids!r}"
        )
    if arr.min() < 0 or arr.max() >= n:
        raise InvalidParameterError(f"{name} must lie in [0, {n}), got {ids!r}")
    return arr.astype(np.intp, copy=False)


def check_k(k: int, n: int, *, name: str = "k") -> int:
    """Validate a center-count ``1 <= k <= n``."""
    kk = int(k)
    if kk != k:
        raise InvalidParameterError(f"{name} must be an integer, got {k!r}")
    if not 1 <= kk <= n:
        raise InvalidParameterError(f"{name} must be in [1, {n}], got {k!r}")
    return kk


def check_positive_int(value: int, *, name: str) -> int:
    """Validate a strictly positive whole number: an integer, or a
    whole float such as ``3.0``. Bools, text, NaN, infinities and
    fractions are refused."""
    if (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and (isinstance(value, numbers.Integral) or float(value).is_integer())
        and value > 0
    ):
        return int(value)
    raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")


def check_probability(p: float, *, name: str = "p") -> float:
    """Validate a probability in the closed interval [0, 1]."""
    pp = float(p)
    if not 0.0 <= pp <= 1.0:
        raise InvalidParameterError(f"{name} must be in [0, 1], got {p!r}")
    return pp


def check_nonnegative(value: float, *, name: str) -> float:
    """Validate a finite float ``>= 0`` (delays, jitter fractions)."""
    v = float(value)
    if not v >= 0.0 or v != v or v == float("inf"):
        raise InvalidParameterError(f"{name} must be a finite float >= 0, got {value!r}")
    return v


def check_positive_float(value: float, *, name: str) -> float:
    """Validate a finite float ``> 0`` (timeouts, backoff bases)."""
    v = float(value)
    if not v > 0.0 or v == float("inf"):
        raise InvalidParameterError(f"{name} must be a finite float > 0, got {value!r}")
    return v


def check_unit_fraction(value: float, *, name: str) -> float:
    """Validate a fraction in the half-open interval ``(0, 1]``.

    The domain of coverage floors: 0 would accept an answer covering
    nothing, while exactly 1 ("only a complete answer") is legitimate.
    """
    v = float(value)
    if not 0.0 < v <= 1.0:
        raise InvalidParameterError(f"{name} must be in (0, 1], got {value!r}")
    return v
