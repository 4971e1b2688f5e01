"""Associative operators usable in reductions, scans, and distributions.

The paper (§2) requires summation and prefix sums "using a variety of
associative operators, including min, max, and addition". Each operator
bundles the NumPy ufunc with its identity element so reductions over
empty slices and exclusive scans are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class AssociativeOp:
    """An associative binary operator with an identity element.

    Attributes
    ----------
    name:
        Stable identifier used in ledgers and error messages.
    ufunc:
        The NumPy universal function implementing the operator.
    identity:
        Two-sided identity element (the result of reducing an empty
        sequence).
    """

    name: str
    ufunc: np.ufunc
    identity: float | int | bool

    def reduce(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Reduce ``a`` along ``axis`` (all axes when ``None``).

        Reducing an empty axis gives the identity in the output shape.
        NumPy already does so for ufuncs that define an identity (add,
        or, and); for ``min``/``max`` it raises, so those are filled
        here, in a dtype that can hold ``±inf``.
        """
        if self.ufunc.identity is None and a.size == 0 and (axis is None or a.shape[axis] == 0):
            shape = () if axis is None else np.delete(a.shape, axis)
            return np.full(shape, self.identity, dtype=np.result_type(a.dtype, self.identity))
        return self.ufunc.reduce(a, axis=axis)

    def scan(self, a: np.ndarray, axis: int = -1) -> np.ndarray:
        """Inclusive prefix combine of ``a`` along ``axis``."""
        return self.ufunc.accumulate(a, axis=axis)


ADD = AssociativeOp("add", np.add, 0)
MIN = AssociativeOp("min", np.minimum, np.inf)
MAX = AssociativeOp("max", np.maximum, -np.inf)
OR = AssociativeOp("or", np.logical_or, False)
AND = AssociativeOp("and", np.logical_and, True)

_REGISTRY: dict[str, AssociativeOp] = {op.name: op for op in (ADD, MIN, MAX, OR, AND)}


def get_operator(name: str) -> AssociativeOp:
    """Look up a registered operator by name (``add``/``min``/``max``/``or``/``and``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown associative operator {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
