"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer it is one or two unlucky samples, not a tail.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values))


def nearest_rank(values, pct: int) -> float:
    """The ``pct``-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil without float error
    return float(ordered[max(rank, 1) - 1])


def tail(values, pct: int):
    """``pct``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(values)
    rank = -(-pct * n // 100)
    if n - rank < MIN_BEYOND:
        return None
    return nearest_rank(values, pct)


def tails(values, pcts=(90, 99)) -> dict:
    """``{"p90": ..., "p99": ...}`` holding only the supported tails."""
    out = {}
    for pct in pcts:
        value = tail(values, pct)
        if value is not None:
            out[f"p{pct}"] = value
    return out


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
