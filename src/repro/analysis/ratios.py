"""Approximation-ratio measurement harness.

Given an algorithm under test and a reference lower bound (exact
optimum or LP value), runs repeated seeded trials and reports the
worst/mean ratio as one formatted row (:meth:`RatioReport.row`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.util.rng import spawn_rngs


@dataclass(frozen=True)
class RatioReport:
    """Measured approximation quality of one algorithm on one workload."""

    name: str
    claimed_factor: float
    reference: float
    worst_ratio: float
    mean_ratio: float
    trials: int

    @property
    def within_claim(self) -> bool:
        """Whether the worst measured ratio respects the claimed factor
        (with a 0.1% numeric allowance)."""
        return self.worst_ratio <= self.claimed_factor * 1.001

    def row(self) -> str:
        """One formatted report row: name, claimed factor, worst and
        mean ratio, and an ``ok``/``VIOLATED`` flag."""
        flag = "ok" if self.within_claim else "VIOLATED"
        return (
            f"{self.name:<28s} claim≤{self.claimed_factor:<7.3f} "
            f"worst={self.worst_ratio:.4f} mean={self.mean_ratio:.4f} "
            f"trials={self.trials} [{flag}]"
        )


def measure_ratio(
    name: str,
    run,
    reference: float,
    *,
    claimed_factor: float,
    trials: int = 5,
    seed=0,
) -> RatioReport:
    """Run ``run(rng) -> cost`` for ``trials`` seeded trials and compare
    each cost against ``reference`` (a lower bound on the optimum)."""
    if reference <= 0:
        raise InvalidParameterError(f"reference must be positive, got {reference}")
    rngs = spawn_rngs(seed, trials)
    ratios = np.array([float(run(rng)) / reference for rng in rngs])
    return RatioReport(
        name=name,
        claimed_factor=float(claimed_factor),
        reference=float(reference),
        worst_ratio=float(ratios.max()),
        mean_ratio=float(ratios.mean()),
        trials=trials,
    )
