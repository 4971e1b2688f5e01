"""Test-only reference: the dense §6.1 k-center search.

The library runs one k-center body, the CSR one in
:mod:`repro.core.kcenter_sparse`; a dense instance runs as its full
CSR. This module keeps an independent second implementation over the
dense matrix — a stable-sort threshold list and, per probe, the boolean
threshold matrix ``D ≤ t`` handed to the dense MaxDom body in
:mod:`tests.reference.dominator_dense` — as the oracle the
equivalence suites compare the shipped solver against, field for
field. It shares no code with the CSR body and is not imported by
``src/``.

Its MaxDom rounds count under ``maxdom`` (the dense body's label)
where the CSR body's count under ``maxdom_sparse``;
:func:`comparable_rounds` maps one onto the other.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ClusteringSolution
from repro.metrics.instance import ClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine
from tests.reference.dominator_dense import max_dominator_set


def _thresholds(D: np.ndarray) -> np.ndarray:
    """Ascending distinct entries of ``D``: a stable sort and an
    adjacent-difference pack."""
    flat = np.sort(D.ravel(), kind="stable")
    keep = np.ones(flat.size, dtype=bool)
    keep[1:] = flat[1:] != flat[:-1]
    return flat[keep]


def kcenter_dense(
    instance: ClusteringInstance,
    *,
    machine: PramMachine | None = None,
    seed=None,
) -> ClusteringSolution:
    """The §6.1 bottleneck search on the dense matrix (module docstring);
    mirrors :func:`repro.core.kcenter.parallel_kcenter`."""
    machine = ensure_machine(machine, seed=seed)
    D, k = instance.D, instance.k
    start = machine.snapshot()
    thresholds = _thresholds(D)

    def dominators(t: float) -> np.ndarray:
        adjacency = D <= t
        np.fill_diagonal(adjacency, False)
        return max_dominator_set(adjacency, machine)

    lo, hi = 0, thresholds.size - 1
    probes = 0
    best_mask: np.ndarray | None = None
    best_t = float(thresholds[-1])
    while lo <= hi:
        mid = (lo + hi) // 2
        t = float(thresholds[mid])
        probes += 1
        machine.bump_round("kcenter_probe")
        dom = dominators(t)
        if int(dom.sum()) <= k:
            best_mask, best_t = dom, t
            hi = mid - 1
        else:
            lo = mid + 1
    if best_mask is None:
        # Unreachable on a metric (the top threshold's graph is complete
        # and one node covers it); kept as the shipped search keeps it.
        t = float(thresholds[-1])
        best_mask, best_t = dominators(t), t
        probes += 1

    centers = np.flatnonzero(best_mask)
    return ClusteringSolution(
        centers=centers,
        cost=instance.kcenter_cost(centers),
        objective="kcenter",
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={"threshold": best_t, "probes": probes, "n_thresholds": int(thresholds.size)},
    )


def comparable_rounds(rounds: dict) -> dict:
    """Round counters with the dense dominator's label mapped onto the
    CSR one's, so the two bodies' counts compare directly."""
    return {("maxdom_sparse" if k == "maxdom" else k): v for k, v in rounds.items()}
