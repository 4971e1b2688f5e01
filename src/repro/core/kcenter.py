"""§6.1 — Parallel Hochbaum–Shmoys k-center (Theorem 6.1).

Binary search over the ``p ≤ n²`` distinct pairwise distances; each
probe builds the threshold graph ``H_t`` (edge ⇔ ``d ≤ t``) in one
basic matrix operation and tests ``|MaxDom(H_t)| ≤ k`` with the §3
dominator-set algorithm. The smallest passing threshold yields centers
covering every node within two hops, i.e., radius ``≤ 2t ≤ 2·opt``.

Correctness with a *randomized* probe inside binary search (noted in
DESIGN.md): for any ``t ≥ opt`` **every** maximal dominator set has at
most ``k`` nodes (two chosen nodes in one optimal cluster would be two
hops apart through its center), so all failures lie strictly below
``opt``; the search therefore returns a threshold ``≤ opt`` no matter
which maximal set each probe samples. Total work
``O((n log n)²)`` — the improvement over Wang–Cheng's ``O(n³)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominator import max_dominator_set
from repro.core.result import ClusteringSolution
from repro.metrics.instance import ClusteringInstance
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine


def parallel_kcenter(
    instance: ClusteringInstance,
    *,
    machine: PramMachine | None = None,
    seed=None,
    backend=None,
) -> ClusteringSolution:
    """2-approximate k-center via parallel bottleneck search.

    Returns
    -------
    ClusteringSolution
        ``centers`` (≤ k of them), the achieved bottleneck ``cost``,
        round counters (``kcenter_probe`` per probe plus the dominator
        rounds), and ``extra = {threshold, probes}``.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseClusteringInstance`; the binary
    search then runs over the *stored* distinct distances and each
    probe is a :func:`~repro.core.dominator_sparse.max_dominator_set_sparse`
    over the threshold subgraph — ``O(nnz)`` work per probe round
    (:mod:`repro.core.kcenter_sparse`), with byte-identical seeded
    solutions on dense-representable instances. If the stored graph is
    too sparse for ``k`` centers to cover it (e.g. a kNN truncation
    with too few neighbors), the sparse path raises
    :class:`~repro.errors.InfeasibleSolutionError` instead of returning
    a silently-capped radius.

    Weighted instances (node multiplicities) need no special handling:
    the bottleneck objective is weight-invariant — the farthest of
    ``w_j`` co-located copies is the copy itself — so the search runs
    identically and the 2-approximation guarantee is unchanged.
    """
    if isinstance(instance, SparseClusteringInstance):
        from repro.core.kcenter_sparse import _parallel_kcenter_sparse

        machine = ensure_machine(machine, backend=backend, seed=seed)
        return _parallel_kcenter_sparse(instance, machine)
    machine = ensure_machine(machine, backend=backend, seed=seed)
    D, k, n = instance.D, instance.k, instance.n
    start = machine.snapshot()

    # Candidate thresholds: the sorted distinct distances (§6.1 computes
    # this sequence once up front, as a single sorted-unique primitive).
    flat = machine.map(np.ravel, D)
    thresholds = machine.sorted_unique(flat)

    lo, hi = 0, thresholds.size - 1
    probes = 0
    best_mask: np.ndarray | None = None
    best_t = float(thresholds[-1])

    while lo <= hi:
        mid = (lo + hi) // 2
        t = float(thresholds[mid])
        probes += 1
        machine.bump_round("kcenter_probe")
        adjacency = machine.map(lambda d: d <= t, D)
        np.fill_diagonal(adjacency, False)
        dom = max_dominator_set(adjacency, machine)
        if int(dom.sum()) <= k:
            best_mask, best_t = dom, t
            hi = mid - 1
        else:
            lo = mid + 1

    if best_mask is None:
        # The largest threshold makes the graph complete: any single node
        # dominates, so some probe must pass; reaching here means the
        # binary search never probed the top index — probe it directly.
        t = float(thresholds[-1])
        adjacency = machine.map(lambda d: d <= t, D)
        np.fill_diagonal(adjacency, False)
        best_mask, best_t = max_dominator_set(adjacency, machine), t
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
