"""§6.1 — Parallel Hochbaum–Shmoys k-center (Theorem 6.1).

Binary search over the ``p ≤ n²`` distinct pairwise distances; each
probe builds the threshold graph ``H_t`` (edge ⇔ ``d ≤ t``) and tests
``|MaxDom(H_t)| ≤ k`` with the §3 dominator-set algorithm. The smallest
passing threshold yields centers covering every node within two hops,
i.e., radius ``≤ 2t ≤ 2·opt``.

Correctness with a *randomized* probe inside binary search: for any
``t ≥ opt`` **every** maximal dominator set has at most ``k`` nodes
(two chosen nodes in one optimal cluster would be two hops apart
through its center), so all failures lie strictly below
``opt``; the search therefore returns a threshold ``≤ opt`` no matter
which maximal set each probe samples. Total work ``O((n log n)²)`` —
the improvement over Wang–Cheng's ``O(n³)``.

**Execution.** One body runs every instance: the CSR search in
:mod:`repro.core.kcenter_sparse`. A dense instance runs as its full CSR
(:meth:`~repro.metrics.sparse.SparseClusteringInstance.from_instance`),
and its cost is evaluated on the dense instance. A probe costs one pass
over the stored edges of the smallest passing threshold's graph to cut
``H_t``, then MaxDom rounds over ``H_t``'s edges only —
``O(|E(H_t)|)`` work per round instead of the dense matrix's ``O(n²)``.
``H_t`` is not re-validated per probe: it inherits symmetry and sorted
rows from the instance, whose constructor checks them. Seeded solutions match the
dense §6.1 search kept as the test suite's oracle, field for field.
"""

from __future__ import annotations

from repro.core.kcenter_sparse import _parallel_kcenter_sparse
from repro.core.result import ClusteringSolution
from repro.metrics.instance import ClusteringInstance
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine


def parallel_kcenter(
    instance: ClusteringInstance,
    *,
    machine: PramMachine | None = None,
    seed=None,
) -> ClusteringSolution:
    """2-approximate k-center via parallel bottleneck search.

    Returns
    -------
    ClusteringSolution
        ``centers`` (≤ k of them), the achieved bottleneck ``cost``,
        round counters (``kcenter_probe`` per probe plus the
        ``maxdom`` dominator rounds), and ``extra = {threshold,
        probes, n_thresholds}``.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseClusteringInstance`; the binary
    search then runs over the *stored* distinct distances and each
    probe's threshold graph keeps only stored pairs. If the stored graph
    is too sparse for ``k`` centers to cover it (e.g. a kNN truncation
    with too few neighbors), the search raises
    :class:`~repro.errors.InfeasibleSolutionError` instead of returning
    a silently-capped radius.

    Weighted instances (node multiplicities) need no special handling:
    the bottleneck objective is weight-invariant — the farthest of
    ``w_j`` co-located copies is the copy itself — so the search runs
    identically and the 2-approximation guarantee is unchanged.
    """
    machine = ensure_machine(machine, seed=seed)
    if isinstance(instance, SparseClusteringInstance):
        return _parallel_kcenter_sparse(instance, machine)
    return _parallel_kcenter_sparse(
        SparseClusteringInstance.from_instance(instance), machine, instance
    )
