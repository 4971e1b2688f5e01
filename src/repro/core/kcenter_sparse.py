"""§6.1 k-center: the one bottleneck-search body, over CSR.

The Theorem 6.1 search of :mod:`repro.core.kcenter`, executed on a
:class:`~repro.metrics.sparse.SparseClusteringInstance` (a dense
instance arrives as its full CSR): the candidate thresholds are the
sorted distinct *stored* distances, one
:meth:`~repro.pram.machine.PramMachine.sorted_unique` over the ``nnz``
values, and each probe tests ``|MaxDom(H_t)| ≤ k`` on the threshold
graph ``H_t`` (stored pairs with ``d ≤ t``) — the Lemma
3.1 remark's ``O(|E| log |V|)`` execution.

**Per-probe cost.** A probe cuts ``H_t`` out of a working edge list
with one compare, one pack and one gather, plus a ``searchsorted`` of
the ``n + 1`` row bounds into the kept positions; the MaxDom rounds
that follow touch only ``H_t``'s edges
(:func:`~repro.core.dominator_sparse._max_dominator_rounds`). The
working list starts as the instance's stored structure and becomes
``H_t`` whenever a probe at ``t`` passes: every later probe lies below
``t``, so its graph is a subset of ``H_t``, cut in the same flat order.
Nothing is packed or copied per solve beyond that. ``H_t`` keeps the
stored diagonal (``d = 0``), which changes no selection: a node's own
priority and its own hits already count in every MaxDom round.

**No per-probe re-check.** ``H_t`` goes to the MaxDom rounds as it is:
it is square, symmetric and row-sorted because the instance is — its
constructor checks all of that once, and the instance keeps arrays
nobody else can write. Cutting a symmetric sorted edge list by a
predicate of the (symmetric) distance keeps it symmetric and sorted.

**Parity.** On a dense instance the stored distances are exactly the
``n²`` matrix entries, so the threshold sequence, the probe schedule,
and every dominator selection (exact min-relays over the same edge
set, same RNG stream) match the dense §6.1 search kept as the test
suite's oracle — seeded solutions are byte-identical.

**Coverage.** On truncated instances the largest stored threshold keeps
every stored edge; if even that graph needs more than ``k`` dominators
(a kNN truncation with too few neighbors cannot be covered by ``k``
centers at any stored radius), the probe search raises
:class:`~repro.errors.InfeasibleSolutionError` — a too-sparse candidate
graph fails loudly rather than returning a fallback-capped radius that
looks feasible. The 2-approximation guarantee transfers whenever the
truncation retains each node's edge to its optimal center (e.g. kNN
with enough neighbors to contain the optimal clusters).
"""

from __future__ import annotations

import numpy as np

from repro.core.dominator_sparse import _max_dominator_rounds
from repro.core.result import ClusteringSolution
from repro.errors import InfeasibleSolutionError
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine


def _parallel_kcenter_sparse(
    instance: SparseClusteringInstance, machine: PramMachine, caller=None
) -> ClusteringSolution:
    """The §6.1 bottleneck search (module docstring). ``caller`` is the
    instance the solution's cost is evaluated on (default
    ``instance``)."""
    n, k = instance.n, instance.k
    start = machine.snapshot()

    thresholds = machine.sorted_unique(instance.data)
    # The working edge list starts as the whole stored structure. Its
    # diagonal (d = 0, so in every H_t) changes no MaxDom selection.
    bounds, cols, dist = instance.indptr, instance.indices, instance.data

    def dominators(t: float):
        """MaxDom of H_t — the working list's edges with d <= t, in its
        order — plus H_t's row bounds, columns and kept positions."""
        kept = np.flatnonzero(dist <= t)
        H = np.searchsorted(kept, bounds), cols[kept]
        machine.ledger.charge_basic("pack", max(dist.size, 1))
        return _max_dominator_rounds(machine, *H, n + 1), H, kept

    lo, hi = 0, thresholds.size - 1
    probes = 0
    best_mask: np.ndarray | None = None
    best_t = float(thresholds[-1])

    while lo <= hi:
        mid = (lo + hi) // 2
        t = float(thresholds[mid])
        probes += 1
        machine.bump_round("kcenter_probe")
        dom, H, kept = dominators(t)
        if int(dom.sum()) <= k:
            best_mask, best_t = dom, t
            hi = mid - 1
            # Every later probe lies below t, so its graph is a subset
            # of H_t: cut it from H_t instead of the whole list.
            (bounds, cols), dist = H, dist[kept]
        else:
            lo = mid + 1

    if best_mask is None:
        # Every probe failed, the last at the largest stored threshold,
        # which keeps every stored edge. On a dense instance that graph
        # is complete and one node covers it, so only a truncated
        # structure gets here: one more draw at that threshold, and a
        # loud failure if it needs more than k (module docstring).
        t = float(thresholds[-1])
        probes += 1
        dom = dominators(t)[0]
        if int(dom.sum()) > k:
            raise InfeasibleSolutionError(
                f"stored candidate graph needs {int(dom.sum())} centers at its "
                f"largest stored radius but k={k}: the truncation is too sparse "
                "for k-center coverage — rebuild the instance with more "
                "neighbors (knn_sparsify/knn_clustering_instance) or a larger "
                "radius (threshold_sparsify)"
            )
        best_mask, best_t = dom, t

    centers = np.flatnonzero(best_mask)
    return ClusteringSolution(
        centers=centers,
        cost=(instance if caller is None else caller).kcenter_cost(centers),
        objective="kcenter",
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={"threshold": best_t, "probes": probes, "n_thresholds": int(thresholds.size)},
    )
