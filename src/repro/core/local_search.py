"""§7 — Parallel local search for k-median and k-means (Theorem 7.1).

The natural local search ("swap one center if it helps") parallelized
along the paper's two key ideas:

1. **Good warm start.** Any optimal k-center solution is an
   ``n``-approximation for k-median, so the §6.1 parallel 2-approx
   k-center gives a ``2n``-approximate start — making
   ``O(log_{1+ε/(1+ε)·1/k}) = O(k log n / β)`` improving rounds enough.
2. **All swaps in parallel.** With the client→center distances and each
   client's nearest/second-nearest center in hand, *every* candidate
   swap ``(i ∈ S, i′ ∉ S)`` is evaluated simultaneously:
   ``Δcost(i→i′) = Σ_j min(base_i(j), d(j, i′)) − cost``, where
   ``base_i(j)`` is ``j``'s service cost with ``i`` dropped — one
   ``O(k·n·n)``-work batch of basic matrix operations per round. The
   one body (:mod:`repro.core.local_search_sparse`) decomposes that
   batch over the stored candidate edges: ``O(nnz + k·(n−k))`` work per
   round, ``O(n² + k·(n−k))`` on a dense instance's full CSR.

A swap is applied only if it improves the objective by a factor
``(1 − β/k)``, ``β = ε/(1+ε)`` — the polynomial-round variant whose
local optima are ``(5+ε)``-approximate for k-median and ``(81+ε)`` for
k-means (squared distances; Gupta–Tangwongsan analysis).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kcenter import parallel_kcenter
from repro.core.result import ClusteringSolution
from repro.errors import InvalidParameterError
from repro.metrics.instance import ClusteringInstance
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_ids, check_max_rounds, round_cap

_OBJECTIVE_POWER = {"kmedian": 1.0, "kmeans": 2.0}


def swap_round_cap(n: int, k: int, eps: float, objective: str) -> int:
    """The default §7 round cap on ``n`` nodes with ``k`` centers:
    ``O(log_{1/(1-β/k)}(start/opt))`` with ``start ≤ (2n)^p · opt``.

    Raises :class:`~repro.errors.InvalidParameterError` naming
    ``epsilon`` when ``eps`` is so small (subnormal) that the cap
    overflows a float — so a caller can refuse the ``epsilon`` before
    solving.
    """
    beta = eps / (1.0 + eps)
    power = _OBJECTIVE_POWER[objective]
    bound = power * math.log(2 * max(n, 2)) * (k / beta)
    return round_cap(bound, eps, what="local-search round bound") + 16


def _initial_centers(
    instance: SparseClusteringInstance, machine: PramMachine, initial
) -> np.ndarray:
    """Warm start: caller-provided centers or the parallel k-center
    2-approximation, on the CSR the swap loop runs on.

    A warm start holding more than ``k`` distinct ids is refused: no
    rule picks which of them to drop. When fewer than ``k`` centers
    come back, the remainder is padded Gonzalez-style — repeatedly
    promote the node farthest from the current set. That rule is
    label-free (relabeling the nodes relabels the pad, the equivariance
    the metamorphic suite asserts) and improves the warm start for free.
    """
    if initial is not None:
        centers = np.unique(check_ids(initial, instance.n, name="initial centers"))
        if centers.size > instance.k:
            raise InvalidParameterError(
                f"initial centers hold {centers.size} distinct ids but k={instance.k}"
            )
    else:
        centers = parallel_kcenter(instance, machine=machine).centers
    if centers.size < instance.k:
        # One full service-distance pass, then an O(n)-per-center
        # running-minimum update against only the promoted node's
        # distances — never a from-scratch recomputation.
        d = instance._center_distances(centers)
        machine.ledger.charge_basic("reduce[min]", max(instance.m, 1))
        indptr, cols, data = instance.indptr, instance.indices, instance.data
        while centers.size < instance.k:
            far = int(machine.argmax(d))
            if d[far] <= 0.0:  # only duplicates of centers remain: any node works
                far = int(np.setdiff1d(np.arange(instance.n), centers)[0])
            centers = np.concatenate([centers, [far]])
            # The promoted node's stored segment spread over +inf
            # (absent pairs cannot serve; d is already fallback-capped).
            lo, hi = indptr[far], indptr[far + 1]
            column = np.full(instance.n, np.inf)
            column[cols[lo:hi]] = data[lo:hi]
            d = np.asarray(machine.map(np.minimum, d, column))
    return np.sort(centers)


def parallel_local_search(
    instance: ClusteringInstance,
    objective: str = "kmedian",
    *,
    epsilon: float = 0.5,
    machine: PramMachine | None = None,
    seed=None,
    initial=None,
    max_rounds: int | None = None,
) -> ClusteringSolution:
    """Run the §7 parallel local search to a ``(1−β/k)``-local optimum.

    Parameters
    ----------
    objective:
        ``"kmedian"`` (distances) or ``"kmeans"`` (squared distances).
    epsilon:
        Improvement slack ``0 < ε < 1`` (β = ε/(1+ε)); smaller ε means
        more rounds and a guarantee closer to 5 (resp. 81).
    initial:
        Optional warm-start centers, at most ``k`` distinct ids
        (defaults to parallel k-center).
    max_rounds:
        Safety bound; defaults to the Arya et al. round bound for a
        ``2n``-approximate start, with headroom.

    Returns
    -------
    ClusteringSolution
        ``extra`` records the swap trace and the warm-start cost.

    Notes
    -----
    One body runs every instance: the CSR swap loop of
    :mod:`repro.core.local_search_sparse`, which evaluates every swap
    by segmented scatter-combines over the stored candidate edges —
    ``O(nnz + k·(n−k))`` work per round. ``instance`` may be a
    :class:`~repro.metrics.sparse.SparseClusteringInstance`; a dense
    instance runs as its full CSR
    (:meth:`~repro.metrics.sparse.SparseClusteringInstance.from_instance`,
    ``O(n² + k·(n−k))`` per round, within the §7 ``O(k·n²)``), its
    warm start included, and its cost is evaluated on the dense
    instance. Seeded solutions match the dense ``O(k·n²)`` batch kept
    as the test suite's oracle.

    Weighted instances (node multiplicities, the shard-and-conquer
    coreset representation) are optimized under the weighted objective
    ``Σ_j w_j d(j, S)^p``; unit-weight instances run the exact
    unweighted code, byte-identical to instances built without weights.
    """
    if objective not in _OBJECTIVE_POWER:
        raise InvalidParameterError(
            f"objective must be one of {sorted(_OBJECTIVE_POWER)}, got {objective!r}"
        )
    eps = check_epsilon(epsilon, upper=1.0 - 1e-9)
    cap = (
        check_max_rounds(max_rounds)
        if max_rounds is not None
        else swap_round_cap(instance.n, instance.k, eps, objective)
    )
    machine = ensure_machine(machine, seed=seed)
    from repro.core.local_search_sparse import _parallel_local_search_sparse

    if isinstance(instance, SparseClusteringInstance):
        return _parallel_local_search_sparse(instance, objective, eps, machine, initial, cap)
    return _parallel_local_search_sparse(
        SparseClusteringInstance.from_instance(instance),
        objective, eps, machine, initial, cap, instance,
    )


def parallel_kmedian(instance: ClusteringInstance, **kwargs) -> ClusteringSolution:
    """Convenience wrapper: §7 local search with the k-median objective."""
    return parallel_local_search(instance, "kmedian", **kwargs)


def parallel_kmeans(instance: ClusteringInstance, **kwargs) -> ClusteringSolution:
    """Convenience wrapper: §7 local search with the k-means objective."""
    return parallel_local_search(instance, "kmeans", **kwargs)
