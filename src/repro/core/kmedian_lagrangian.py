"""Lagrangian-relaxation k-median on top of the §5 LMP algorithm.

The paper emphasizes that its primal–dual algorithm preserves the
Lagrangian-multiplier property (LMP: ``3·Σf + Σd ≤ 3·opt``) *"enabling
[Jain–Vazirani] to use the algorithm as a subroutine in their
6-approximation algorithm for k-median"*. This module completes that
pipeline with the parallel LMP algorithm as the subroutine:

k-median has no facility costs but a budget ``k``; Lagrangian-relax the
budget by charging a uniform opening price ``λ`` and solving the
resulting facility-location instance with §5's algorithm. ``λ = 0``
opens everything; large ``λ`` opens one facility; binary search finds
the price where the LMP algorithm opens (about) ``k`` — those centers
are a k-median solution whose cost the LMP inequality relates to the
k-median optimum.

This implementation returns the best ``≤ k``-center solution met during
the search (the common practical variant). The textbook worst-case
constant additionally requires convexly combining the two bracketing
solutions when the search ends strictly between ``k₁ < k < k₂``; the
bracketing pair is returned in ``extra`` so callers can do so. Measured
quality on the bench workloads is far inside the JV factor either way.
"""

from __future__ import annotations

import numpy as np

from repro.core.primal_dual import _iteration_cap
from repro.core.primal_dual_sparse import _edge_order, _parallel_primal_dual_sparse
from repro.core.result import ClusteringSolution
from repro.errors import InvalidParameterError
from repro.metrics.instance import ClusteringInstance
from repro.metrics.sparse import SparseClusteringInstance, SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_positive_int


def _relaxation(instance: ClusteringInstance) -> SparseFacilityLocationInstance:
    """The facility-location relaxation's CSR structure, built once per call.

    Every node is a facility; each probe re-prices the structure with a
    uniform opening price λ
    (:meth:`~repro.metrics.sparse.SparseFacilityLocationInstance.with_opening_costs`)
    and runs the §5 primal–dual on it. A sparse clustering instance
    keeps its candidate structure and fallback column; a dense one
    becomes its full CSR. Its opening costs are all equal (zero), so the
    call's edge order keeps the clients' nearest distances, from which
    every probe's ``γ`` follows in ``O(n)``.
    """
    weights = None if instance.has_unit_weights else instance.weights
    free = np.zeros(instance.n)
    if isinstance(instance, SparseClusteringInstance):
        return SparseFacilityLocationInstance(
            instance.indptr,
            instance.indices,
            instance.data,
            free,
            n_clients=instance.n,
            fallback=instance.fallback,
            client_weights=weights,
        )
    return SparseFacilityLocationInstance.from_dense(instance.D, free, client_weights=weights)


def _price_ceiling(instance: ClusteringInstance) -> float:
    """λ ceiling: ``(W+1) ×`` the largest finite service distance,
    where ``W = Σ_j w_j`` is the total demand (``n`` when unweighted).

    At this price a single facility serving everyone beats any second
    opening: closing a facility moves at most ``W`` units of demand by
    at most ``dmax`` each. The multiplicative form (no additive
    constant) keeps the probe sequence exactly covariant under distance
    scaling, so seeded runs on ``c·d`` return the scaled solution
    bit-for-bit when ``c`` is a power of two — the scale-equivariance
    the metamorphic suite asserts. Unit weights give exactly the
    historical ``(n+1)`` factor.
    """
    if isinstance(instance, SparseClusteringInstance):
        dmax = float(instance.data.max()) if instance.nnz else 0.0
        finite_fb = instance.fallback[np.isfinite(instance.fallback)]
        if finite_fb.size:
            dmax = max(dmax, float(finite_fb.max()))
    else:
        dmax = float(instance.D.max())
    spread = (instance.n + 1) if instance.has_unit_weights else (instance.total_weight + 1.0)
    return (dmax if dmax > 0 else 1.0) * spread


def parallel_kmedian_lagrangian(
    instance: ClusteringInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    max_probes: int = 40,
) -> ClusteringSolution:
    """k-median via Lagrangian relaxation of the facility budget.

    Parameters
    ----------
    epsilon:
        Slack passed through to the §5 primal–dual subroutine.
    max_probes:
        Binary-search probes over the price λ (each probe is one full
        primal–dual run; 40 resolves λ to ~2⁻⁴⁰ of its range).

    Returns
    -------
    ClusteringSolution
        Best ``≤ k`` solution encountered. ``extra`` carries the probe
        trace and the bracketing (λ, facility-count, centers) pair for
        callers wanting the convex-combination rounding.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseClusteringInstance`. Either way
    the relaxation's CSR structure, its edges sorted by distance and the
    iteration cap are built once per call, and every probe runs the §5
    primal–dual on them: a probe changes only λ, so it pays only for
    its own thresholds, its bucket bounds (a ``searchsorted`` into the
    shared order) and its events. A dense-representable sparse
    instance gives the dense instance's seeded solution byte for byte.
    """
    eps = check_epsilon(epsilon)
    check_positive_int(max_probes, name="max_probes")
    machine = ensure_machine(machine, seed=seed)
    n, k = instance.n, instance.k
    if k >= n:
        centers = np.arange(n)
        return ClusteringSolution(
            centers=centers, cost=0.0, objective="kmedian",
            rounds=dict(machine.ledger.rounds), extra={"probes": []},
        )

    start = machine.snapshot()
    # λ range: at 0 every node can open freely; at the ceiling a single
    # facility always wins.
    lo, hi = 0.0, _price_ceiling(instance)
    relaxed = _relaxation(instance)
    iter_cap = _iteration_cap(relaxed, eps, None)
    order = _edge_order(machine, relaxed)
    best_centers: np.ndarray | None = None
    best_cost = np.inf
    trace: list[dict] = []
    bracket_low = bracket_high = None  # (lam, n_open, centers)

    for _ in range(max_probes):
        lam = 0.5 * (lo + hi)
        machine.bump_round("lagrangian_probe")
        priced = relaxed.with_opening_costs(np.full(n, lam))
        sol = _parallel_primal_dual_sparse(priced, eps, machine, True, iter_cap, priced, order)
        n_open = sol.opened.size
        cost = instance.kmedian_cost(sol.opened) if n_open <= k else np.inf
        trace.append({"lambda": lam, "n_open": n_open})
        if n_open <= k:
            if cost < best_cost:
                best_cost, best_centers = cost, sol.opened
            bracket_low = (lam, n_open, sol.opened)
            hi = lam  # cheaper price → more facilities → approach k from below
        else:
            bracket_high = (lam, n_open, sol.opened)
            lo = lam
        if n_open == k:
            break

    if best_centers is None:
        # Price ceiling guarantees ≤ k eventually; reaching here means
        # max_probes was too small for this spread.
        raise InvalidParameterError(
            f"no ≤ k solution within {max_probes} probes; increase max_probes"
        )
    return ClusteringSolution(
        centers=best_centers,
        cost=float(best_cost),
        objective="kmedian",
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "probes": trace,
            "bracket_low": bracket_low,
            "bracket_high": bracket_high,
            "epsilon": eps,
        },
    )
