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

from repro.core.primal_dual import parallel_primal_dual
from repro.core.result import ClusteringSolution
from repro.errors import InvalidParameterError
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.sparse import SparseClusteringInstance, SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_positive_int


def _solve_at_price(instance: ClusteringInstance, lam: float, eps: float, machine: PramMachine):
    """Run the LMP primal–dual with uniform opening price λ.

    Sparse clustering instances relax to a sparse facility-location
    instance over the same candidate structure (every node a facility
    at price λ, same fallback column), which the §5 entry point then
    executes on its ``O(nnz)`` path.
    """
    weights = None if instance.has_unit_weights else instance.weights
    if isinstance(instance, SparseClusteringInstance):
        fl = SparseFacilityLocationInstance(
            instance.indptr,
            instance.indices,
            instance.data,
            np.full(instance.n, lam),
            n_clients=instance.n,
            fallback=instance.fallback,
            client_weights=weights,
        )
    else:
        fl = FacilityLocationInstance(
            instance.D, np.full(instance.n, lam), client_weights=weights
        )
    sol = parallel_primal_dual(fl, epsilon=eps, machine=machine)
    return sol


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
    backend=None,
    max_probes: int = 40,
) -> ClusteringSolution:
    """k-median via Lagrangian relaxation of the facility budget.

    Parameters
    ----------
    epsilon:
        Slack passed through to the §5 primal–dual subroutine.
    backend:
        Execution backend name or instance for a freshly constructed
        machine; mutually exclusive with ``machine``. Seeded results
        agree across backends on every tested workload (pool
        backends may reassociate full float sum-reductions in the
        last ulp).
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
    :class:`~repro.metrics.sparse.SparseClusteringInstance`; each probe
    then runs the §5 primal–dual on the candidate-edge structure in
    ``O(nnz)`` work per round, with byte-identical seeded solutions to
    the dense path on dense-representable instances.
    """
    eps = check_epsilon(epsilon)
    check_positive_int(max_probes, name="max_probes")
    machine = ensure_machine(machine, backend=backend, seed=seed)
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
    best_centers: np.ndarray | None = None
    best_cost = np.inf
    trace: list[dict] = []
    bracket_low = bracket_high = None  # (lam, n_open, centers)

    for _ in range(max_probes):
        lam = 0.5 * (lo + hi)
        machine.bump_round("lagrangian_probe")
        sol = _solve_at_price(instance, lam, eps, machine)
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
