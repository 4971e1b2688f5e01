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
   ``O(k·n·n)``-work batch of basic matrix operations per round.

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
from repro.errors import ConvergenceError, InvalidParameterError
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
    instance: ClusteringInstance, machine: PramMachine, initial
) -> np.ndarray:
    """Warm start: caller-provided centers or the parallel k-center
    2-approximation.

    When fewer than ``k`` centers come back, the remainder is padded
    Gonzalez-style — repeatedly promote the node farthest from the
    current set. That rule is label-free (relabeling the nodes relabels
    the pad, the equivariance the metamorphic suite asserts), improves
    the warm start for free, and computes identical distances on the
    dense and sparse instance shapes.
    """
    if initial is not None:
        centers = np.unique(check_ids(initial, instance.n, name="initial centers"))
        centers = centers[: instance.k]
    else:
        centers = parallel_kcenter(instance, machine=machine).centers
    if centers.size < instance.k:
        # One full service-distance pass, then an O(n)-per-center
        # running-minimum update against only the promoted node's
        # distance column — never a from-scratch recomputation.
        d = instance._center_distances(centers)
        machine.ledger.charge_basic(
            "reduce[min]", max(getattr(instance, "m", d.size * centers.size), 1)
        )
        while centers.size < instance.k:
            far = int(machine.argmax(d))
            if d[far] <= 0.0:  # only duplicates of centers remain: any node works
                far = int(np.setdiff1d(np.arange(instance.n), centers)[0])
            centers = np.concatenate([centers, [far]])
            d = np.asarray(machine.map(np.minimum, d, _center_column(instance, far)))
    return np.sort(centers)


def _center_column(instance: ClusteringInstance, center: int) -> np.ndarray:
    """Distance of every node to one candidate center: a dense matrix
    column, or the center's stored CSR segment spread over ``+inf``
    (absent pairs cannot serve — the running minimum is already
    fallback-capped)."""
    if isinstance(instance, SparseClusteringInstance):
        lo, hi = instance.indptr[center], instance.indptr[center + 1]
        col = np.full(instance.n, np.inf)
        col[instance.indices[lo:hi]] = instance.data[lo:hi]
        return col
    return instance.D[:, center]


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
        Optional warm-start centers (defaults to parallel k-center).
    max_rounds:
        Safety bound; defaults to the Arya et al. round bound for a
        ``2n``-approximate start, with headroom.

    Returns
    -------
    ClusteringSolution
        ``extra`` records the swap trace and the warm-start cost.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseClusteringInstance`; each round
    then evaluates every swap by segmented scatter-combines over the
    stored candidate edges — ``O(nnz)`` work per round instead of
    ``O(k·n²)`` (:mod:`repro.core.local_search_sparse`) — with
    identical seeded solutions to the dense path on dense-representable
    instances.

    Weighted instances (node multiplicities, the shard-and-conquer
    coreset representation) are optimized under the weighted objective
    ``Σ_j w_j d(j, S)^p`` on both paths; unit-weight instances run the
    exact unweighted code, byte-identical to instances built without
    weights.
    """
    if objective not in _OBJECTIVE_POWER:
        raise InvalidParameterError(
            f"objective must be one of {sorted(_OBJECTIVE_POWER)}, got {objective!r}"
        )
    eps = check_epsilon(epsilon, upper=1.0 - 1e-9)
    n, k = instance.n, instance.k
    cap = (
        check_max_rounds(max_rounds)
        if max_rounds is not None
        else swap_round_cap(n, k, eps, objective)
    )
    machine = ensure_machine(machine, seed=seed)
    if isinstance(instance, SparseClusteringInstance):
        from repro.core.local_search_sparse import _parallel_local_search_sparse

        return _parallel_local_search_sparse(instance, objective, eps, machine, initial, cap)
    beta = eps / (1.0 + eps)

    start = machine.snapshot()
    centers = _initial_centers(instance, machine, initial)
    power = _OBJECTIVE_POWER[objective]
    # Service costs; for k-means these are squared distances (one map).
    Dp = machine.map(lambda d: d**power, instance.D) if power != 1.0 else instance.D
    # Node multiplicities scale each node's service cost (Σ w_j d^p);
    # None keeps the exact unweighted code path (byte-identical runs).
    w = None if instance.has_unit_weights else instance.weights

    def service_state(c: np.ndarray):
        Dc = machine.take_columns(Dp, c)
        if w is not None:
            # Row scale by a positive weight: argmins and the d1/d2
            # order within each node's row are unchanged, the sums
            # become the weighted objective.
            Dc = machine.map(lambda d, ww: d * ww, Dc, w[:, None])
        near_pos = machine.argmin(Dc, axis=1)
        d1 = Dc[np.arange(n), near_pos]
        masked = Dc.copy()
        masked[np.arange(n), near_pos] = np.inf
        machine.ledger.charge_basic("map", Dc.size, depth=1)  # masking pass
        d2 = machine.reduce(masked, "min", axis=1) if c.size > 1 else np.full(n, np.inf)
        return d1, d2, near_pos

    d1, d2, near_pos = service_state(centers)
    cost = float(machine.reduce(d1, "add"))
    initial_cost = cost
    swaps: list[tuple[int, int, float]] = []

    rounds = 0
    while True:
        rounds += 1
        machine.bump_round("local_search")
        if rounds > cap:
            raise ConvergenceError(
                f"local search exceeded {cap} rounds (n={n}, k={k}, eps={eps})"
            )
        out_mask = np.ones(n, dtype=bool)
        out_mask[centers] = False
        candidates = np.flatnonzero(out_mask)
        if candidates.size == 0:
            break  # k = n: every node is a center

        # base[a, j]: client j's cost with center slot a removed.
        base = machine.map(
            lambda np_, d2_, d1_, row: np.where(np_ == row, d2_, d1_),
            np.broadcast_to(near_pos[None, :], (k, n)),
            np.broadcast_to(d2[None, :], (k, n)),
            np.broadcast_to(d1[None, :], (k, n)),
            np.broadcast_to(np.arange(k)[:, None], (k, n)),
        )
        # new_cost[a, c] = Σ_j w_j · min(base[a, j], Dp[candidate_c, j])
        cand_rows = machine.take_columns(Dp.T, candidates).T  # (n_cand, n)
        if w is not None:
            # base is already weighted (built from weighted d1/d2);
            # weighting the candidate rows the same way keeps
            # min(w·x, w·y) = w·min(x, y) exact.
            cand_rows = machine.map(lambda d, ww: d * ww, cand_rows, w[None, :])
        trial = machine.map(
            np.minimum,
            np.broadcast_to(base[:, None, :], (k, candidates.size, n)),
            np.broadcast_to(cand_rows[None, :, :], (k, candidates.size, n)),
        )
        new_cost = machine.reduce(trial, "add", axis=2)
        flat_best = int(machine.argmin(new_cost))
        a, c = np.unravel_index(flat_best, new_cost.shape)
        best = float(new_cost[a, c])
        if best < (1.0 - beta / k) * cost:
            swaps.append((int(centers[a]), int(candidates[c]), best))
            centers = np.sort(np.concatenate([np.delete(centers, a), [candidates[c]]]))
            d1, d2, near_pos = service_state(centers)
            cost = best
        else:
            break

    cost_fn = instance.kmedian_cost if objective == "kmedian" else instance.kmeans_cost
    return ClusteringSolution(
        centers=centers,
        cost=cost_fn(centers),
        objective=objective,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "initial_cost": initial_cost,
            "swaps": swaps,
            "epsilon": eps,
            "beta": beta,
        },
    )


def parallel_kmedian(instance: ClusteringInstance, **kwargs) -> ClusteringSolution:
    """Convenience wrapper: §7 local search with the k-median objective."""
    return parallel_local_search(instance, "kmedian", **kwargs)


def parallel_kmeans(instance: ClusteringInstance, **kwargs) -> ClusteringSolution:
    """Convenience wrapper: §7 local search with the k-means objective."""
    return parallel_local_search(instance, "kmeans", **kwargs)
