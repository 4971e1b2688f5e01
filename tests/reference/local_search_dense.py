"""Test-only reference: the dense §7 swap batch.

The library runs one §7 local-search body, the CSR one in
:mod:`repro.core.local_search_sparse`; a dense instance runs as its
full CSR. This module keeps the dense batch that body replaced — per
round one ``(k, |candidates|, n)`` tensor of ``min(base_a(j), dᵖ(j, c))``
summed over the nodes, the ``O(k·n²)``-work evaluation Theorem 7.1
bounds — as the oracle the equivalence suites compare the shipped
solver against. Its warm start is its own too: the dense k-center
search of :mod:`tests.reference.kcenter_dense`, padded Gonzalez-style
over matrix columns. It shares with the library only the objective
powers and the default round cap, and is not imported by ``src/``.

The batch sums each trial objective in one reduction, while the CSR
body adds per-edge corrections to the current cost, so the swap-trace
objectives may differ in the last bits; centers, swap pairs, costs and
round counts match, and on integer distances every sum is exact.

:func:`local_search_dense` mirrors
:func:`repro.core.local_search.parallel_local_search` on a
:class:`~repro.metrics.instance.ClusteringInstance`.
"""

from __future__ import annotations

import numpy as np

from repro.core.local_search import _OBJECTIVE_POWER, swap_round_cap
from repro.core.result import ClusteringSolution
from repro.errors import ConvergenceError, InvalidParameterError
from repro.metrics.instance import ClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_ids, check_max_rounds
from tests.reference.kcenter_dense import kcenter_dense


def _initial_centers(
    instance: ClusteringInstance, machine: PramMachine, initial
) -> np.ndarray:
    """Caller-provided centers (at most ``k`` distinct ids) or the dense
    k-center search, padded to ``k`` by promoting the node farthest
    from the current set (any non-center once only duplicates remain)."""
    if initial is not None:
        centers = np.unique(check_ids(initial, instance.n, name="initial centers"))
        if centers.size > instance.k:
            raise InvalidParameterError(
                f"initial centers hold {centers.size} distinct ids but k={instance.k}"
            )
    else:
        centers = kcenter_dense(instance, machine=machine).centers
    if centers.size < instance.k:
        d = instance._center_distances(centers)
        machine.ledger.charge_basic("reduce[min]", max(d.size * centers.size, 1))
        while centers.size < instance.k:
            far = int(machine.argmax(d))
            if d[far] <= 0.0:
                far = int(np.setdiff1d(np.arange(instance.n), centers)[0])
            centers = np.concatenate([centers, [far]])
            d = np.asarray(machine.map(np.minimum, d, instance.D[:, far]))
    return np.sort(centers)


def local_search_dense(
    instance: ClusteringInstance,
    objective: str = "kmedian",
    *,
    epsilon: float = 0.5,
    machine: PramMachine | None = None,
    seed=None,
    initial=None,
    max_rounds: int | None = None,
) -> ClusteringSolution:
    """The §7 swap loop with the ``O(k·n²)`` dense batch per round
    (module docstring)."""
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
