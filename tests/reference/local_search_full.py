"""Test-only reference: the §7 CSR swap loop that recomputes everything.

The library's body in :mod:`repro.core.local_search_sparse` keeps each
row's service state and each stored edge's swap terms across swaps and
refreshes only the rows a swap touches. This module keeps the loop it
replaced, which recomputes every row's service state after each
accepted swap and every edge's terms in every round, as the oracle the
property suite compares it against: centers, cost bytes, the swap
trace, the warm-start cost and the round count. It is not imported by
``src/``; it shares only the warm start and the swap-table size rule
(``_SWAP_MATRIX_CAP``, read at call time so a test that patches it
steers both loops onto the grouped path) with the library.

:func:`local_search_full` mirrors
:func:`repro.core.local_search.parallel_local_search` on a
:class:`~repro.metrics.sparse.SparseClusteringInstance`.
"""

from __future__ import annotations

import numpy as np

import repro.core.local_search_sparse as _body
from repro.core.local_search import _OBJECTIVE_POWER, _initial_centers, swap_round_cap
from repro.core.result import ClusteringSolution
from repro.errors import ConvergenceError
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon


def _service_state(
    machine: PramMachine,
    indptr: np.ndarray,
    cols: np.ndarray,
    dp: np.ndarray,
    fb: np.ndarray,
    centers: np.ndarray,
    n: int,
    dp_max: float,
):
    """Per-node best/second-best open service cost and serving slot,
    recomputed over every row: ``(d1, d2, near_slot)``, with infinite
    costs clamped to the finite sentinel ``1 + Σ finite d1 + max dᵖ``."""
    open_mask = np.zeros(n, dtype=bool)
    open_mask[centers] = True
    open_e = np.asarray(machine.take_rows(open_mask, cols))
    val = np.asarray(machine.where(open_e, dp, np.inf))
    d1s = np.asarray(machine.segmented_reduce(val, indptr, "min"))
    near_entry = machine.segmented_argmin(val, indptr)
    val2 = val.copy()
    val2[near_entry] = np.inf
    machine.ledger.charge_basic("map", max(val.size, 1), depth=1)
    d2s = np.asarray(machine.segmented_reduce(val2, indptr, "min"))
    served = np.isfinite(d1s) & (d1s <= fb)
    d1 = np.asarray(machine.map(np.minimum, d1s, fb))
    d2 = np.asarray(machine.map(np.minimum, d2s, fb))
    near_slot = np.where(
        served, np.searchsorted(centers, cols[near_entry]), -1
    ).astype(np.intp)
    d2 = np.where(served, d2, d1)
    finite_d1 = d1[np.isfinite(d1)]
    big = 1.0 + float(finite_d1.sum()) + dp_max
    d1 = np.minimum(d1, big)
    d2 = np.minimum(d2, big)
    machine.ledger.charge_basic("map", n, depth=1)
    return d1, d2, near_slot


def _grouped_best_swap(machine, reassign, G1, near_e, cl_e, c_e, mask, ncand):
    """Best swap without the k × |candidates| table (per-key sums of
    the nonzero corrections, or ``argmin reassign + argmin G1``)."""
    keys = machine.pack(near_e * ncand + cl_e, mask)
    vals = machine.pack(c_e, mask)
    t1, t1_pair = np.inf, None
    if keys.size:
        order = np.argsort(keys, kind="stable")
        machine.ledger.charge_sort("swap_group_sort", keys.size, keys.size)
        ks, vs = keys[order], vals[order]
        bounds = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
        sums = np.add.reduceat(vs, bounds)
        machine.ledger.charge_basic("segmented_reduce[add]", vs.size + bounds.size)
        ua, uc = np.divmod(ks[bounds], ncand)
        support = np.asarray(
            machine.map(lambda r, g, s: r + g + s, reassign[ua], G1[uc], sums)
        )
        i = int(machine.argmin(support))
        t1, t1_pair = float(support[i]), (int(ua[i]), int(uc[i]))
    a2 = int(machine.argmin(reassign))
    c2 = int(machine.argmin(G1))
    t2 = float(reassign[a2] + G1[c2])
    if t1_pair is not None and t1 <= t2:
        return t1_pair[0], t1_pair[1], t1
    return a2, c2, t2


def local_search_full(
    instance: SparseClusteringInstance,
    objective: str = "kmedian",
    *,
    epsilon: float = 0.5,
    machine: PramMachine | None = None,
    seed=None,
    initial=None,
    max_rounds: int | None = None,
) -> ClusteringSolution:
    """The §7 swap loop with a full service-state pass after every swap
    (module docstring)."""
    eps = check_epsilon(epsilon, upper=1.0 - 1e-9)
    n, k = instance.n, instance.k
    cap = max_rounds if max_rounds is not None else swap_round_cap(n, k, eps, objective)
    machine = ensure_machine(machine, seed=seed)
    beta = eps / (1.0 + eps)
    power = _OBJECTIVE_POWER[objective]

    start = machine.snapshot()
    centers = _initial_centers(instance, machine, initial)
    indptr, cols = instance.indptr, instance.indices
    rows_e = instance.rows_flat()
    dp = (
        np.asarray(machine.map(lambda d: d**power, instance.data))
        if power != 1.0
        else instance.data
    )
    fb = (
        np.asarray(machine.map(lambda f: f**power, instance.fallback))
        if power != 1.0
        else instance.fallback
    )
    if not instance.has_unit_weights:
        w = instance.weights
        dp = np.asarray(machine.map(lambda d, ww: d * ww, dp, machine.take_rows(w, rows_e)))
        fb = np.asarray(machine.map(lambda f, ww: f * ww, fb, w))

    dp_max = float(dp.max()) if dp.size else 0.0
    d1, d2, near_slot = _service_state(
        machine, indptr, cols, dp, fb, centers, n, dp_max
    )
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
            break
        ncand = candidates.size
        cand_local = np.full(n, -1, dtype=np.intp)
        cand_local[candidates] = np.arange(ncand)
        machine.ledger.charge_basic("map", n, depth=1)

        served = near_slot >= 0
        reassign = np.asarray(
            machine.scatter_add(
                np.where(served, d2 - d1, 0.0), np.where(served, near_slot, 0), k
            )
        )
        machine.ledger.charge_basic("map", n, depth=1)

        cl_e = np.asarray(machine.take_rows(cand_local, cols))
        valid_e = cl_e >= 0
        d1_e = np.asarray(machine.take_rows(d1, rows_e))
        g_e = np.asarray(machine.map(lambda d, b: np.minimum(0.0, d - b), dp, d1_e))
        G1 = np.asarray(
            machine.scatter_add(
                np.where(valid_e, g_e, 0.0), np.where(valid_e, cl_e, 0), ncand
            )
        )
        near_e = np.asarray(machine.take_rows(near_slot, rows_e))
        d2_e = np.asarray(machine.take_rows(d2, rows_e))
        c_e = np.asarray(
            machine.map(
                lambda d, b2, g: np.minimum(0.0, d - b2) - g, dp, d2_e, g_e
            )
        )
        corr_mask = valid_e & (near_e >= 0) & (c_e != 0.0)
        machine.ledger.charge_basic("map", max(dp.size, 1), depth=1)

        if k * ncand <= _body._SWAP_MATRIX_CAP:
            keys = near_e * ncand + cl_e
            Cflat = np.asarray(
                machine.scatter_add(
                    np.where(corr_mask, c_e, 0.0),
                    np.where(corr_mask, keys, 0),
                    k * ncand,
                )
            )
            delta = np.asarray(
                machine.map(
                    lambda r, g, cc: r + g + cc,
                    np.broadcast_to(reassign[:, None], (k, ncand)),
                    np.broadcast_to(G1[None, :], (k, ncand)),
                    Cflat.reshape(k, ncand),
                )
            )
            flat_best = int(machine.argmin(delta))
            a, c = divmod(flat_best, ncand)
            best = cost + float(delta[a, c])
        else:
            a, c, dbest = _grouped_best_swap(
                machine, reassign, G1, near_e, cl_e, c_e, corr_mask, ncand
            )
            best = cost + dbest

        if best < (1.0 - beta / k) * cost:
            swaps.append((int(centers[a]), int(candidates[c]), best))
            centers = np.sort(np.concatenate([np.delete(centers, a), [candidates[c]]]))
            d1, d2, near_slot = _service_state(
                machine, indptr, cols, dp, fb, centers, n, dp_max
            )
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
