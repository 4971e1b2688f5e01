"""§7 local search over sparse candidate structures.

The same Theorem 7.1 swap loop as :mod:`repro.core.local_search`,
executed on a :class:`~repro.metrics.sparse.SparseClusteringInstance`.
The dense path evaluates every swap ``(a ∈ S, c ∉ S)`` with an
``O(k·n²)``-work batch; here the batch decomposes over the stored
candidate edges so per-round work is ``O(nnz)`` (plus the size of the
swap table), which is what takes local search to 100k-node kNN
instances.

**The decomposition.** With ``d1/d2`` each node's best/second-best open
service cost (fallback-capped) and ``base_a(j) = d2(j)`` when center
slot ``a`` serves ``j`` else ``d1(j)``, the swap objective splits as::

    cost(S − a + c) = cost(S) + reassign(a) + G1(c) + C(a, c)

    reassign(a) = Σ_{j: slot(j)=a} (d2(j) − d1(j))          # scatter_add over nodes
    G1(c)       = Σ_{(j,c) stored} min(0, dᵖ(j,c) − d1(j))  # scatter_add over edges
    C(a, c)     = Σ_{(j,c) stored, slot(j)=a}
                    min(0, dᵖ(j,c) − d2(j)) − min(0, dᵖ(j,c) − d1(j))

All three are segmented scatter-combines over the CSR edge list; a node
pair never stored simply cannot serve (its contribution is the fallback
already inside ``d1/d2``). ``C ≤ 0`` entry-wise (``d2 ≥ d1``), so the
best swap is ``min`` over the union of (i) pairs with nonzero ``C``
(grouped per-key sums) and (ii) the unconstrained minimizer
``argmin reassign + argmin G1`` — small swap tables materialize the
full ``k × |candidates|`` matrix instead (same argmin order as the
dense path), large ones stay on the grouped edge list.

**Parity.** On dense-representable instances the service state
(``d1``, ``d2``, serving slots) is computed by segmented kernels that
see exactly the dense columns, and the warm start consumes the
identical RNG stream through the sparse k-center — seeded solutions
(centers, swap sequence, costs) match the dense path on every tested
workload. The decomposed swap sums may reassociate relative to the
dense batch sum by an ulp, which is why the equivalence suite asserts
the returned solutions, not intermediate floats.
"""

from __future__ import annotations

import numpy as np

from repro.core.local_search import _OBJECTIVE_POWER, _initial_centers
from repro.core.result import ClusteringSolution
from repro.errors import ConvergenceError
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.machine import PramMachine

# Above this many swap-table entries the per-round evaluation stays on
# the grouped edge list instead of materializing a k × |candidates|
# delta matrix (tests monkeypatch this to force the grouped path).
_SWAP_MATRIX_CAP = 1 << 23


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
    """Per-node best/second-best open service cost and serving slot.

    Returns ``(d1, d2, near_slot)``: fallback-capped best and
    removal-of-server costs, and the index into the sorted ``centers``
    array of each node's serving center (``-1`` when the fallback
    serves it). All segmented min-reductions over the CSR structure —
    ``O(nnz)``.

    Infinite service costs — a node with no open stored candidate and
    no finite fallback (``d1 = inf``), or no *second* open candidate
    (``d2 = inf``, e.g. ``k = 1``) — are clamped to a finite sentinel
    strictly above any achievable objective, so the swap decomposition
    never forms ``inf − inf`` or ``inf`` + ``-inf`` NaNs. The ordering
    of swap values is preserved: a swap that leaves such a node
    unserved carries a sentinel-sized delta (never chosen while any
    covering swap exists, and not an improvement otherwise), while a
    swap that covers the node contributes ``min(sentinel, d) = d``,
    identical to the unclamped math. The *returned* cost is always
    re-evaluated by the instance objective, so a genuinely unservable
    final state still reports ``inf``.
    """
    open_mask = np.zeros(n, dtype=bool)
    open_mask[centers] = True
    open_e = np.asarray(machine.take_rows(open_mask, cols))
    val = np.asarray(machine.where(open_e, dp, np.inf))
    d1s = np.asarray(machine.segmented_reduce(val, indptr, "min"))
    near_entry = machine.segmented_argmin(val, indptr)
    # Mask each node's serving entry and reduce again (rows are never
    # empty — the diagonal is always stored).
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
    # Fallback-served nodes keep their cost whichever center closes.
    d2 = np.where(served, d2, d1)
    # Finite sentinel above any achievable objective (see docstring).
    finite_d1 = d1[np.isfinite(d1)]
    big = 1.0 + float(finite_d1.sum()) + dp_max
    d1 = np.minimum(d1, big)
    d2 = np.minimum(d2, big)
    machine.ledger.charge_basic("map", n, depth=1)
    return d1, d2, near_slot


def _grouped_best_swap(
    machine: PramMachine,
    reassign: np.ndarray,
    G1: np.ndarray,
    near_e: np.ndarray,
    cl_e: np.ndarray,
    c_e: np.ndarray,
    mask: np.ndarray,
    ncand: int,
):
    """Best swap without the k × |candidates| table.

    Every pair with a nonzero correction is summed per ``(slot,
    candidate)`` key (sort + segmented sum over at most ``nnz`` edges);
    since corrections are ≤ 0, the global minimum is the better of the
    grouped minimum and ``argmin reassign + argmin G1``.
    """
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


def _parallel_local_search_sparse(
    instance: SparseClusteringInstance,
    objective: str,
    eps: float,
    machine: PramMachine,
    initial,
    cap: int,
) -> ClusteringSolution:
    """Sparse execution of the §7 swap loop (see module docstring)."""
    n, k = instance.n, instance.k
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
        # Node multiplicities scale every service cost of node j (its
        # CSR row and its fallback) by w_j, so each segmented sum below
        # is the weighted objective; per-row argmins are unchanged
        # (positive uniform scale within a row). Unit weights skip this
        # entirely — the unweighted code path stays byte-identical.
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
            break  # k = n: every node is a center
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

        if k * ncand <= _SWAP_MATRIX_CAP:
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
