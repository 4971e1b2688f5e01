"""§7 local search: the one swap-loop body, over CSR.

The Theorem 7.1 swap loop of :mod:`repro.core.local_search`, executed
on a :class:`~repro.metrics.sparse.SparseClusteringInstance` (a dense
instance arrives as its full CSR). The paper evaluates every swap
``(a ∈ S, c ∉ S)`` with an ``O(k·n²)``-work batch; here the batch
decomposes over the stored candidate edges so per-round work is
``O(nnz)`` plus the size of the swap table — ``O(n² + k·(n−k))`` on a
full CSR, and what takes local search to 100k-node kNN instances.

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
dense batch), large ones stay on the grouped edge list.

**Only touched rows are recomputed.** A swap ``S − a + c`` changes the
open set only for the rows that store ``a`` or ``c``. Each row's
``d1``/``d2``/serving center and each edge's two terms persist across
swaps; a swap recomputes them on those rows (plus the rows clamped to
the sentinel, which moves with the cost) and leaves every other row
alone. The sums keep their flat edge order, so every round computes
the bits a full recomputation would.

**Parity.** On a dense instance's full CSR the service state (``d1``,
``d2``, serving slots) is computed by segmented kernels that see
exactly the matrix columns, and the warm start consumes the same RNG
stream through the one k-center body — seeded solutions (centers, swap
pairs, costs, round counts) match the dense ``O(k·n²)`` batch kept as
the test suite's oracle. The decomposed swap sums may reassociate
relative to the batch's sums by an ulp, so swap-trace objectives can
differ from the oracle's in the last bits; on integer distances every
sum is exact and they agree bit for bit.
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


def _row_state(
    machine: PramMachine,
    indptr: np.ndarray,
    cols: np.ndarray,
    dp: np.ndarray,
    fb: np.ndarray,
    open_mask: np.ndarray,
):
    """Per-row best/second-best open service cost and serving center,
    over the rows whose segments ``indptr`` delimits in ``cols``/``dp``
    (every row, or the gathered segments of the rows a swap touched).

    Returns ``(d1, d2, near)`` before the sentinel clamp: the
    fallback-capped best cost, the cost once the serving center closes
    (``d1`` again for a fallback-served row, which keeps its cost
    whichever center closes), and the serving center's node id (``-1``
    when the fallback serves). Segmented min-reductions and a first-min
    argmin, none of which depends on which other rows are present, so a
    touched row's state is the one a full pass computes. Rows are never
    empty — the diagonal is always stored.
    """
    # ``cols`` comes from the validated structure, in range by
    # construction, so the gather is charged directly.
    open_e = open_mask[cols]
    machine.ledger.charge_basic("take_rows", max(cols.size, 1), depth=1)
    val = np.asarray(machine.where(open_e, dp, np.inf))
    d1s = np.asarray(machine.segmented_reduce(val, indptr, "min"))
    near_entry = machine.segmented_argmin(val, indptr)
    # Mask each row's serving entry and reduce again.
    val[near_entry] = np.inf
    machine.ledger.charge_basic("map", max(val.size, 1), depth=1)
    d2s = np.asarray(machine.segmented_reduce(val, indptr, "min"))
    served = np.isfinite(d1s) & (d1s <= fb)
    d1 = np.asarray(machine.map(np.minimum, d1s, fb))
    d2 = np.where(served, np.asarray(machine.map(np.minimum, d2s, fb)), d1)
    near = np.where(served, cols[near_entry], -1).astype(np.intp)
    return d1, d2, near


def _sentinel(d1: np.ndarray, dp_max: float) -> float:
    """The finite clamp for infinite service costs, strictly above any
    achievable objective: ``1 + Σ finite d1 + max dᵖ``.

    Infinite costs — a node with no open stored candidate and no finite
    fallback (``d1 = inf``), or no *second* open candidate (``d2 =
    inf``, e.g. ``k = 1``) — are clamped to it, so the swap
    decomposition never forms ``inf − inf`` or ``inf + -inf`` NaNs. The
    ordering of swap values is preserved: a swap that leaves such a
    node unserved carries a sentinel-sized delta (never chosen while any
    covering swap exists, and not an improvement otherwise), while a
    swap that covers the node contributes ``min(sentinel, d) = d``,
    identical to the unclamped math. The *returned* cost is always
    re-evaluated by the instance objective, so a genuinely unservable
    final state still reports ``inf``.
    """
    return 1.0 + float(d1[np.isfinite(d1)].sum()) + dp_max


def _grouped_best_swap(
    machine: PramMachine,
    reassign: np.ndarray,
    G1: np.ndarray,
    keys: np.ndarray,
    vals: np.ndarray,
    ncand: int,
):
    """Best swap without the k × |candidates| table.

    ``keys``/``vals`` are the nonzero corrections in flat edge order,
    keyed ``slot · ncand + candidate``. They are summed per key (sort +
    segmented sum over at most ``nnz`` edges); since corrections are
    ≤ 0, the global minimum is the better of the grouped minimum and
    ``argmin reassign + argmin G1``.
    """
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
    caller=None,
) -> ClusteringSolution:
    """The §7 swap loop (module docstring). ``caller`` is the instance
    the solution's cost is evaluated on (default ``instance``).

    The service state (``d1``, ``d2`` and the serving center's node id
    per row) and the per-edge terms ``g_e = min(0, dᵖ − d1)`` and
    ``c_e = min(0, dᵖ − d2) − g_e`` persist across swaps. Swapping
    ``a`` out and ``c`` in changes the open set only for the rows that
    store ``a`` or ``c`` — by symmetry, the columns of rows ``a`` and
    ``c`` — so only those rows are recomputed, and only their edges'
    terms, plus every row clamped to the sentinel when the sentinel
    moves. Serving slots and candidate indices are mapped from node ids
    once per round, in ``O(n)``.
    """
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
    open_mask = np.zeros(n, dtype=bool)
    open_mask[centers] = True
    # Unclamped state; d1/d2 are its clamp to the sentinel ``big``.
    d1u, d2u, near = _row_state(machine, indptr, cols, dp, fb, open_mask)
    big = _sentinel(d1u, dp_max)
    d1, d2 = np.minimum(d1u, big), np.minimum(d2u, big)
    machine.ledger.charge_basic("map", n, depth=1)

    def edge_terms(rows, pos, sub):
        """The terms and live flags — whether the term enters G1
        (resp. C) — of the edges at ``pos``: the whole segments of the
        rows ``rows``, delimited by ``sub`` (``slice(None)``,
        ``slice(None)`` and ``indptr`` for every edge: views, no
        nnz-sized gathers). Each row's state is spread over its
        segment.

        A dropped edge's term is an exact zero: ``g_e``/``c_e`` of ±0.0,
        or an edge into an open center, which the full pass scattered
        as +0.0. Every sum below starts from +0.0 and adds in flat edge
        order; a sum that starts at +0.0 is never -0.0 (x + (-x) and
        +0.0 + -0.0 are +0.0), and adding ±0.0 to anything else leaves
        its bits unchanged, so dropping these terms keeps every G1 and
        C sum bit-identical to the full pass.
        """
        lens = np.diff(sub)
        d = dp[pos]
        g = d - np.repeat(d1[rows], lens)
        np.minimum(0.0, g, out=g)
        c = d - np.repeat(d2[rows], lens)
        np.minimum(0.0, c, out=c)
        c -= g
        out = ~open_mask[cols[pos]]
        served = np.repeat(near[rows] >= 0, lens)
        machine.ledger.charge_basic("take_rows", max(4 * d.size, 1), depth=1)
        machine.ledger.charge_basic("map", max(4 * d.size, 1), depth=1)
        return g, c, out & (g != 0.0), out & served & (c != 0.0)

    g_e, c_e, g_live, c_live = edge_terms(slice(None), slice(None), indptr)
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
        candidates = np.flatnonzero(~open_mask)
        if candidates.size == 0:
            break  # k = n: every node is a center
        ncand = candidates.size
        cand_local = np.full(n, -1, dtype=np.intp)
        cand_local[candidates] = np.arange(ncand)
        slot = np.full(n, -1, dtype=np.intp)
        slot[centers] = np.arange(k)
        served = near >= 0
        near_slot = np.where(served, slot[near], -1)
        machine.ledger.charge_basic("map", n, depth=1)

        reassign = np.asarray(
            machine.scatter_add(
                np.where(served, d2 - d1, 0.0), np.where(served, near_slot, 0), k
            )
        )
        machine.ledger.charge_basic("map", n, depth=1)

        # Every gather index here and in edge_terms comes from the
        # validated structure, in range by construction, so the gathers
        # are charged directly instead of re-checked by take_rows.
        g_pos = np.flatnonzero(g_live)
        c_pos = np.flatnonzero(c_live)
        G1 = np.asarray(machine.scatter_add(g_e[g_pos], cand_local[cols[g_pos]], ncand))
        keys = near_slot[rows_e[c_pos]] * ncand + cand_local[cols[c_pos]]
        vals = c_e[c_pos]
        machine.ledger.charge_basic("pack", max(2 * dp.size, 1))
        machine.ledger.charge_basic(
            "take_rows", max(2 * g_pos.size + 3 * c_pos.size, 1), depth=1
        )
        machine.ledger.charge_basic("map", max(c_pos.size, 1), depth=1)

        if k * ncand <= _SWAP_MATRIX_CAP:
            Cflat = np.asarray(machine.scatter_add(vals, keys, k * ncand))
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
            a, c, dbest = _grouped_best_swap(machine, reassign, G1, keys, vals, ncand)
            best = cost + dbest

        if best < (1.0 - beta / k) * cost:
            out_node, in_node = int(centers[a]), int(candidates[c])
            swaps.append((out_node, in_node, best))
            centers = np.sort(np.concatenate([np.delete(centers, a), [in_node]]))
            open_mask[out_node], open_mask[in_node] = False, True
            # The rows that store a swapped node: the structure is
            # symmetric, so these are the columns of its own row.
            touched = np.union1d(
                cols[indptr[out_node]:indptr[out_node + 1]],
                cols[indptr[in_node]:indptr[in_node + 1]],
            )
            pos, sub = machine.segment_positions(indptr, touched)
            d1u[touched], d2u[touched], near[touched] = _row_state(
                machine, sub, cols[pos], dp[pos], fb[touched], open_mask
            )
            moved = _sentinel(d1u, dp_max)
            if moved != big:
                # Every row clamped to the old or the new sentinel
                # changes with it (d2u ≥ d1u, so one test covers both).
                clamped = np.flatnonzero(d2u >= min(big, moved))
                if clamped.size:
                    touched = np.union1d(touched, clamped)
                    pos, sub = machine.segment_positions(indptr, touched)
                big = moved
            d1, d2 = np.minimum(d1u, big), np.minimum(d2u, big)
            machine.ledger.charge_basic("map", n, depth=1)
            g_e[pos], c_e[pos], g_live[pos], c_live[pos] = edge_terms(touched, pos, sub)
            cost = best
        else:
            break

    caller = instance if caller is None else caller
    cost_fn = caller.kmedian_cost if objective == "kmedian" else caller.kmeans_cost
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
