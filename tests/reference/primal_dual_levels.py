"""Test-only reference: the level-by-level CSR §5 primal–dual loop.

The library's body in :mod:`repro.core.primal_dual_sparse` finds each
epoch's next eventful level — an opening, a freeze or the exhaustion
rule — and runs the level body only there. This module keeps the loop
it replaced, which runs the body at every level of the schedule, as
the oracle for the inputs only a CSR body takes: finite fallback
columns (kNN- and threshold-truncated instances, where clients can
freeze from level 1), rows stored out of column order, and small
``max_iterations``. It is not imported by ``src/``; it shares only the
γ bound and the §3 post-processing with the library. It keeps its own
bucketing: the frontier edges keyed by level and counting-sorted
(:func:`group_by_key`), where the library slices one distance order.

:func:`primal_dual_levels` mirrors
:func:`repro.core.primal_dual.parallel_primal_dual`'s signature;
:func:`kmedian_lagrangian_levels` runs the Lagrangian k-median's price
search with it on a sparse clustering instance's relaxation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.greedy_sparse import _sparse_gamma
from repro.core.primal_dual import _iteration_cap
from repro.core.primal_dual_sparse import _finish_sparse
from repro.core.result import ClusteringSolution, FacilityLocationSolution
from repro.errors import ConvergenceError
from repro.metrics.sparse import SparseClusteringInstance, SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.csr import csr_transpose
from repro.util.validation import check_epsilon
from tests.reference.primal_dual_dense import lagrangian_search

_REL_TOL = 1.0 + 1e-12


def primal_dual_levels(
    instance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    preprocess: bool = True,
    max_iterations: int | None = None,
) -> FacilityLocationSolution:
    """Algorithm 5.1, every level run in turn (see the module docstring)."""
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, seed=seed)
    iter_cap = _iteration_cap(instance, eps, max_iterations)
    sparse = (
        instance
        if isinstance(instance, SparseFacilityLocationInstance)
        else SparseFacilityLocationInstance.from_instance(instance)
    )
    return _levels(sparse, eps, machine, preprocess, iter_cap, instance)


def kmedian_lagrangian_levels(
    instance: SparseClusteringInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    max_probes: int = 40,
) -> ClusteringSolution:
    """The Lagrangian k-median price search, each probe solved by
    :func:`primal_dual_levels` on a freshly built facility-location
    relaxation of ``instance``'s candidate structure and fallback."""
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, seed=seed)
    n = instance.n
    weights = None if instance.has_unit_weights else instance.weights

    def probe(lam: float) -> np.ndarray:
        fl = SparseFacilityLocationInstance(
            instance.indptr, instance.indices, instance.data, np.full(n, lam),
            n_clients=n, fallback=instance.fallback, client_weights=weights,
        )
        return primal_dual_levels(fl, epsilon=eps, machine=machine).opened

    return lagrangian_search(instance, probe, machine, max_probes)


def _levels(
    instance: SparseFacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    iter_cap: int,
    caller,
) -> FacilityLocationSolution:
    """Algorithm 5.1 with the level body run at every level in turn.

    ``caller`` is the instance the solution is reported on — ``instance``
    itself, or the dense instance it was converted from, whose costs
    are then evaluated on its own matrix and whose ``extra["H"]`` is a
    dense boolean array.
    """
    nf, nc = instance.n_facilities, instance.n_clients
    f = instance.f.astype(float)
    data, indices, indptr = instance.data, instance.indices, instance.indptr
    rows = instance.rows_flat()
    m = max(instance.m, 2)
    # Client multiplicities scale each client's payment contribution
    # (see repro.core.primal_dual); None = exact unweighted code path.
    w = None if instance.has_unit_weights else instance.client_weights

    start = machine.snapshot()
    gamma = _sparse_gamma(machine, instance)
    base = gamma / (m * m) if gamma > 0 else 0.0

    alpha = np.zeros(nc, dtype=float)
    frozen = np.zeros(nc, dtype=bool)
    free_open = np.zeros(nf, dtype=bool)  # F0
    tent_open = np.zeros(nf, dtype=bool)  # F_T
    H_mask = np.zeros(instance.nnz, dtype=bool)
    paid_frozen = np.zeros(nf, dtype=float)
    # The fallback column is a virtual always-open facility: clients can
    # freeze against it even before anything real opens. On dense-
    # representable instances it is +inf and never fires.
    dmin_open = instance.fallback.astype(float).copy()
    fallback_live = bool(np.any(np.isfinite(dmin_open)))

    if preprocess or gamma == 0.0:
        pay0 = np.asarray(
            machine.map(lambda d: np.maximum(0.0, base * _REL_TOL - d), data)
        )
        if w is not None:
            pay0 = np.asarray(
                machine.map(lambda p, ww: p * ww, pay0, machine.take_rows(w, indices))
            )
        paid0 = machine.scatter_add(pay0, rows, nf)
        free_open = np.asarray(machine.map(lambda p, ff: p >= ff / _REL_TOL, paid0, f))
        if free_open.any():
            near = np.asarray(
                machine.map(
                    lambda d, fo: fo & (d <= base * _REL_TOL),
                    data,
                    machine.take_rows(free_open, rows),
                )
            )
            freely = machine.count_votes(indices, nc, mask=near) > 0
            frozen |= freely  # α stays 0 for freely connected clients
            fo_idx = np.flatnonzero(free_open)
            pos0, _ = machine.segment_positions(indptr, fo_idx)
            dnew = machine.scatter_min(
                machine.take_rows(data, pos0), machine.take_rows(indices, pos0), nc
            )
            dmin_open = np.asarray(machine.map(np.minimum, dmin_open, dnew))

    if gamma == 0.0:
        frozen[:] = True

    # Free facilities and freely connected clients never rejoin the
    # frontier, so the level buckets cover the edges between the rest.
    frontier = np.asarray(
        machine.map(
            lambda fo, fr: ~(fo | fr),
            machine.take_rows(free_open, rows),
            machine.take_rows(frozen, indices),
        )
    )
    bucket_ptr, bucket = _paying_buckets(
        machine, data, machine.pack(np.arange(instance.nnz), frontier), base, eps, iter_cap
    )

    iterations = 0
    loc = np.zeros(nf, dtype=np.intp)  # closed facility -> its frontier row
    # The paying set in CSR flat order: per edge its flat position,
    # distance, frontier row and (weighted instances) client weight.
    pay = {"pos": np.zeros(0, dtype=np.intp), "d": np.zeros(0), "loc": np.zeros(0, dtype=np.intp)}
    if w is not None:
        pay["w"] = np.zeros(0)
    moved = True
    while not frozen.all():
        iterations += 1
        machine.bump_round("pd_iterations")
        if iterations > iter_cap:
            raise ConvergenceError(
                f"primal–dual exceeded {iter_cap} iterations (m={m}, eps={eps})"
            )
        t = base * (1.0 + eps) ** (iterations - 1) if base > 0 else 0.0
        c = (1.0 + eps) * t

        if moved:
            # A facility opened or a client froze since the last level:
            # drop the paying edges that left the frontier and re-gather
            # the per-epoch caches.
            unfro = np.flatnonzero(~frozen)
            closed = np.flatnonzero(~(free_open | tent_open))
            loc[closed] = np.arange(closed.size)
            pay_rows = machine.take_rows(rows, pay["pos"])
            stay = np.asarray(
                machine.map(
                    lambda to, fr: ~(to | fr),
                    machine.take_rows(tent_open, pay_rows),
                    machine.take_rows(frozen, machine.take_rows(indices, pay["pos"])),
                )
            )
            pay = {key: machine.pack(col, stay) for key, col in pay.items() if key != "loc"}
            pay["loc"] = machine.take_rows(loc, machine.pack(pay_rows, stay))
            f_closed = machine.take_rows(f, closed)
            paid_closed = machine.take_rows(paid_frozen, closed)
            dmin_unfro = machine.take_rows(dmin_open, unfro)
            moved = False

        # Edges that start paying at this level: those into closed
        # facilities join the paying set, those into older tentative
        # ones are their new H edges.
        if iterations < bucket_ptr.size and bucket_ptr[iterations] > bucket_ptr[iterations - 1]:
            new = bucket[bucket_ptr[iterations - 1] : bucket_ptr[iterations]]
            new = machine.pack(
                new, ~machine.take_rows(frozen, machine.take_rows(indices, new))
            )
            new_rows = machine.take_rows(rows, new)
            to_tent = machine.take_rows(tent_open, new_rows)
            H_mask[new[to_tent]] = True
            new, new_rows = new[~to_tent], new_rows[~to_tent]
            if new.size:
                added = {
                    "pos": new,
                    "d": machine.take_rows(data, new),
                    "loc": machine.take_rows(loc, new_rows),
                }
                if w is not None:
                    added["w"] = machine.take_rows(w, machine.take_rows(indices, new))
                pay = _merge_sorted(machine, pay, added)

        # Step 1: raise unfrozen duals to the schedule level.
        alpha[unfro] = t
        machine.ledger.charge_basic("scatter", max(unfro.size, 1), depth=1)

        # Step 2: live payments over the paying set; frozen clients are
        # already folded into paid_frozen, which is the whole payment
        # while no edge pays.
        paid = paid_closed
        if pay["pos"].size:
            live = machine.masked_axpy(-1.0, pay["d"], c, clamp_min=0.0)
            if w is not None:
                live = machine.map(lambda lv, ww: lv * ww, live, pay["w"])
            paid = machine.map(
                lambda fr, lv: fr + lv,
                paid_closed,
                machine.scatter_add(np.asarray(live), pay["loc"], closed.size),
            )
        openable = np.asarray(
            machine.map(lambda p, ff: p * _REL_TOL >= ff, paid, f_closed)
        )
        new_open = closed[openable]
        tent_open[new_open] = True
        machine.ledger.charge_basic("scatter", max(new_open.size, 1), depth=1)

        # Step 3: freeze unfrozen clients reaching any open facility
        # (real or fallback), via the maintained nearest-open distance.
        if new_open.size:
            pos2, _ = machine.segment_positions(indptr, new_open)
            dnew = machine.scatter_min(
                machine.take_rows(data, pos2), machine.take_rows(indices, pos2), nc
            )
            dmin_open = np.asarray(machine.map(np.minimum, dmin_open, dnew))
            dmin_unfro = machine.take_rows(dmin_open, unfro)
        newly_frozen = np.zeros(0, dtype=np.intp)
        if free_open.any() or tent_open.any() or fallback_live:
            # alpha[unfro] == t, so (1+ε)α_j is c for every unfrozen j.
            reach = np.asarray(
                machine.map(lambda dm: c * _REL_TOL >= dm, dmin_unfro)
            )
            newly_frozen = unfro[reach]
            frozen[newly_frozen] = True
            machine.ledger.charge_basic("scatter", max(newly_frozen.size, 1), depth=1)

        # Step 4: H edges of newly opened facilities — their full
        # candidate rows, at every client's current α.
        if new_open.size:
            H_mask[pos2] = np.asarray(
                machine.map(
                    lambda d, a: (1.0 + eps) * a > d,
                    machine.take_rows(data, pos2),
                    machine.take_rows(alpha, machine.take_rows(indices, pos2)),
                )
            )

        # Fold the payments of clients frozen this level into the
        # per-facility running totals (their α is now final). Every
        # nonzero term is on the paying set.
        if newly_frozen.size and pay["pos"].size:
            cols = machine.take_rows(indices, pay["pos"])
            done = machine.take_rows(frozen, cols)
            paid_frozen = np.asarray(
                machine.map(
                    lambda pf, s: pf + s,
                    paid_frozen,
                    _fold_sums(
                        machine,
                        machine.pack(live, done),
                        machine.pack(machine.take_rows(rows, pay["pos"]), done),
                        machine.pack(cols, done),
                        nf,
                    ),
                )
            )

        # Exhaustion rule: if every facility is open but clients remain
        # unfrozen, connect them directly (α_j = min over candidates,
        # capped by the fallback — all folded into dmin_open).
        if not frozen.all() and bool(np.all(free_open | tent_open)):
            still = np.flatnonzero(~frozen)
            alpha[still] = np.maximum(machine.take_rows(dmin_open, still), alpha[still])
            machine.ledger.charge_basic("scatter", max(still.size, 1), depth=1)
            frozen[:] = True
            tent_idx = np.flatnonzero(tent_open)
            if tent_idx.size and still.size:
                pos5, _ = machine.segment_positions(indptr, tent_idx)
                sm = np.zeros(nc, dtype=bool)
                sm[still] = True
                H_mask[pos5] |= np.asarray(
                    machine.map(
                        lambda d, s, a: s & ((1.0 + eps) * a > d),
                        machine.take_rows(data, pos5),
                        machine.take_rows(sm, machine.take_rows(indices, pos5)),
                        machine.take_rows(alpha, machine.take_rows(indices, pos5)),
                    )
                )
        moved = bool(new_open.size or newly_frozen.size)

    return _finish_sparse(
        instance, caller, machine, start, gamma, eps, alpha, free_open, tent_open, H_mask, f
    )


def _paying_buckets(
    machine: PramMachine,
    data: np.ndarray,
    edges: np.ndarray,
    base: float,
    eps: float,
    iter_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Counting-sort ``edges`` (flat positions, ascending) by the level
    at which they start paying.

    Edge ``e`` starts paying at the first level ``ℓ`` with
    ``d_e < (1+ε)·t_ℓ``. Returns ``(bucket_ptr, bucket)``: level ``ℓ``'s
    edges, ascending, are ``bucket[bucket_ptr[ℓ-1]:bucket_ptr[ℓ]]``.
    The thresholds are the loop's own float expressions, listed until
    one exceeds every edge's distance — sized by the data, and cut at
    the iteration cap, past which the loop raises; edges never reached
    are dropped.
    """
    d = machine.take_rows(data, edges)
    dmax = float(d.max()) if d.size else -np.inf
    levels: list[float] = []
    while len(levels) < iter_cap and (not levels or 0.0 < levels[-1] <= dmax):
        levels.append((1.0 + eps) * (base * (1.0 + eps) ** len(levels)))
    if not levels:  # a cap below 1: the loop raises before any level
        return np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp)
    # pow is accurate to an ulp, so the thresholds ascend for every ε
    # whose schedule can finish; the running max makes "the first level
    # whose threshold exceeds d" exact regardless.
    thresholds = np.maximum.accumulate(np.asarray(levels))
    key = machine.map(lambda dd: _levels_at_or_below(thresholds, dd, eps), d)
    reached = key < thresholds.size
    key = machine.pack(key, reached)
    bucket_ptr, order = group_by_key(key, thresholds.size)
    machine.ledger.charge_basic("counting_sort", max(key.size + thresholds.size, 1))
    return bucket_ptr, machine.take_rows(machine.pack(edges, reached), order)


def _levels_at_or_below(thresholds: np.ndarray, d: np.ndarray, eps: float) -> np.ndarray:
    """Per distance, the number of (ascending) thresholds ``<= d`` — an
    edge at distance ``d`` starts paying at that level plus one.

    The geometric schedule gives a log estimate, exact but for rounding
    near a threshold; each key then steps until its thresholds bracket
    its distance (one pass in practice, against the exact thresholds).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(np.log(d / thresholds[0]) / math.log1p(eps)) + 1
    key = np.clip(np.nan_to_num(est, nan=0.0), 0, thresholds.size).astype(np.intp)
    bounds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    while True:
        step = (d >= bounds[key + 1]).astype(np.intp) - (d < bounds[key])
        if not step.any():
            return key
        key += step


def group_by_key(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable counting sort of positions by an integer key in ``[0, n_keys)``.

    Returns ``(indptr, order)``: ``order`` lists the positions of
    ``keys`` by ascending key, ascending within a key, and
    ``order[indptr[k]:indptr[k+1]]`` are key ``k``'s positions — the
    transpose of a one-row structure. ``O(len(keys) + n_keys)``.
    """
    keys = np.asarray(keys, dtype=np.intp)
    indptr, _, order = csr_transpose(np.array([0, keys.size]), keys, n_keys)
    return indptr, order


def _fold_sums(
    machine: PramMachine, terms: np.ndarray, rows: np.ndarray, cols: np.ndarray, nf: int
) -> np.ndarray:
    """Per-facility sums of ``terms`` (edge ``k`` in row ``rows[k]``,
    column ``cols[k]``), each facility adding its terms in ascending
    client order — the order of a client-major pass, whatever order a
    row stores its columns in."""
    order = np.lexsort((cols, rows))
    machine.ledger.charge_sort("fold_order", order.size, order.size)
    return machine.scatter_add(
        machine.take_rows(terms, order), machine.take_rows(rows, order), nf
    )


def _merge_sorted(machine: PramMachine, pay: dict, added: dict) -> dict:
    """Merge ``added`` into ``pay``: two edge sets with the same columns,
    each ascending in its ``"pos"`` column, with disjoint positions."""
    slots = np.searchsorted(pay["pos"], added["pos"]) + np.arange(added["pos"].size)
    n = pay["pos"].size + added["pos"].size
    old = np.ones(n, dtype=bool)
    old[slots] = False
    merged = {}
    for key, col in pay.items():
        merged[key] = np.empty(n, dtype=col.dtype)
        merged[key][old] = col
        merged[key][slots] = added[key]
    machine.ledger.charge_basic("merge", n * len(merged))
    return merged
