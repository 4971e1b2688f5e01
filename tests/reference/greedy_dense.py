"""Test-only reference: the dense §4 greedy body.

The library runs one greedy body, the CSR one in
:mod:`repro.core.greedy_sparse`; a dense instance runs as its full CSR.
This module keeps an independent second implementation over the dense
matrix — a stable row presort, rectangular row packs of the live
sorted structure, ``|I| × |C_active|`` subselection submatrices and
row-sum degrees — as the oracle the equivalence suites compare the
shipped solver against, field for field. It shares only the solution
assembly with the CSR body and is not imported by ``src/``.

:func:`greedy_dense` mirrors :func:`repro.core.greedy.parallel_greedy`'s
signature and caps. The machine primitives that only this body used
(row sort, row gather, row pack, submatrix gather) are inlined as plain
NumPy: oracles are compared on answers, not on the ledger.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.greedy_sparse import _REL_TOL, _build_solution
from repro.core.result import FacilityLocationSolution
from repro.errors import ConvergenceError
from repro.metrics.instance import FacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon


def greedy_dense(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    preprocess: bool = True,
    max_outer_rounds: int | None = None,
    max_subselect_rounds: int | None = None,
) -> FacilityLocationSolution:
    """Algorithm 4.1 on the dense matrix (module docstring); mirrors
    :func:`repro.core.greedy.parallel_greedy`."""
    eps = check_epsilon(epsilon, upper=1.0)
    machine = ensure_machine(machine, seed=seed)
    m = max(instance.m, 2)
    outer_cap = max_outer_rounds if max_outer_rounds is not None else instance.n_clients + 8
    if max_subselect_rounds is not None:
        sub_cap = max_subselect_rounds
    else:
        sub_cap = 64 + 16 * math.ceil(math.log(m) / math.log1p(eps))
    return _parallel_greedy_dense(instance, eps, machine, preprocess, outer_cap, sub_cap)


def presort_distances(machine: PramMachine, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-time presort of the distance matrix.

    Returns ``(order, D_sorted)`` where ``order[i]`` is the ascending
    client permutation of facility ``i``'s row and ``D_sorted`` the
    reordered distances: the single sort the §4 analysis allows ("it
    also requires a single sort in the preprocessing").
    """
    order = np.argsort(D, axis=1, kind="stable")
    D_sorted = np.take_along_axis(D, order, axis=1)
    return order, D_sorted


def compact_sorted_columns(
    machine: PramMachine,
    sorted_ids: np.ndarray,
    sorted_d: np.ndarray,
    active: np.ndarray,
    sorted_w: np.ndarray | None = None,
) -> tuple:
    """Drop inactive clients from the presorted per-facility structure.

    ``sorted_ids``/``sorted_d`` hold each facility's remaining clients
    in ascending-distance order (initially the output of
    :func:`presort_distances`); ``active`` is the global client mask.
    Every row contains each client at most once, so removing a client
    set drops the same count per row and the pack stays rectangular.
    One map and one row pack over the *current* frontier — this is
    what keeps later rounds from paying for served clients.

    With ``sorted_w`` (the per-row client weights in the same sorted
    order, weighted instances only) a third packed array is returned.
    """
    keep = machine.map(lambda ids: np.asarray(active, dtype=bool)[ids], sorted_ids)
    rows = keep.shape[0]
    ids = sorted_ids[keep].reshape(rows, -1)
    d = sorted_d[keep].reshape(rows, -1)
    if sorted_w is None:
        return ids, d
    return ids, d, sorted_w[keep].reshape(rows, -1)


def cheapest_star_prices_compact(
    machine: PramMachine,
    live_d: np.ndarray,
    f_current: np.ndarray,
    live_w: np.ndarray | None = None,
) -> np.ndarray:
    """Price of the cheapest (maximal) star at every facility.

    ``live_d`` is the frontier-compacted ``n_f × |C_active|`` sorted
    distance matrix from :func:`compact_sorted_columns` (initially
    :func:`presort_distances`' ``D_sorted``). Every column is live, so
    the prefix count of a star's clients is the column index and the
    whole computation is one scan, one map, and one reduce over the
    remaining instance: ``prices[i] = min_k (f_i + Σ of the k closest
    active distances)/k``, ``+inf`` for every facility once no client
    is active.

    ``live_w`` (same layout, weighted instances only) switches the
    price to ``(f_i + Σ w·d) / Σ w`` over each prefix — the same
    exchange argument holds: for any weighted client budget the
    cheapest fill is ascending by distance.
    """
    nf, live = live_d.shape
    if live == 0:
        return np.full(nf, np.inf)
    if live_w is None:
        psum = machine.scan(live_d, "add", axis=1)
        rank = np.arange(1.0, live + 1.0)
        candidate = machine.map(
            lambda p, r, fc: (fc + p) / r,
            psum,
            rank[None, :],
            np.asarray(f_current, dtype=float)[:, None],
        )
        return machine.reduce(candidate, "min", axis=1)
    psum = machine.scan(machine.map(np.multiply, live_d, live_w), "add", axis=1)
    rank = machine.scan(live_w, "add", axis=1)
    candidate = machine.map(
        lambda p, r, fc: (fc + p) / np.where(r > 0, r, 1.0),
        psum,
        rank,
        np.asarray(f_current, dtype=float)[:, None],
    )
    return machine.reduce(candidate, "min", axis=1)


def _instance_gamma(machine: PramMachine, D: np.ndarray, f: np.ndarray) -> float:
    """Eq. (2) bound ``γ = max_j min_i (f_i + d(j, i))``."""
    total = machine.map(lambda d, ff: d + ff, D, np.broadcast_to(f[:, None], D.shape))
    gamma_j = machine.reduce(total, "min", axis=0)
    return float(machine.reduce(gamma_j, "max"))


def _apply_preprocessing(
    machine: PramMachine,
    D: np.ndarray,
    prices: np.ndarray,
    threshold: float,
    opened: np.ndarray,
    f_cur: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, int]:
    """§4 ``γ/m²`` preprocessing: open every star priced ≤ threshold.

    Mutates ``opened``/``active`` in place, returns the updated opening
    costs and the served-client count.
    """
    pre_open = machine.map(lambda p: p <= threshold * _REL_TOL, prices)
    preprocessed = 0
    if pre_open.any():
        # Star members (Fact 4.2(1)): active clients with d ≤ price.
        member = machine.map(
            lambda d, p, po: po & (d <= p * _REL_TOL),
            D,
            np.broadcast_to(prices[:, None], D.shape),
            np.broadcast_to(pre_open[:, None], D.shape),
        )
        served = machine.reduce(member, "or", axis=0)
        opened |= pre_open
        f_cur = machine.where(pre_open, 0.0, f_cur)
        active &= ~served
        preprocessed = int(served.sum())
    return f_cur, preprocessed


def _parallel_greedy_dense(
    instance: FacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    outer_cap: int,
    sub_cap: int,
) -> FacilityLocationSolution:
    """Dense execution on the frontier: per-round work ∝ remaining instance.

    * the presorted structure is packed to the live clients after every
      removal, so star pricing costs ``O(n_f · |C_active|)``;
    * the subselection graph is a dense ``|I| × |C_active|`` submatrix
      gathered per outer round; open/served/drop updates compact it
      further instead of masking a full matrix;
    * votes are a segmented :meth:`~repro.pram.machine.PramMachine.count_votes`
      over client choices — ``O(|C_active|)``, with no vote matrix.

    Random priorities are drawn over the full facility set each
    subselection round, which keeps the RNG stream — and therefore every
    decision — bit-identical to the CSR path.
    """
    D = instance.D
    f_cur = instance.f.astype(float).copy()
    nf, nc = D.shape
    m = max(instance.m, 2)
    # Client multiplicities generalize star prices to (f + Σwd)/Σw and
    # subselection degrees/votes to weighted sums; None keeps the exact
    # unweighted code path (byte-identical seeded runs).
    w = None if instance.has_unit_weights else instance.client_weights

    start = machine.snapshot()
    order, D_sorted = presort_distances(machine, D)
    active = np.ones(nc, dtype=bool)
    opened = np.zeros(nf, dtype=bool)
    alpha = np.zeros(nc, dtype=float)
    tau_trace: list[float] = []
    gamma = _instance_gamma(machine, D, instance.f.astype(float))
    preprocessed = 0

    # Live-frontier sorted structure: each facility's remaining clients
    # in ascending-distance order (ids + distances, plus weights on
    # weighted instances).
    live_ids, live_d = order, D_sorted
    live_w = (
        None
        if w is None
        else np.take_along_axis(np.broadcast_to(w, D_sorted.shape), order, axis=1)
    )

    def _compact_live_structure():
        nonlocal live_ids, live_d, live_w
        if live_w is None:
            live_ids, live_d = compact_sorted_columns(machine, live_ids, live_d, active)
        else:
            live_ids, live_d, live_w = compact_sorted_columns(
                machine, live_ids, live_d, active, sorted_w=live_w
            )

    if preprocess:
        prices = cheapest_star_prices_compact(machine, live_d, f_cur, live_w)
        f_cur, preprocessed = _apply_preprocessing(
            machine, D, prices, gamma / (m * m), opened, f_cur, active
        )
        if preprocessed:
            _compact_live_structure()

    while active.any():
        outer = machine.bump_round("greedy_outer")
        if outer > outer_cap:
            raise ConvergenceError(
                f"greedy exceeded {outer_cap} outer rounds (m={m}, eps={eps})"
            )
        prices = cheapest_star_prices_compact(machine, live_d, f_cur, live_w)
        tau = float(machine.reduce(prices, "min"))
        tau_trace.append(tau)
        cut = tau * (1.0 + eps) * _REL_TOL

        # Frontier index sets: admitted facilities × active clients.
        adm = np.flatnonzero(machine.map(lambda p: p <= cut, prices))
        act = np.flatnonzero(active)
        w_act = None if w is None else machine.take_rows(w, act)
        D_sub = D[np.ix_(adm, act)]
        E_sub = machine.map(lambda d: d <= cut, D_sub)
        any_served = False

        sub = 0
        while True:
            if w_act is None:
                deg = machine.reduce(E_sub.astype(float), "add", axis=1)
            else:
                deg = machine.reduce(
                    machine.where(E_sub, w_act[None, :], 0.0), "add", axis=1
                )
            row_keep = machine.map(lambda dg: dg > 0, deg)
            if not row_keep.all():
                keep_idx = np.flatnonzero(row_keep)
                adm = adm[keep_idx]
                deg = deg[keep_idx]
                E_sub = machine.take_rows(E_sub, keep_idx)
                D_sub = machine.take_rows(D_sub, keep_idx)
            if adm.size == 0:
                break
            sub += 1
            machine.bump_round("greedy_subselect")
            if sub > sub_cap:
                raise ConvergenceError(
                    f"greedy subselection exceeded {sub_cap} rounds (m={m}, eps={eps})"
                )

            # 4(a–b): the permutation is drawn over *all* facilities
            # (RNG parity with the CSR path); only the admitted rows'
            # priorities are consumed.
            Pi = machine.random_priorities(nf).astype(float)
            pi_adm = machine.take_rows(Pi, adm)
            col_priorities = machine.where(E_sub, pi_adm[:, None], np.inf)
            phi = machine.argmin(col_priorities, axis=0)
            has_edge = machine.reduce(E_sub, "or", axis=0)

            # 4(c): segmented vote count — O(|C_active|), no vote matrix.
            if w_act is None:
                votes = machine.count_votes(phi, adm.size, mask=has_edge).astype(float)
            else:
                votes = np.asarray(
                    machine.scatter_add(
                        np.where(has_edge, w_act, 0.0),
                        np.where(has_edge, phi, 0),
                        adm.size,
                    )
                )
            open_now = machine.map(
                lambda v, dg: (dg > 0) & (v * (2.0 * (1.0 + eps)) >= dg * (1.0 - 1e-12)),
                votes,
                deg,
            )
            if open_now.any():
                served_local = machine.reduce(
                    machine.where(E_sub, open_now[:, None], False), "or", axis=0
                )
                opened_ids = adm[open_now]
                served_ids = act[served_local]
                opened[opened_ids] = True
                f_cur[opened_ids] = 0.0
                alpha[served_ids] = tau
                active[served_ids] = False
                machine.ledger.charge_basic(
                    "scatter", opened_ids.size + 2 * served_ids.size, depth=1
                )
                any_served = any_served or served_ids.size > 0
                row_keep_idx = np.flatnonzero(~open_now)
                col_keep_idx = np.flatnonzero(~served_local)
                adm = adm[row_keep_idx]
                act = act[col_keep_idx]
                if w_act is not None:
                    w_act = w_act[col_keep_idx]
                E_sub = E_sub[np.ix_(row_keep_idx, col_keep_idx)]
                D_sub = D_sub[np.ix_(row_keep_idx, col_keep_idx)]

            # 4(d): drop facilities whose reduced star price exceeds the cut.
            if w_act is None:
                wsum = machine.reduce(machine.where(E_sub, D_sub, 0.0), "add", axis=1)
                deg_now = machine.reduce(E_sub.astype(float), "add", axis=1)
            else:
                wsum = machine.reduce(
                    machine.where(
                        E_sub, machine.map(lambda d, ww: d * ww, D_sub, w_act[None, :]), 0.0
                    ),
                    "add",
                    axis=1,
                )
                deg_now = machine.reduce(
                    machine.where(E_sub, w_act[None, :], 0.0), "add", axis=1
                )
            fc = machine.take_rows(f_cur, adm)
            drop = machine.map(
                lambda dg, ws, fcv: (dg > 0) & ((fcv + ws) > cut * dg * _REL_TOL),
                deg_now,
                wsum,
                fc,
            )
            if drop.any():
                keep_idx = np.flatnonzero(~drop)
                adm = adm[keep_idx]
                E_sub = machine.take_rows(E_sub, keep_idx)
                D_sub = machine.take_rows(D_sub, keep_idx)

        if any_served:
            _compact_live_structure()

    return _build_solution(
        instance, machine, start, opened, alpha, gamma, tau_trace, preprocessed, eps
    )
