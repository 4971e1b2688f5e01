"""§4 greedy facility location: the one body, over CSR candidate structures.

Algorithm 4.1 (see :mod:`repro.core.greedy`) executed on a
:class:`~repro.metrics.sparse.SparseFacilityLocationInstance`: every
per-round computation runs over CSR segments of the *candidate* edges,
so work per round is ``O(nnz(frontier rows))`` — the paper's input-size
parameter ``m`` is the edge count here, exactly as the Lemma 3.1 remark
("for sparse matrices … this can easily be improved") invites. A dense
instance runs as its full CSR, so ``nnz = n_f · n_c`` and a round costs
the §4 ``O(m)`` over the remaining instance.

* the live sorted structure holds each facility's *remaining* candidate
  clients ascending by distance (one
  :meth:`~repro.pram.machine.PramMachine.argsort_segments` presort),
  packed after every removal round;
* star prices are a segmented prefix sum + segmented min over it
  (:meth:`~repro.pram.machine.PramMachine.segmented_scan` /
  :meth:`~repro.pram.machine.PramMachine.segmented_reduce`);
* the subselection graph is an explicit edge list (local facility id,
  client id, distance) carved by a frontier-restricted segment gather
  and compacted in place; votes, degrees, and neighborhood sums are
  ``count_votes`` / ``scatter_add`` combines over it.

The subselection permutation is drawn over the full facility set each
round, so the RNG stream does not depend on which facilities are still
admitted. Clients with no candidate facility are never active: they pay
their fallback cost in the objective regardless of what opens, and
their dual ``α`` stays 0. The dense matrix body is kept under
``tests/reference/greedy_dense.py`` as the test suite's oracle; on a
dense instance the two return the same seeded solution, field for field.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import FacilityLocationSolution
from repro.errors import ConvergenceError
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine

_REL_TOL = 1.0 + 1e-12  # float-safe threshold comparisons


def _build_solution(
    instance,
    machine: PramMachine,
    start,
    opened: np.ndarray,
    alpha: np.ndarray,
    gamma: float,
    tau_trace: list,
    preprocessed: int,
    eps: float,
) -> FacilityLocationSolution:
    """Assemble the §4 solution object, evaluated on ``instance``."""
    opened_idx = np.flatnonzero(opened)
    return FacilityLocationSolution(
        opened=opened_idx,
        cost=instance.cost(opened_idx),
        facility_cost=instance.facility_cost(opened_idx),
        connection_cost=instance.connection_cost(opened_idx),
        alpha=alpha,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "gamma": gamma,
            "tau_trace": tau_trace,
            "preprocessed_clients": preprocessed,
            "epsilon": eps,
        },
    )


def _sparse_gamma(machine: PramMachine, inst: SparseFacilityLocationInstance) -> float:
    """Eq. (2) bound ``γ = max_j min(fallback_j, min_i (f_i + d(j,i)))``
    over candidate edges only — ``O(nnz)`` work."""
    rows = inst.rows_flat()
    total = machine.map(
        lambda d, fe: d + fe, inst.data, machine.take_rows(inst.f.astype(float), rows)
    )
    gamma_j = machine.scatter_min(total, inst.indices, inst.n_clients)
    gamma_j = machine.map(np.minimum, gamma_j, inst.fallback)
    return float(machine.reduce(gamma_j, "max"))


def _star_prices_sparse(
    machine: PramMachine,
    live_d: np.ndarray,
    live_indptr: np.ndarray,
    f_cur: np.ndarray,
    live_w: np.ndarray | None = None,
) -> np.ndarray:
    """Cheapest-maximal-star price per facility over the live sorted
    structure: ``min_k (f_i + Σ of k closest remaining distances)/k``,
    ``+inf`` for facilities with no remaining candidate.

    One segmented scan, one map, one segmented min — ``O(nnz(live))``.

    ``live_w`` (per-edge client weights in the same layout, weighted
    instances only) switches the price to ``(f_i + Σ w·d) / Σ w`` over
    each ascending-distance prefix.
    """
    if live_w is not None:
        psum = machine.segmented_scan(
            np.asarray(machine.map(np.multiply, live_d, live_w)), live_indptr, "add"
        )
        rank = machine.segmented_scan(live_w, live_indptr, "add")
        fc = machine.segment_spread(np.asarray(f_cur, dtype=float), live_indptr)
        candidate = machine.map(
            lambda p, r, ff: (ff + p) / np.where(r > 0, r, 1.0), psum, rank, fc
        )
        return machine.segmented_reduce(candidate, live_indptr, "min")
    starts = machine.segment_spread(live_indptr[:-1].astype(float), live_indptr)
    psum = machine.segmented_scan(live_d, live_indptr, "add")
    rank = machine.map(
        lambda p, s: p - s + 1.0, np.arange(live_d.size, dtype=float), starts
    )
    fc = machine.segment_spread(np.asarray(f_cur, dtype=float), live_indptr)
    candidate = machine.map(lambda p, r, ff: (ff + p) / r, psum, rank, fc)
    return machine.segmented_reduce(candidate, live_indptr, "min")


def _compact_live(
    machine: PramMachine,
    l_cols: np.ndarray,
    l_d: np.ndarray,
    l_indptr: np.ndarray,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop inactive clients from the live sorted structure —
    ``O(nnz(live))``."""
    nf = l_indptr.size - 1
    keep = np.asarray(machine.map(lambda ids: active[ids], l_cols))
    counts = machine.count_votes(
        machine.segment_spread(np.arange(nf), l_indptr), nf, mask=keep
    )
    l_cols = machine.pack(l_cols, keep)
    l_d = machine.pack(l_d, keep)
    l_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    return l_cols, l_d, l_indptr


def _pack_edges(machine, keep, *edge_arrays):
    """Compact every per-edge array by the same boolean mask."""
    return tuple(machine.pack(arr, keep) for arr in edge_arrays)


def _parallel_greedy_sparse(
    instance: SparseFacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    outer_cap: int,
    sub_cap: int,
    report,
) -> FacilityLocationSolution:
    """Algorithm 4.1 over the CSR structure (see module docstring); the
    solution is evaluated on ``report``, the caller's instance."""
    nf, nc = instance.n_facilities, instance.n_clients
    f_cur = instance.f.astype(float).copy()
    m = max(instance.m, 2)
    # Client multiplicities generalize star prices to (f + Σwd)/Σw and
    # degrees/votes to weighted sums; None keeps the exact unweighted
    # code path (byte-identical seeded runs).
    w = None if instance.has_unit_weights else instance.client_weights

    start = machine.snapshot()
    # One-time presort of each facility's candidate segment by distance
    # (the §4 "single sort in the preprocessing").
    perm = machine.argsort_segments(instance.data, instance.indptr)
    l_d = machine.take_rows(instance.data, perm)
    l_cols = machine.take_rows(instance.indices, perm)
    l_indptr = np.asarray(instance.indptr, dtype=np.intp)

    covered = np.zeros(nc, dtype=bool)
    covered[instance.indices] = True
    active = covered.copy()  # clients with no candidate pay fallback; never active
    opened = np.zeros(nf, dtype=bool)
    alpha = np.zeros(nc, dtype=float)
    tau_trace: list[float] = []
    gamma = _sparse_gamma(machine, instance)
    preprocessed = 0

    if preprocess:
        l_w = None if w is None else np.asarray(machine.take_rows(w, l_cols))
        prices = _star_prices_sparse(machine, l_d, l_indptr, f_cur, l_w)
        threshold = gamma / (m * m)
        pre_open = np.asarray(machine.map(lambda p: p <= threshold * _REL_TOL, prices))
        if pre_open.any():
            rows = instance.rows_flat()
            member = np.asarray(
                machine.map(
                    lambda d, p, po: po & (d <= p * _REL_TOL),
                    instance.data,
                    machine.take_rows(prices, rows),
                    machine.take_rows(pre_open, rows),
                )
            )
            served = machine.count_votes(instance.indices, nc, mask=member) > 0
            opened |= pre_open
            f_cur = np.asarray(machine.where(pre_open, 0.0, f_cur))
            active &= ~served
            preprocessed = int(served.sum())
            if preprocessed:
                l_cols, l_d, l_indptr = _compact_live(
                    machine, l_cols, l_d, l_indptr, active
                )

    while active.any():
        outer = machine.bump_round("greedy_outer")
        if outer > outer_cap:
            raise ConvergenceError(
                f"greedy exceeded {outer_cap} outer rounds (m={m}, eps={eps})"
            )
        l_w = None if w is None else np.asarray(machine.take_rows(w, l_cols))
        prices = _star_prices_sparse(machine, l_d, l_indptr, f_cur, l_w)
        tau = float(machine.reduce(prices, "min"))
        tau_trace.append(tau)
        cut = tau * (1.0 + eps) * _REL_TOL

        # Subselection graph: admitted facilities' candidate edges with
        # d ≤ cut (the live structure already holds only active clients).
        adm = np.flatnonzero(np.asarray(machine.map(lambda p: p <= cut, prices)))
        pos, sub_indptr = machine.segment_positions(l_indptr, adm)
        e_d = machine.take_rows(l_d, pos)
        e_col = machine.take_rows(l_cols, pos)
        e_row = machine.segment_spread(np.arange(adm.size), sub_indptr)
        keep = np.asarray(machine.map(lambda d: d <= cut, e_d))
        e_d, e_col, e_row = _pack_edges(machine, keep, e_d, e_col, e_row)
        any_served = False

        sub = 0
        while True:
            if w is None:
                deg = machine.count_votes(e_row, adm.size).astype(float)
            else:
                deg = np.asarray(
                    machine.scatter_add(
                        np.asarray(machine.take_rows(w, e_col)), e_row, adm.size
                    )
                )
            row_keep = np.asarray(machine.map(lambda dg: dg > 0, deg))
            if not row_keep.all():
                # Empty rows have no edges, so only the labels compress.
                relabel = np.cumsum(row_keep) - 1
                adm = adm[row_keep]
                deg = deg[row_keep]
                e_row = machine.take_rows(relabel, e_row) if e_row.size else e_row
            if adm.size == 0:
                break
            sub += 1
            machine.bump_round("greedy_subselect")
            if sub > sub_cap:
                raise ConvergenceError(
                    f"greedy subselection exceeded {sub_cap} rounds (m={m}, eps={eps})"
                )

            # 4(a–b): permutation over *all* facilities (the RNG stream
            # does not depend on the admitted set); each client votes
            # for its minimum-priority admitted neighbor.
            Pi = machine.random_priorities(nf).astype(float)
            pi_adm = machine.take_rows(Pi, adm)
            pi_edge = machine.take_rows(pi_adm, e_row)
            minpri = machine.scatter_min(pi_edge, e_col, nc)
            vote_edge = np.asarray(
                machine.map(
                    lambda pe, mp: pe == mp, pi_edge, machine.take_rows(minpri, e_col)
                )
            )

            # 4(c): votes per facility (priorities are distinct, so each
            # client with an edge contributes exactly one — weighted —
            # vote).
            if w is None:
                votes = machine.count_votes(e_row, adm.size, mask=vote_edge).astype(float)
            else:
                e_w = np.asarray(machine.take_rows(w, e_col))
                votes = np.asarray(
                    machine.scatter_add(np.where(vote_edge, e_w, 0.0), e_row, adm.size)
                )
            open_now = np.asarray(
                machine.map(
                    lambda v, dg: (dg > 0)
                    & (v * (2.0 * (1.0 + eps)) >= dg * (1.0 - 1e-12)),
                    votes,
                    deg,
                )
            )
            if open_now.any():
                open_edge = np.asarray(machine.take_rows(open_now, e_row))
                served = machine.count_votes(e_col, nc, mask=open_edge) > 0
                opened_ids = adm[open_now]
                served_ids = np.flatnonzero(served)
                opened[opened_ids] = True
                f_cur[opened_ids] = 0.0
                alpha[served_ids] = tau
                active[served_ids] = False
                machine.ledger.charge_basic(
                    "scatter", opened_ids.size + 2 * served_ids.size, depth=1
                )
                any_served = any_served or served_ids.size > 0
                ekeep = np.asarray(
                    machine.map(
                        lambda oe, sc: ~oe & ~sc,
                        open_edge,
                        machine.take_rows(served, e_col),
                    )
                )
                e_d, e_col, e_row = _pack_edges(machine, ekeep, e_d, e_col, e_row)
                row_keep2 = ~open_now
                relabel = np.cumsum(row_keep2) - 1
                adm = adm[row_keep2]
                e_row = machine.take_rows(relabel, e_row) if e_row.size else e_row

            # 4(d): drop facilities whose reduced star price exceeds the cut.
            if w is None:
                wsum = machine.scatter_add(e_d, e_row, adm.size)
                deg_now = machine.count_votes(e_row, adm.size).astype(float)
            else:
                e_w = np.asarray(machine.take_rows(w, e_col))
                wsum = machine.scatter_add(
                    np.asarray(machine.map(np.multiply, e_d, e_w)), e_row, adm.size
                )
                deg_now = np.asarray(machine.scatter_add(e_w, e_row, adm.size))
            fc = machine.take_rows(f_cur, adm)
            drop = np.asarray(
                machine.map(
                    lambda dg, ws, fcv: (dg > 0) & ((fcv + ws) > cut * dg * _REL_TOL),
                    deg_now,
                    wsum,
                    fc,
                )
            )
            if drop.any():
                ekeep = ~np.asarray(machine.take_rows(drop, e_row))
                e_d, e_col, e_row = _pack_edges(machine, ekeep, e_d, e_col, e_row)
                keep_rows = ~drop
                relabel = np.cumsum(keep_rows) - 1
                adm = adm[keep_rows]
                e_row = machine.take_rows(relabel, e_row) if e_row.size else e_row

        if any_served:
            l_cols, l_d, l_indptr = _compact_live(machine, l_cols, l_d, l_indptr, active)

    return _build_solution(
        report, machine, start, opened, alpha, gamma, tau_trace, preprocessed, eps
    )
