"""§5 primal–dual facility location over sparse candidate structures.

Algorithm 5.1 executed on a
:class:`~repro.metrics.sparse.SparseFacilityLocationInstance`: the
raise/freeze loop runs on the closed × unfrozen *candidate edge*
frontier, so per-iteration work is ``O(nnz(frontier))`` rather than a
function of ``n_f · n_c``. Absent entries contribute nothing to any
payment (they are not candidate connections); the instance's fallback
column acts as a virtual always-open facility at distance
``fallback_j``, which keeps every client freezable and the objective
well-defined on truncated instances. On dense-representable instances
(``fallback ≡ +inf``) the virtual facility is unreachable and the
execution mirrors the dense path (:mod:`repro.core.primal_dual`)
decision-for-decision:

* ``paid_frozen`` folds each client's payment into its candidate
  facilities the iteration it freezes (``scatter_add`` over the
  client-major segments);
* ``dmin_open`` is seeded with the fallback column and refined with
  newly opened facilities' candidate edges only;
* ``H`` lives as a boolean mask over the instance's edge set (a
  facility's H-row is a subset of its candidate segment), and the §3
  postprocessing runs through
  :func:`repro.core.dominator_sparse.max_u_dominator_set_sparse`, which
  makes byte-identical selections to the dense ``MaxUDom`` on the same
  seeded machine.

The dual values ``α`` are schedule levels and exact minima — no
reassociated float sums feed them — so seeded sparse solutions are
byte-identical to the dense path on every dense-representable workload
the equivalence suite runs (the same threshold-robustness caveat the
dense path documents applies).
"""

from __future__ import annotations

import numpy as np

from repro.core.dominator_sparse import max_u_dominator_set_sparse
from repro.core.greedy_sparse import _sparse_gamma
from repro.core.result import FacilityLocationSolution
from repro.errors import ConvergenceError
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine

_REL_TOL = 1.0 + 1e-12


def _parallel_primal_dual_sparse(
    instance: SparseFacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    iter_cap: int,
) -> FacilityLocationSolution:
    """Sparse execution of Algorithm 5.1 (see module docstring)."""
    nf, nc = instance.n_facilities, instance.n_clients
    f = instance.f.astype(float)
    data, indices, indptr = instance.data, instance.indices, instance.indptr
    ct_indptr, ct_rows, ct_entry = instance.client_view
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
        paid0 = machine.scatter_add(pay0, instance.rows_flat(), nf)
        free_open = np.asarray(machine.map(lambda p, ff: p >= ff / _REL_TOL, paid0, f))
        if free_open.any():
            near = np.asarray(
                machine.map(
                    lambda d, fo: fo & (d <= base * _REL_TOL),
                    data,
                    machine.take_rows(free_open, instance.rows_flat()),
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

    iterations = 0
    # The closed × unfrozen candidate-edge frontier is cached across
    # iterations, exactly like the dense path: the geometric
    # schedule runs many levels where nothing opens or freezes.
    unfro = closed = fe_pos = fe_rlocal = fe_w = None
    frontier_dirty = True
    while not frozen.all():
        iterations += 1
        machine.bump_round("pd_iterations")
        if iterations > iter_cap:
            raise ConvergenceError(
                f"sparse primal–dual exceeded {iter_cap} iterations (m={m}, eps={eps})"
            )
        t = base * (1.0 + eps) ** (iterations - 1) if base > 0 else 0.0

        old_tent = np.flatnonzero(tent_open)
        if frontier_dirty:
            unfro = np.flatnonzero(~frozen)
            closed = np.flatnonzero(~(free_open | tent_open))
            pos, cl_indptr = machine.segment_positions(indptr, closed)
            ekeep = ~np.asarray(
                machine.take_rows(frozen, machine.take_rows(indices, pos))
            )
            fe_pos = machine.pack(pos, ekeep)
            fe_rlocal = machine.pack(
                machine.segment_spread(np.arange(closed.size), cl_indptr), ekeep
            )
            if w is not None:
                fe_w = np.asarray(
                    machine.take_rows(w, machine.take_rows(indices, fe_pos))
                )
            frontier_dirty = False

        # Step 1: raise unfrozen duals to the schedule level.
        alpha[unfro] = t
        machine.ledger.charge_basic("scatter", max(unfro.size, 1), depth=1)

        # Step 2: live payments over the frontier edges; frozen columns
        # are already folded into paid_frozen.
        live = machine.masked_axpy(
            -1.0, machine.take_rows(data, fe_pos), (1.0 + eps) * t, clamp_min=0.0
        )
        if w is not None:
            live = machine.map(lambda lv, ww: lv * ww, live, fe_w)
        paid = machine.map(
            lambda fr, lv: fr + lv,
            machine.take_rows(paid_frozen, closed),
            machine.scatter_add(np.asarray(live), fe_rlocal, closed.size),
        )
        openable = np.asarray(
            machine.map(lambda p, ff: p * _REL_TOL >= ff, paid, machine.take_rows(f, closed))
        )
        new_open = closed[openable]
        tent_open[new_open] = True
        frontier_dirty = frontier_dirty or new_open.size > 0
        machine.ledger.charge_basic("scatter", max(new_open.size, 1), depth=1)

        # Step 3: freeze unfrozen clients reaching any open facility
        # (real or fallback), via the maintained nearest-open distance.
        if new_open.size:
            pos2, _ = machine.segment_positions(indptr, new_open)
            dnew = machine.scatter_min(
                machine.take_rows(data, pos2), machine.take_rows(indices, pos2), nc
            )
            dmin_open = np.asarray(machine.map(np.minimum, dmin_open, dnew))
        newly_frozen = np.zeros(0, dtype=np.intp)
        if free_open.any() or tent_open.any() or fallback_live:
            reach = np.asarray(
                machine.map(
                    lambda a, dm: (1.0 + eps) * a * _REL_TOL >= dm,
                    alpha[unfro],
                    machine.take_rows(dmin_open, unfro),
                )
            )
            newly_frozen = unfro[reach]
            frozen[newly_frozen] = True
            frontier_dirty = frontier_dirty or newly_frozen.size > 0
            machine.ledger.charge_basic("scatter", max(newly_frozen.size, 1), depth=1)

        # Step 4: H edges — full candidate rows for newly opened
        # facilities, raised columns for the previously tentative ones.
        if new_open.size:
            pos2, _ = machine.segment_positions(indptr, new_open)
            H_mask[pos2] = np.asarray(
                machine.map(
                    lambda d, a: (1.0 + eps) * a > d,
                    machine.take_rows(data, pos2),
                    machine.take_rows(alpha, machine.take_rows(indices, pos2)),
                )
            )
        if old_tent.size and unfro.size:
            pos3, _ = machine.segment_positions(indptr, old_tent)
            # `unfro` is the iteration-start unfrozen set; rebuild the
            # mask from it (frozen may have advanced in step 3).
            um = np.zeros(nc, dtype=bool)
            um[unfro] = True
            H_mask[pos3] |= np.asarray(
                machine.map(
                    lambda d, u: u & ((1.0 + eps) * t > d),
                    machine.take_rows(data, pos3),
                    machine.take_rows(um, machine.take_rows(indices, pos3)),
                )
            )

        # Fold the payments of clients frozen this iteration into the
        # per-facility running totals (their α is now final).
        if newly_frozen.size:
            pos4, nf_indptr = machine.segment_positions(ct_indptr, newly_frozen)
            contrib = machine.masked_axpy(
                -1.0,
                machine.take_rows(data, machine.take_rows(ct_entry, pos4)),
                (1.0 + eps) * t,
                clamp_min=0.0,
            )
            if w is not None:
                contrib = machine.map(
                    lambda c, ww: c * ww,
                    contrib,
                    machine.segment_spread(w[newly_frozen], nf_indptr),
                )
            paid_frozen = np.asarray(
                machine.map(
                    lambda pf, c: pf + c,
                    paid_frozen,
                    machine.scatter_add(
                        np.asarray(contrib), machine.take_rows(ct_rows, pos4), nf
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

    return _finish_sparse(
        instance, machine, start, gamma, eps, alpha, free_open, tent_open, H_mask, f
    )


def _finish_sparse(
    instance: SparseFacilityLocationInstance,
    machine: PramMachine,
    start,
    gamma: float,
    eps: float,
    alpha: np.ndarray,
    free_open: np.ndarray,
    tent_open: np.ndarray,
    H_mask: np.ndarray,
    f: np.ndarray,
) -> FacilityLocationSolution:
    """§5 post-processing on the sparse contribution graph."""
    from scipy import sparse

    nf, nc = instance.n_facilities, instance.n_clients
    counts = machine.count_votes(instance.rows_flat(), nf, mask=H_mask)
    H_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    H_cols = machine.pack(instance.indices, H_mask)
    H = sparse.csr_matrix(
        (np.ones(H_cols.size, dtype=bool), H_cols, H_indptr), shape=(nf, nc)
    )
    if tent_open.any():
        survivors = max_u_dominator_set_sparse(H, machine, candidates=tent_open)
    else:
        survivors = np.zeros(nf, dtype=bool)
    final_open = survivors | free_open
    if not final_open.any():
        # Only possible when no client can pay anything — open the
        # cheapest facility to return a valid solution shape.
        final_open[int(np.argmin(f))] = True

    opened_idx = np.flatnonzero(final_open)
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
            "F0": np.flatnonzero(free_open),
            "F_T": np.flatnonzero(tent_open),
            "I": np.flatnonzero(survivors),
            "H": H,
            "epsilon": eps,
        },
    )
