"""Test-only reference: the dense §5 primal–dual body.

The library runs one primal–dual body, the CSR one in
:mod:`repro.core.primal_dual_sparse`; a dense instance runs as its full
CSR. This module keeps an independent second implementation over the
dense matrix — closed × unfrozen frontier submatrices, row-sum
payments, a column-block fold — as the oracle the equivalence suites
compare the shipped solver against, field for field. It is not
imported by ``src/``.

:func:`primal_dual_dense` mirrors
:func:`repro.core.primal_dual.parallel_primal_dual`'s signature;
:func:`kmedian_lagrangian_dense` runs the Lagrangian k-median's price
search with it, one dense facility-location instance per probe.
"""

from __future__ import annotations

import numpy as np

from repro.core.kmedian_lagrangian import _price_ceiling
from repro.core.primal_dual import _iteration_cap
from repro.core.result import ClusteringSolution, FacilityLocationSolution
from repro.errors import ConvergenceError, InvalidParameterError
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon
from tests.reference.dominator_dense import max_u_dominator_set
from tests.reference.greedy_dense import _instance_gamma

_REL_TOL = 1.0 + 1e-12


def primal_dual_dense(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    preprocess: bool = True,
    max_iterations: int | None = None,
) -> FacilityLocationSolution:
    """Algorithm 5.1 on the dense matrix (see the module docstring)."""
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, seed=seed)
    iter_cap = _iteration_cap(instance, eps, max_iterations)
    return _parallel_primal_dual_dense(instance, eps, machine, preprocess, iter_cap)


def kmedian_lagrangian_dense(
    instance: ClusteringInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    max_probes: int = 40,
) -> ClusteringSolution:
    """The Lagrangian k-median price search, each probe solved by
    :func:`primal_dual_dense` on its own dense facility-location
    instance (the probe rule of
    :func:`repro.core.kmedian_lagrangian.parallel_kmedian_lagrangian`)."""
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, seed=seed)
    weights = None if instance.has_unit_weights else instance.weights

    def probe(lam: float) -> np.ndarray:
        fl = FacilityLocationInstance(
            instance.D, np.full(instance.n, lam), client_weights=weights
        )
        return primal_dual_dense(fl, epsilon=eps, machine=machine).opened

    return lagrangian_search(instance, probe, machine, max_probes)


def lagrangian_search(instance, probe, machine: PramMachine, max_probes: int) -> ClusteringSolution:
    """Bisect the opening price λ over ``[0, _price_ceiling)``;
    ``probe(λ)`` returns the facilities the LMP subroutine opens at λ.
    Returns the best ``≤ k`` solution met, the probe trace and both
    brackets, as the library does."""
    k = instance.k
    lo, hi = 0.0, _price_ceiling(instance)
    best_centers, best_cost = None, np.inf
    trace: list[dict] = []
    bracket_low = bracket_high = None
    for _ in range(max_probes):
        lam = 0.5 * (lo + hi)
        machine.bump_round("lagrangian_probe")
        opened = probe(lam)
        n_open = opened.size
        trace.append({"lambda": lam, "n_open": n_open})
        if n_open <= k:
            cost = instance.kmedian_cost(opened)
            if cost < best_cost:
                best_cost, best_centers = cost, opened
            bracket_low = (lam, n_open, opened)
            hi = lam
        else:
            bracket_high = (lam, n_open, opened)
            lo = lam
        if n_open == k:
            break
    if best_centers is None:
        raise InvalidParameterError(
            f"no ≤ k solution within {max_probes} probes; increase max_probes"
        )
    return ClusteringSolution(
        centers=best_centers, cost=float(best_cost), objective="kmedian",
        rounds=dict(machine.ledger.rounds),
        extra={"probes": trace, "bracket_low": bracket_low, "bracket_high": bracket_high},
    )


def _parallel_primal_dual_dense(
    instance: FacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    iter_cap: int,
) -> FacilityLocationSolution:
    """Dense execution on the frontier: per-iteration work ∝ closed × unfrozen.

    Invariants maintained between iterations (all exact):

    * ``paid_frozen[i] = Σ_{j frozen} max(0, (1+ε)α_j − d(j,i))`` —
      folded in the iteration each client freezes, so step 2 only sums
      the unfrozen columns;
    * ``dmin_open[j] = min_{i open} d(j,i)`` — updated with newly
      opened rows only, so step 3 is ``O(|C_unfrozen|)``;
    * ``H`` rows are written once in full when a facility opens, and
      extended on raised (unfrozen) columns afterwards — together these
      cover exactly the pairs with ``(1+ε)α_j > d(j,i)`` to a
      tentatively open facility.
    """
    D = instance.D
    f = instance.f.astype(float)
    nf, nc = D.shape
    m = max(instance.m, 2)
    # Client multiplicities scale each client's payment contribution
    # w_j·max(0, (1+ε)α_j − d) — the continuous-time view of w_j
    # co-located duals rising together. Freeze/H-edge conditions stay
    # per-client. None keeps the exact unweighted code path.
    w = None if instance.has_unit_weights else instance.client_weights

    start = machine.snapshot()
    gamma = _instance_gamma(machine, D, f)
    base = gamma / (m * m) if gamma > 0 else 0.0

    alpha = np.zeros(nc, dtype=float)
    frozen = np.zeros(nc, dtype=bool)
    free_open = np.zeros(nf, dtype=bool)  # F0
    tent_open = np.zeros(nf, dtype=bool)  # F_T
    H = np.zeros((nf, nc), dtype=bool)
    paid_frozen = np.zeros(nf, dtype=float)
    dmin_open = np.full(nc, np.inf)

    if preprocess or gamma == 0.0:
        pay0 = machine.map(lambda d: np.maximum(0.0, base * _REL_TOL - d), D)
        if w is not None:
            pay0 = machine.map(lambda p, ww: p * ww, pay0, w[None, :])
        paid0 = machine.reduce(pay0, "add", axis=1)
        free_open = machine.map(lambda p, ff: p >= ff / _REL_TOL, paid0, f)
        if free_open.any():
            near = machine.map(
                lambda d, fo: fo & (d <= base * _REL_TOL),
                D,
                np.broadcast_to(free_open[:, None], D.shape),
            )
            freely = machine.reduce(near, "or", axis=0)
            frozen |= freely
            # Freely connected clients freeze at α = 0: their payment
            # max(0, −d) is identically zero, so paid_frozen stays 0.
            fo_idx = np.flatnonzero(free_open)
            dmin_open = machine.reduce(machine.take_rows(D, fo_idx), "min", axis=0)

    if gamma == 0.0:
        frozen[:] = True

    iterations = 0
    # The closed × unfrozen frontier submatrix is cached across
    # iterations: the schedule runs many levels where nothing opens or
    # freezes, and the gather only needs redoing when the frontier
    # actually moved.
    unfro = old_tent = closed = D_cu = None
    frontier_dirty = True
    while not frozen.all():
        iterations += 1
        machine.bump_round("pd_iterations")
        if iterations > iter_cap:
            raise ConvergenceError(
                f"primal–dual exceeded {iter_cap} iterations (m={m}, eps={eps})"
            )
        t = base * (1.0 + eps) ** (iterations - 1) if base > 0 else 0.0

        old_tent = np.flatnonzero(tent_open)
        if frontier_dirty:
            unfro = np.flatnonzero(~frozen)  # raised each iteration
            closed = np.flatnonzero(~(free_open | tent_open))
            D_cu = D[np.ix_(closed, unfro)]
            frontier_dirty = False

        # Step 1: raise unfrozen duals to the schedule level.
        alpha[unfro] = t
        machine.ledger.charge_basic("scatter", max(unfro.size, 1), depth=1)

        # Step 2: live payments over the closed × unfrozen frontier;
        # frozen columns are already folded into paid_frozen.
        live = machine.masked_axpy(-1.0, D_cu, (1.0 + eps) * t, clamp_min=0.0)
        if w is not None:
            live = machine.map(lambda lv, ww: lv * ww, live, w[unfro][None, :])
        paid = machine.map(
            lambda fr, lv: fr + lv,
            machine.take_rows(paid_frozen, closed),
            machine.reduce(live, "add", axis=1),
        )
        openable = machine.map(
            lambda p, ff: p * _REL_TOL >= ff, paid, machine.take_rows(f, closed)
        )
        new_open = closed[openable]
        tent_open[new_open] = True
        frontier_dirty = frontier_dirty or new_open.size > 0
        machine.ledger.charge_basic("scatter", max(new_open.size, 1), depth=1)

        # Step 3: freeze unfrozen clients reaching any open facility,
        # via the maintained nearest-open distance.
        if new_open.size:
            dnew = machine.reduce(machine.take_rows(D, new_open), "min", axis=0)
            dmin_open = machine.map(np.minimum, dmin_open, dnew)
        newly_frozen = np.zeros(0, dtype=np.intp)
        if free_open.any() or tent_open.any():
            reach = machine.map(
                lambda a, dm: (1.0 + eps) * a * _REL_TOL >= dm,
                alpha[unfro],
                machine.take_rows(dmin_open, unfro),
            )
            newly_frozen = unfro[reach]
            frozen[newly_frozen] = True
            frontier_dirty = frontier_dirty or newly_frozen.size > 0
            machine.ledger.charge_basic("scatter", max(newly_frozen.size, 1), depth=1)

        # Step 4: H edges — full rows for newly opened facilities,
        # raised columns for the previously tentative ones.
        if new_open.size:
            H[new_open, :] = machine.map(
                lambda d, a: (1.0 + eps) * a > d,
                machine.take_rows(D, new_open),
                alpha[None, :],
            )
        if old_tent.size and unfro.size:
            H[np.ix_(old_tent, unfro)] |= machine.map(
                lambda d: (1.0 + eps) * t > d,
                D[np.ix_(old_tent, unfro)],
            )

        # Fold the payments of clients frozen this iteration into the
        # per-facility running totals (their α is now final). A client's
        # payment thus enters as one batch partial sum rather than one
        # row-sum over all clients; a payment within an ulp of the
        # tolerance-shifted opening threshold could therefore decide
        # differently from an unbatched sum, which no tested workload
        # exhibits.
        if newly_frozen.size:
            contrib = machine.masked_axpy(
                -1.0,
                machine.take_columns(D, newly_frozen),
                (1.0 + eps) * t,
                clamp_min=0.0,
            )
            if w is not None:
                contrib = machine.map(
                    lambda c, ww: c * ww, contrib, w[newly_frozen][None, :]
                )
            paid_frozen = machine.map(
                lambda pf, c: pf + c, paid_frozen, machine.reduce(contrib, "add", axis=1)
            )

        # Exhaustion rule: if every facility is open but clients remain
        # unfrozen, connect them directly (α_j = min_i d(j,i)).
        if not frozen.all() and bool(np.all(free_open | tent_open)):
            still = np.flatnonzero(~frozen)
            # All facilities are open, so dmin_open is the full nearest
            # distance for the still-unfrozen columns.
            alpha[still] = np.maximum(machine.take_rows(dmin_open, still), alpha[still])
            machine.ledger.charge_basic("scatter", max(still.size, 1), depth=1)
            frozen[:] = True
            tent_idx = np.flatnonzero(tent_open)
            if tent_idx.size and still.size:
                H[np.ix_(tent_idx, still)] |= machine.map(
                    lambda d, a: (1.0 + eps) * a > d,
                    D[np.ix_(tent_idx, still)],
                    alpha[still][None, :],
                )

    return _finish(instance, machine, start, gamma, eps, alpha, free_open, tent_open, H, f)


def _finish(
    instance: FacilityLocationInstance,
    machine: PramMachine,
    start,
    gamma: float,
    eps: float,
    alpha: np.ndarray,
    free_open: np.ndarray,
    tent_open: np.ndarray,
    H: np.ndarray,
    f: np.ndarray,
) -> FacilityLocationSolution:
    """§5 post-processing on the dense H: MaxUDom survivors + solution assembly."""
    nf = instance.n_facilities
    # Post-processing: survivors = maximal U-dominator set of H over F_T.
    if tent_open.any():
        survivors = max_u_dominator_set(H, machine, candidates=tent_open)
    else:
        survivors = np.zeros(nf, dtype=bool)
    final_open = survivors | free_open
    if not final_open.any():
        # Only possible when no client exists to pay anything — open the
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
