"""§4 — Parallel greedy facility location (Algorithm 4.1, Theorem 4.9).

Parallelizes the Jain et al. greedy ("repeatedly open the cheapest
star") by admitting *every* facility whose cheapest maximal star is
within a ``(1+ε)`` factor of the round minimum ``τ``, then running a
randomized **facility subselection** so facilities are only opened when
at least a ``1/(2(1+ε))`` fraction of their neighborhood chose them —
the clean-up that keeps the dual-fitting accounting intact.

Structure per outer round (clients remaining):

1. cheapest maximal star price per facility (presorted prefix sums,
   :mod:`repro.core.stars`);
2. ``τ = min price``; admit ``I = {i : price ≤ τ(1+ε)}``;
3. bipartite ``H`` on ``(I, C′)`` with edges ``d(i,j) ≤ τ(1+ε)``;
4. subselection: clients vote for their minimum-priority admitted
   neighbor under a random permutation; facilities with votes ≥
   ``deg/(2(1+ε))`` open, their neighborhoods leave; facilities whose
   *reduced* star price rises above ``τ(1+ε)`` leave ``I`` (they return
   in a later outer round) — Lemma 4.8 bounds the subselection rounds.

The ``γ/m²`` preprocessing (open all stars priced ≤ γ/m², costing at
most ``opt/m`` extra) bounds the outer rounds by ``O(log_{1+ε} m)``.

Dual artifacts: each removed client records ``α_j = τ`` of its removal
round; Lemma 4.3 (``cost ≤ 2(1+ε)² Σ α_j``) and Lemma 4.7 (``α/3`` is
dual feasible) are then executable — the tests run both.

**Execution.** Every round runs on the frontier: the presorted
structure is packed down to the still-active clients after every
removal, the subselection graph lives on a ``|I| × |C_active|``
submatrix, and votes are counted with a segmented bincount instead of
an ``n_f × n_c`` vote matrix. Per-round work — wall-clock and
ledger-charged — is then proportional to the remaining instance, which
is exactly the §4 cost analysis ("``O(m)`` work over the remaining
instance"). Sparse instances run the CSR path
(:mod:`repro.core.greedy_sparse`); on dense-representable instances
the two return identical seeded solutions (asserted exactly by the
equivalence suite — only instances engineered so a star price sits
within an ulp of the admission cut could in principle diverge).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import FacilityLocationSolution
from repro.core.stars import (
    cheapest_star_prices_compact,
    compact_sorted_columns,
    presort_distances,
)
from repro.errors import ConvergenceError
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon

_REL_TOL = 1.0 + 1e-12  # float-safe threshold comparisons


def _instance_gamma(machine: PramMachine, D: np.ndarray, f: np.ndarray) -> float:
    """Eq. (2) bound ``γ = max_j min_i (f_i + d(j, i))``."""
    total = machine.map(lambda d, ff: d + ff, D, np.broadcast_to(f[:, None], D.shape))
    gamma_j = machine.reduce(total, "min", axis=0)
    return float(machine.reduce(gamma_j, "max"))


def parallel_greedy(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    backend=None,
    preprocess: bool = True,
    max_outer_rounds: int | None = None,
    max_subselect_rounds: int | None = None,
) -> FacilityLocationSolution:
    """Run Algorithm 4.1 to completion.

    Parameters
    ----------
    epsilon:
        The slack parameter ``0 < ε ≤ 1``; smaller ε tracks the
        sequential greedy more closely (better cost, more rounds).
    machine:
        PRAM machine to execute/charge on (a fresh one if absent;
        ``seed``/``backend`` are only used when constructing it).
    backend:
        Execution backend for the fresh machine — a name
        (``"serial"``/``"thread"``/``"process"``) or a
        :class:`~repro.pram.backends.Backend` instance. Mutually
        exclusive with ``machine``. Results are backend-invariant.
    preprocess:
        Apply the ``γ/m²`` cheap-star preprocessing (§4, "Bounding the
        number of rounds"). Disable to measure its effect (bench E5).
    max_outer_rounds / max_subselect_rounds:
        Safety bounds (defaults: ``n_c + 8`` outer — each outer round
        removes ≥ 1 client — and a large multiple of the Lemma 4.8
        expectation for subselection); exceeding them raises
        :class:`~repro.errors.ConvergenceError`.

    Returns
    -------
    FacilityLocationSolution
        With ``alpha`` (the dual-fitting vector), round counters
        ``greedy_outer`` / ``greedy_subselect``, ledger costs, and
        ``extra = {gamma, tau_trace, preprocessed_clients}``.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseFacilityLocationInstance`; the
    algorithm then runs over the candidate-edge structure in
    ``O(nnz(frontier rows))`` work per round
    (:mod:`repro.core.greedy_sparse`) and returns byte-identical seeded
    solutions to the dense path on dense-representable instances.
    """
    eps = check_epsilon(epsilon, upper=1.0)
    machine = ensure_machine(machine, backend=backend, seed=seed)
    m = max(instance.m, 2)

    outer_cap = max_outer_rounds if max_outer_rounds is not None else instance.n_clients + 8
    if max_subselect_rounds is not None:
        sub_cap = max_subselect_rounds
    else:
        sub_cap = 64 + 16 * math.ceil(math.log(m) / math.log1p(eps))

    if isinstance(instance, SparseFacilityLocationInstance):
        from repro.core.greedy_sparse import _parallel_greedy_sparse

        return _parallel_greedy_sparse(instance, eps, machine, preprocess, outer_cap, sub_cap)

    return _parallel_greedy_dense(instance, eps, machine, preprocess, outer_cap, sub_cap)


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


def _build_solution(
    instance: FacilityLocationInstance,
    machine: PramMachine,
    start,
    opened: np.ndarray,
    alpha: np.ndarray,
    gamma: float,
    tau_trace: list,
    preprocessed: int,
    eps: float,
) -> FacilityLocationSolution:
    """Assemble the §4 solution object (shared with the CSR path)."""
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
        else machine.gather_rows(np.broadcast_to(w, D_sorted.shape), order)
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
        D_sub = machine.take_submatrix(D, adm, act)
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
                E_sub = machine.take_submatrix(E_sub, row_keep_idx, col_keep_idx)
                D_sub = machine.take_submatrix(D_sub, row_keep_idx, col_keep_idx)

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
