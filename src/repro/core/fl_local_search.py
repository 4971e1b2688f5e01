"""§7 remark — parallel local search for facility location (extension).

The paper's closing remark in §7: *"there is a factor-3 approximation
local-search algorithm for facility location, in which a similar idea
can be used to perform each local-search step efficiently; however, we
do not know how to bound the number of rounds."*

This module implements exactly that: the Arya et al. / Korupolu et al.
local search over **add / drop / swap** moves with every candidate move
evaluated simultaneously via the same batched matrix machinery as
:mod:`repro.core.local_search`. Local optima of this neighborhood are
3-approximate (Arya et al. 2004; with the ``(1−β/·)`` threshold the
guarantee degrades to ``3+ε``). Because the paper gives no round bound,
``max_rounds`` here is an explicit safety parameter and the result
records whether the search converged — faithfully exposing the open
problem rather than papering over it.

Move evaluation per round (all through machine primitives):

* **add i′**: ``Δ = f_{i′} + Σ_j min(0, d(j,i′) − cur_j)``
* **drop i**: clients of ``i`` rebound to their second-nearest open
  facility: ``Δ = −f_i + Σ_{j: ϕ_j=i} (second_j − cur_j)``
* **swap (i → i′)**: ``Δ = f_{i′} − f_i + Σ_j min(base_i(j), d(j,i′)) − cost_conn``

with ``base_i(j)`` the drop-i service cost — the §7 trick verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import FacilityLocationSolution
from repro.metrics.instance import FacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_ids, check_max_rounds, round_cap


def _service_state(machine: PramMachine, D: np.ndarray, open_idx: np.ndarray):
    """Nearest/second-nearest open-facility distances per client."""
    nc = D.shape[1]
    Dc = machine.take_columns(D.T, open_idx).T  # (n_open, nc)
    near_pos = machine.argmin(Dc, axis=0)
    d1 = Dc[near_pos, np.arange(nc)]
    masked = Dc.copy()
    masked[near_pos, np.arange(nc)] = np.inf
    machine.ledger.charge_basic("map", Dc.size, depth=1)
    d2 = (
        machine.reduce(masked, "min", axis=0)
        if open_idx.size > 1
        else np.full(nc, np.inf)
    )
    return d1, d2, near_pos


def parallel_fl_local_search(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    initial=None,
    max_rounds: int | None = None,
) -> FacilityLocationSolution:
    """Local-search facility location with parallel move evaluation.

    Parameters
    ----------
    epsilon:
        Improvement slack: a move is applied only if it improves the
        objective by a ``(1 − β/(n_f+1))`` factor, ``β = ε/(1+ε)``
        (local optima of the exact neighborhood are 3-approximate).
    initial:
        Starting facility set (defaults to the single facility
        minimizing the Eq. (1) objective alone — computable in one
        round of matrix operations).
    max_rounds:
        Safety bound on improvement rounds. The paper leaves the round
        count of this algorithm *open*; the default is a generous
        ``O((n_f/β)·log(n_c·spread))`` heuristic, and the returned
        solution's ``extra['converged']`` reports whether a local
        optimum was certified before the cap.

    Returns
    -------
    FacilityLocationSolution
        ``extra`` carries the move trace, convergence flag, and the
        initial cost.
    """
    eps = check_epsilon(epsilon, upper=1.0)
    machine = ensure_machine(machine, seed=seed)
    D = instance.D
    f = instance.f.astype(float)
    nf, nc = D.shape
    beta = eps / (1.0 + eps)
    if max_rounds is not None:
        cap = check_max_rounds(max_rounds)
    else:
        bound = (nf / beta) * math.log(max(nc, 2) + 1)
        cap = 64 + round_cap(bound, eps, what="facility-location local-search bound")

    start = machine.snapshot()
    open_mask = np.zeros(nf, dtype=bool)
    if initial is not None:
        open_mask[check_ids(initial, nf, name="initial facilities")] = True
    else:
        # Best single facility: one reduction over the m matrix.
        totals = machine.map(
            lambda d, ff: d + ff, D, np.broadcast_to(f[:, None], D.shape)
        )
        single_costs = machine.reduce(totals, "add", axis=1) - (nc - 1) * f
        open_mask[int(machine.argmin(single_costs))] = True

    def full_cost(mask: np.ndarray) -> float:
        idx = np.flatnonzero(mask)
        return float(f[idx].sum() + D[idx].min(axis=0).sum())

    cost = full_cost(open_mask)
    initial_cost = cost

    moves: list[tuple[str, int, int, float]] = []
    converged = False
    threshold = 1.0 - beta / (nf + 1)

    for _ in range(cap):
        machine.bump_round("fl_local_search")
        open_idx = np.flatnonzero(open_mask)
        closed_idx = np.flatnonzero(~open_mask)
        d1, d2, near_pos = _service_state(machine, D, open_idx)
        conn = float(machine.reduce(d1, "add"))
        fac = float(f[open_idx].sum())
        best_move = None  # (new_cost, kind, out_facility, in_facility)

        # ---- add moves (all closed facilities at once) ----
        if closed_idx.size:
            Dc = machine.take_columns(D.T, closed_idx).T  # (n_closed, nc)
            gain = machine.reduce(
                machine.map(
                    lambda dn, cur: np.minimum(0.0, dn - cur),
                    Dc,
                    np.broadcast_to(d1[None, :], Dc.shape),
                ),
                "add",
                axis=1,
            )
            add_costs = cost + f[closed_idx] + gain
            a = int(machine.argmin(add_costs))
            if best_move is None or add_costs[a] < best_move[0]:
                best_move = (float(add_costs[a]), "add", -1, int(closed_idx[a]))

        # ---- drop moves (all open facilities at once; keep ≥ 1 open) ----
        if open_idx.size > 1:
            rebound = machine.map(
                lambda np_, d2_, d1_, row: np.where(np_ == row, d2_, d1_),
                np.broadcast_to(near_pos[None, :], (open_idx.size, nc)),
                np.broadcast_to(d2[None, :], (open_idx.size, nc)),
                np.broadcast_to(d1[None, :], (open_idx.size, nc)),
                np.broadcast_to(np.arange(open_idx.size)[:, None], (open_idx.size, nc)),
            )
            drop_conn = machine.reduce(rebound, "add", axis=1)
            drop_costs = fac - f[open_idx] + drop_conn
            a = int(machine.argmin(drop_costs))
            if best_move is None or drop_costs[a] < best_move[0]:
                best_move = (float(drop_costs[a]), "drop", int(open_idx[a]), -1)

            # ---- swap moves (every open × closed pair) ----
            if closed_idx.size:
                Dc = machine.take_columns(D.T, closed_idx).T
                trial = machine.map(
                    np.minimum,
                    np.broadcast_to(
                        rebound[:, None, :], (open_idx.size, closed_idx.size, nc)
                    ),
                    np.broadcast_to(
                        Dc[None, :, :], (open_idx.size, closed_idx.size, nc)
                    ),
                )
                swap_conn = machine.reduce(trial, "add", axis=2)
                swap_costs = (
                    fac
                    - f[open_idx][:, None]
                    + f[closed_idx][None, :]
                    + swap_conn
                )
                flat = int(machine.argmin(swap_costs))
                a, b = np.unravel_index(flat, swap_costs.shape)
                if best_move is None or swap_costs[a, b] < best_move[0]:
                    best_move = (
                        float(swap_costs[a, b]),
                        "swap",
                        int(open_idx[a]),
                        int(closed_idx[b]),
                    )

        if best_move is None or best_move[0] >= threshold * cost:
            converged = True
            break
        new_cost, kind, out_f, in_f = best_move
        if kind in ("drop", "swap"):
            open_mask[out_f] = False
        if kind in ("add", "swap"):
            open_mask[in_f] = True
        cost = new_cost
        moves.append((kind, out_f, in_f, new_cost))

    opened_idx = np.flatnonzero(open_mask)
    return FacilityLocationSolution(
        opened=opened_idx,
        cost=instance.cost(opened_idx),
        facility_cost=instance.facility_cost(opened_idx),
        connection_cost=instance.connection_cost(opened_idx),
        alpha=None,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "initial_cost": initial_cost,
            "moves": moves,
            "converged": converged,
            "epsilon": eps,
        },
    )
