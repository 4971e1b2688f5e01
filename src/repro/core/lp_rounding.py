"""§6.2 — Parallel LP filtering + randomized rounding (Theorem 6.5).

Given an *optimal* primal LP solution ``(x, y)`` (the paper assumes it;
our LP substrate provides it), produces an integral solution of cost at
most ``(4+ε)`` times the LP value (with filter parameter ``a = 1/3``,
balancing the facility factor ``1 + 1/a = 4`` against the connection
factor ``3(1+a) = 4``).

Filtering (parallel, one pass): ``δ_j = Σ_i d(i,j)·x_ij``; the ball
``B_j = {i : d(i,j) ≤ (1+a)δ_j}`` holds at least ``a/(1+a)`` of ``j``'s
assignment mass, and ``y′ = min(1, (1+1/a)·y)`` covers every ball
(Lemma 6.2).

Rounding (rounds, eagerly processing near-minimal clients): with ``τ =
min remaining δ`` take ``S = {j : δ_j ≤ (1+ε)τ}``, pick ``J =
MaxUDom`` of the client→ball graph restricted to ``S`` (so chosen
clients have disjoint balls), open the cheapest facility ``i_j`` of
each chosen ball (Claim 6.3 pays for them with the ``y′`` mass), then
retire all of ``S`` and every facility in their balls. A client whose
ball intersects a processed ball is served through the shared facility
within ``3(1+a)(1+ε)δ_j`` (Claim 6.4) and retires too — so active
clients always hold full, untouched balls, keeping the chosen balls
disjoint across the entire run (the Claim 6.3 accounting).

The ``θ/m²`` preprocessing (process ultra-cheap clients in round one)
bounds the rounds at ``O(log_{1+ε} m)``.

``MaxUDom`` runs the library's one body, the CSR
:func:`~repro.core.dominator_sparse.max_u_dominator_set_sparse`, over
the live ball graph. A rounding round still builds and transposes the
dense ``n_f × n_c`` incidence matrix; only the MaxUDom rounds cost the
balls' edges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.dominator_sparse import max_u_dominator_set_sparse
from repro.core.result import FacilityLocationSolution
from repro.errors import ConvergenceError, InvalidParameterError
from repro.lp.solve import PrimalSolution, solve_primal
from repro.metrics.instance import FacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, check_max_rounds, round_cap

_REL_TOL = 1.0 + 1e-12


def parallel_lp_rounding(
    instance: FacilityLocationInstance,
    primal: PrimalSolution | None = None,
    *,
    epsilon: float = 0.1,
    filter_alpha: float = 1.0 / 3.0,
    machine: PramMachine | None = None,
    seed=None,
    max_rounds: int | None = None,
) -> FacilityLocationSolution:
    """Round an optimal LP solution to an integral one (Algorithm of §6.2).

    Parameters
    ----------
    primal:
        Optimal LP solution; solved here (sequentially, as substrate)
        when absent — the parallel claim covers only the rounding.
    filter_alpha:
        The filter radius parameter ``a ∈ (0, 1)``; ``1/3`` gives the
        headline ``4+ε``.
    max_rounds:
        Safety bound (default: generous multiple of ``log_{1+ε} m``).

    Returns
    -------
    FacilityLocationSolution
        ``extra`` carries ``delta``, anchor facilities ``i_j``, the LP
        value ``theta``, and per-round trace.
    """
    eps = check_epsilon(epsilon)
    a = float(filter_alpha)
    if not 0.0 < a < 1.0:
        raise InvalidParameterError(f"filter_alpha must lie in (0,1), got {filter_alpha}")
    machine = ensure_machine(machine, seed=seed)
    m = max(instance.m, 2)
    cap = check_max_rounds(max_rounds) if max_rounds is not None else 64 + 8 * round_cap(
        math.log(m) / math.log1p(eps), eps, what="LP rounding round bound"
    )
    if primal is None:
        primal = solve_primal(instance)
    D = instance.D
    f = instance.f.astype(float)
    nf, nc = D.shape
    theta = float(primal.value)

    start = machine.snapshot()

    # ---- Filtering ------------------------------------------------------
    delta = machine.reduce(machine.map(np.multiply, D, primal.x), "add", axis=0)
    radius = machine.map(lambda dd: (1.0 + a) * dd * _REL_TOL, delta)
    balls = machine.map(
        lambda d, r: d <= r, D, np.broadcast_to(radius[None, :], D.shape)
    )  # balls[i, j] ⇔ i ∈ B_j
    y_prime = machine.map(lambda yy: np.minimum(1.0, (1.0 + 1.0 / a) * yy), primal.y)
    # Anchor: the cheapest facility of each ball (precomputed once, §6.2).
    anchor = machine.argmin(machine.where(balls, f[:, None], np.inf), axis=0)

    # ---- Rounding rounds ---------------------------------------------------
    active_c = np.ones(nc, dtype=bool)
    active_f = np.ones(nf, dtype=bool)
    opened = np.zeros(nf, dtype=bool)
    preprocess_cut = theta / (m * m)
    round_trace: list[dict] = []
    rounds = 0

    while active_c.any():
        rounds += 1
        machine.bump_round("rounding")
        if rounds > cap:
            raise ConvergenceError(f"LP rounding exceeded {cap} rounds (m={m}, eps={eps})")
        masked_delta = machine.where(active_c, delta, np.inf)
        tau = float(machine.reduce(masked_delta, "min"))
        cut = max(tau * (1.0 + eps), preprocess_cut if rounds == 1 else 0.0) * _REL_TOL
        S = machine.map(lambda dd, ac: ac & (dd <= cut), delta, active_c)

        # Live ball graph: client j (in S) ↔ facility i ∈ B_j still active.
        live = machine.map(
            lambda b, af, s: b & af & s,
            balls,
            np.broadcast_to(active_f[:, None], balls.shape),
            np.broadcast_to(S[None, :], balls.shape),
        )
        # MaxUDom over clients (U side) sharing facilities (V side):
        # transpose the incidence so U = clients.
        J = max_u_dominator_set_sparse(machine.transpose(live), machine, candidates=S)

        # Open the anchor of every chosen client.
        chosen_anchors = np.unique(anchor[J]) if J.any() else np.empty(0, dtype=int)
        opened[chosen_anchors] = True

        # Retire all processed clients and every facility in their balls.
        retired_f = machine.reduce(live, "or", axis=1)  # facilities in ∪_{j∈S} B_j
        active_f &= ~retired_f
        active_c &= ~S
        # A client whose ball lost *any* facility retires too — it is
        # served through the shared facility within 3(1+a)(1+ε)δ_j
        # (Claim 6.4). This keeps every active client's ball fully
        # intact, which is what makes the chosen balls disjoint across
        # the entire run (Claim 6.3's accounting).
        ball_hit = machine.reduce(
            machine.map(
                lambda b, rf: b & rf,
                balls,
                np.broadcast_to(retired_f[:, None], balls.shape),
            ),
            "or",
            axis=0,
        )
        touched = machine.map(lambda ac, bh: ac & bh, active_c, ball_hit)
        active_c &= ~touched

        round_trace.append(
            {
                "tau": tau,
                "processed": int(S.sum()),
                "chosen": int(J.sum()),
                "ball_retired": int(touched.sum()),
                "facilities_retired": int(retired_f.sum()),
            }
        )

    opened_idx = np.flatnonzero(opened)
    return FacilityLocationSolution(
        opened=opened_idx,
        cost=instance.cost(opened_idx),
        facility_cost=instance.facility_cost(opened_idx),
        connection_cost=instance.connection_cost(opened_idx),
        alpha=None,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "delta": delta,
            "anchor": anchor,
            "theta": theta,
            "filter_alpha": a,
            "epsilon": eps,
            "y_prime": y_prime,
            "trace": round_trace,
        },
    )
