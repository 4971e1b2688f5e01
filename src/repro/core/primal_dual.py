"""§5 — Parallel primal–dual facility location (Algorithm 5.1, Thm 5.4).

Parallelizes Jain–Vazirani by raising all unfrozen client duals along
the geometric schedule ``α = (γ/m²)(1+ε)^ℓ`` instead of continuously:

* a facility opens once ``Σ_j max(0, (1+ε)α_j − d(j,i)) ≥ f_i`` —
  the ``(1+ε)`` lookahead guarantees no facility is ever *overtight*
  at the recorded α (Claim 5.1: the produced α, canonically completed
  with ``β_ij = max(0, α_j − d(j,i))``, is dual feasible — the test
  suite asserts this on every run);
* a client freezes once an open facility is within ``(1+ε)α_j``;
* edges ``(1+ε)α_j > d(j,i)`` to open facilities accumulate in a
  bipartite contribution graph ``H``;
* postprocessing takes ``I = MaxUDom(H)`` so each client pays at most
  one surviving facility, giving the ``(3+ε)`` guarantee via
  Lemmas 5.2/5.3 (the LMP inequality Eq. (5) is also asserted).

Preprocessing opens every facility payable at level ``γ/m²`` for free
(total damage ≤ 3γ/m) which pins the iteration count at
``≤ 3·log_{1+ε} m + O(1)``.

**Execution.** One body runs every instance: the CSR path in
:mod:`repro.core.primal_dual_sparse`. A dense instance runs as its full
CSR (:meth:`~repro.metrics.sparse.SparseFacilityLocationInstance
.from_instance`); its solution is reported on the dense instance, with
``extra["H"]`` a dense boolean matrix. Only the frontier edges that
pay — ``d < (1+ε)t`` between a closed facility and an unfrozen client —
cost work, and only at the levels where a facility opens or a client
freezes: the body finds each such level from the paying set and the
nearest open distances and skips the levels before it, which still
count in ``rounds["pd_iterations"]``. A solve costs its events plus one
merge of the skipped levels' edges per event, rather than a pass over
the paying set at every level. Payment sums run in a fixed flat order,
so seeded solutions are deterministic and identical to running every
level; the test suite checks them field for field against a dense
reference and a level-by-level CSR reference, both kept under
``tests/``.
"""

from __future__ import annotations

import math

from repro.core.primal_dual_sparse import _parallel_primal_dual_sparse, schedule_length
from repro.core.result import FacilityLocationSolution
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, round_cap


def parallel_primal_dual(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    preprocess: bool = True,
    max_iterations: int | None = None,
) -> FacilityLocationSolution:
    """Run Algorithm 5.1 to completion.

    Parameters
    ----------
    epsilon:
        Geometric raising slack ``ε > 0``; the guarantee is ``(3+ε′)``
        with ``ε′ → 0`` as ``ε → 0``.
    preprocess:
        Open "free" facilities at level ``γ/m²`` first (§5
        preprocessing). Disable for the E5 ablation — without it the
        iteration count depends on the instance's distance spread.
    max_iterations:
        Safety bound; the default is the analysis bound
        ``3·log_{1+ε}(m) + 8`` when preprocessing is on, and a spread-
        dependent bound otherwise.

    Raises
    ------
    InvalidParameterError
        ``epsilon`` is so small that the threshold schedule — the levels
        until a threshold passes the largest frontier distance and the
        duals' ceiling, cut at the iteration cap — would exceed
        :data:`~repro.core.primal_dual_sparse.MAX_SCHEDULE_LEVELS`
        levels. Raised before anything per level is allocated.
    ConvergenceError
        The solve needs more than ``max_iterations`` levels.

    Returns
    -------
    FacilityLocationSolution
        ``alpha`` holds the exact duals; ``extra`` includes the free
        facility set ``F0``, the tentative set ``F_T``, and the
        surviving independent set ``I``.
    """
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, seed=seed)
    iter_cap = _iteration_cap(instance, eps, max_iterations)
    sparse = (
        instance
        if isinstance(instance, SparseFacilityLocationInstance)
        else SparseFacilityLocationInstance.from_instance(instance)
    )
    return _parallel_primal_dual_sparse(sparse, eps, machine, preprocess, iter_cap, instance)


def check_schedule(epsilon: float, m: int) -> float:
    """Refuse an ``epsilon`` too small for any §5 solve on ``m``
    candidate edges; returns the validated ``epsilon``.

    A schedule climbs from its first threshold ``(1+ε)γ/m²`` past the
    duals' ceiling ``γ``: about ``2·log_{1+ε} m`` levels whatever ``γ``
    is, fewer than the default iteration cap. Where
    :func:`~repro.core.primal_dual_sparse.schedule_length` refuses that
    climb, every solve on ``m`` edges raises too, so a caller can refuse
    the ``epsilon`` before solving.
    """
    eps = check_epsilon(epsilon)
    m = max(int(m), 2)
    schedule_length(eps, (1.0 + eps) / (m * m), 1.0, m)
    return eps


_BOUND = "primal–dual iteration bound"


def _iteration_cap(instance, eps: float, max_iterations: int | None) -> int:
    """``max_iterations``, or the analysis bound ``3·log_{1+ε}(m) + 8``
    extended for client weights below 1.

    Raises :class:`~repro.errors.InvalidParameterError` naming
    ``epsilon`` when ``ε`` is so small (subnormal) that a bound's
    ``log_{1+ε}`` overflows a float.
    """
    if max_iterations is not None:
        return max_iterations
    m = max(instance.m, 2)
    iter_cap = round_cap(3.0 * math.log(m) / math.log1p(eps), eps, what=_BOUND) + 8
    if not instance.has_unit_weights:
        # Payments scale by w_j, so a client with weight w < 1 needs
        # its dual raised ~log_{1+ε}(1/w) levels further before its
        # (shrunken) contribution covers the same opening cost; the
        # geometric schedule gets that many extra levels. Weights
        # ≥ 1 only open facilities sooner — no extension needed.
        w_min = float(instance.client_weights.min())
        if w_min < 1.0:
            iter_cap += round_cap(math.log(1.0 / w_min) / math.log1p(eps), eps, what=_BOUND)
    return iter_cap
