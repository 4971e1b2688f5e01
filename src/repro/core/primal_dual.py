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
``extra["H"]`` a dense boolean matrix. Each level touches only the
frontier edges that pay at it — ``d < (1+ε)t`` between a closed
facility and an unfrozen client — so per-level work follows the paying
edges rather than the ``|F_closed| · |C_unfrozen|`` frontier. Payment
sums run in a fixed flat order, so seeded solutions are deterministic
and identical across backends; the test suite checks them field for
field against a dense reference implementation kept under ``tests/``.
"""

from __future__ import annotations

import math

from repro.core.primal_dual_sparse import _parallel_primal_dual_sparse
from repro.core.result import FacilityLocationSolution
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon


def parallel_primal_dual(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
    backend=None,
    preprocess: bool = True,
    max_iterations: int | None = None,
) -> FacilityLocationSolution:
    """Run Algorithm 5.1 to completion.

    Parameters
    ----------
    epsilon:
        Geometric raising slack ``ε > 0``; the guarantee is ``(3+ε′)``
        with ``ε′ → 0`` as ``ε → 0``.
    backend:
        Execution backend for a freshly constructed machine — a name
        (``"serial"``/``"thread"``/``"process"``) or a
        :class:`~repro.pram.backends.Backend` instance. Mutually
        exclusive with ``machine``. Results are backend-invariant.
    preprocess:
        Open "free" facilities at level ``γ/m²`` first (§5
        preprocessing). Disable for the E5 ablation — without it the
        iteration count depends on the instance's distance spread.
    max_iterations:
        Safety bound; the default is the analysis bound
        ``3·log_{1+ε}(m) + 8`` when preprocessing is on, and a spread-
        dependent bound otherwise.

    Returns
    -------
    FacilityLocationSolution
        ``alpha`` holds the exact duals; ``extra`` includes the free
        facility set ``F0``, the tentative set ``F_T``, and the
        surviving independent set ``I``.
    """
    eps = check_epsilon(epsilon)
    machine = ensure_machine(machine, backend=backend, seed=seed)
    iter_cap = _iteration_cap(instance, eps, max_iterations)
    sparse = (
        instance
        if isinstance(instance, SparseFacilityLocationInstance)
        else SparseFacilityLocationInstance.from_instance(instance)
    )
    return _parallel_primal_dual_sparse(sparse, eps, machine, preprocess, iter_cap, instance)


def _iteration_cap(instance, eps: float, max_iterations: int | None) -> int:
    """``max_iterations``, or the analysis bound ``3·log_{1+ε}(m) + 8``
    extended for client weights below 1."""
    if max_iterations is not None:
        return max_iterations
    m = max(instance.m, 2)
    iter_cap = math.ceil(3.0 * math.log(m) / math.log1p(eps)) + 8
    if not instance.has_unit_weights:
        # Payments scale by w_j, so a client with weight w < 1 needs
        # its dual raised ~log_{1+ε}(1/w) levels further before its
        # (shrunken) contribution covers the same opening cost; the
        # geometric schedule gets that many extra levels. Weights
        # ≥ 1 only open facilities sooner — no extension needed.
        w_min = float(instance.client_weights.min())
        if w_min < 1.0:
            iter_cap += math.ceil(math.log(1.0 / w_min) / math.log1p(eps))
    return iter_cap
