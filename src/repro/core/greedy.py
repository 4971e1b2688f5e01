"""§4 — Parallel greedy facility location (Algorithm 4.1, Theorem 4.9).

Parallelizes the Jain et al. greedy ("repeatedly open the cheapest
star") by admitting *every* facility whose cheapest maximal star is
within a ``(1+ε)`` factor of the round minimum ``τ``, then running a
randomized **facility subselection** so facilities are only opened when
at least a ``1/(2(1+ε))`` fraction of their neighborhood chose them —
the clean-up that keeps the dual-fitting accounting intact.

Structure per outer round (clients remaining):

1. cheapest maximal star price per facility (Fact 4.2: prefix sums
   over each facility's remaining clients, presorted once);
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

**Execution.** One body runs every instance: the CSR path in
:mod:`repro.core.greedy_sparse`. A dense instance runs as its full CSR
(:meth:`~repro.metrics.sparse.SparseFacilityLocationInstance
.from_instance`), and its solution is reported on the dense instance.
Every round runs on the frontier: the presorted structure is packed
down to the still-active clients after every removal, the subselection
graph is an edge list over admitted facilities × active clients, and
votes are a segmented count with no ``n_f × n_c`` vote matrix. Per-round
work — wall-clock and ledger-charged — is then proportional to the
remaining instance, which is exactly the §4 cost analysis ("``O(m)``
work over the remaining instance"). The dense matrix body is kept under
``tests/`` as the test suite's oracle; seeded solutions match it field
for field.
"""

from __future__ import annotations

import math

from repro.core.greedy_sparse import _parallel_greedy_sparse
from repro.core.result import FacilityLocationSolution
from repro.metrics.instance import FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine, ensure_machine
from repro.util.validation import check_epsilon, round_cap


def parallel_greedy(
    instance: FacilityLocationInstance,
    *,
    epsilon: float = 0.1,
    machine: PramMachine | None = None,
    seed=None,
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
        ``seed`` is only used when constructing it).
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

    Raises
    ------
    InvalidParameterError
        ``epsilon`` is so small (subnormal) that the subselection cap
        overflows a float.

    Notes
    -----
    ``instance`` may also be a
    :class:`~repro.metrics.sparse.SparseFacilityLocationInstance`; the
    algorithm runs over its candidate-edge structure in
    ``O(nnz(frontier rows))`` work per round. A dense instance runs as
    its full CSR.
    """
    eps = check_epsilon(epsilon, upper=1.0)
    machine = ensure_machine(machine, seed=seed)
    m = max(instance.m, 2)

    outer_cap = max_outer_rounds if max_outer_rounds is not None else instance.n_clients + 8
    if max_subselect_rounds is not None:
        sub_cap = max_subselect_rounds
    else:
        sub_cap = 64 + 16 * round_cap(
            math.log(m) / math.log1p(eps), eps, what="greedy subselection bound"
        )
    sparse = (
        instance
        if isinstance(instance, SparseFacilityLocationInstance)
        else SparseFacilityLocationInstance.from_instance(instance)
    )
    return _parallel_greedy_sparse(sparse, eps, machine, preprocess, outer_cap, sub_cap, instance)

