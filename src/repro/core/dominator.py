"""§3 — Dominator-set variants of maximal independent set.

``MaxDom(G)``: a maximal ``I ⊆ V`` such that no two chosen nodes are
adjacent or share a neighbor — i.e., a maximal independent set of the
square graph ``G²``. ``MaxUDom(H)``: for bipartite ``H = (U, V, E)``, a
maximal ``I ⊆ U`` with no common V-side neighbor — an MIS of ``H' =
(U, {uw : ∃z ∈ V, uz, zw ∈ E})``.

The §3 insight: *never materialize* ``G²`` or ``H'`` (that costs
matrix-multiplication work). Instead run Luby's select step **in
place**: draw random priorities, then propagate them two hops over the
original adjacency — a constant number of basic operations per round,
for an expected ``O(log n)`` rounds (Lemma 3.1). The relays pass through
*all* nodes, candidate or not, because ``G²``/``H'`` adjacency is
defined by the original graph.

**One body each.** :func:`max_dominator_set` and
:func:`max_u_dominator_set` are the CSR entries of
:mod:`repro.core.dominator_sparse` — the Lemma 3.1 remark's
``O(|E| log |V|)`` work — under their §3 names. They accept a dense
boolean matrix or a ``scipy.sparse`` one and count their rounds under
``maxdom_sparse`` and ``maxudom``. The dense-matrix bodies are kept
under ``tests/`` as the test suite's oracle; seeded selections match
them exactly.
"""

from __future__ import annotations

import math

from repro.core.dominator_sparse import (
    max_dominator_set_sparse as max_dominator_set,
    max_u_dominator_set_sparse as max_u_dominator_set,
)

__all__ = ["max_dominator_set", "max_u_dominator_set", "expected_round_bound"]


def expected_round_bound(n: int) -> int:
    """Reference expected-round envelope ``O(log n)`` with an explicit
    constant (used by the T6 bench to report measured vs. bound)."""
    return max(1, math.ceil(4 * math.log2(max(n, 2)) + 8))
