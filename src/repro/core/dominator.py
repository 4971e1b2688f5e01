"""§3 — Dominator-set variants of maximal independent set.

``MaxDom(G)``: a maximal ``I ⊆ V`` such that no two chosen nodes are
adjacent or share a neighbor — i.e., a maximal independent set of the
square graph ``G²``. ``MaxUDom(H)``: for bipartite ``H = (U, V, E)``, a
maximal ``I ⊆ U`` with no common V-side neighbor — an MIS of ``H' =
(U, {uw : ∃z ∈ V, uz, zw ∈ E})``.

The §3 insight, reproduced exactly here: *never materialize* ``G²`` or
``H'`` (that costs matrix-multiplication work). Instead run Luby's
select step **in place**: draw random priorities, then propagate them
two hops by masked min-reductions over the original adjacency — a
constant number of basic matrix operations per round. Selected nodes
are priority-minima of their (closed) two-hop neighborhoods; they and
their square-graph neighbors leave the candidate pool, and the process
repeats for an expected ``O(log n)`` rounds (Lemma 3.1: ``O(|V|² log
|V|)`` work, ``O(log² |V|)`` depth).

Correctness subtlety encoded below: the two-hop propagation must relay
through *all* nodes of the graph — including nodes no longer candidates
— because ``G²``/``H'`` adjacency is defined by the original graph, so
a removed midpoint still connects two live candidates.

**Frontier compaction.** Only candidates carry finite priorities, so
every masked min above is really a reduction over the candidate rows of
the adjacency matrix: each round gathers those rows into a
``|candidates| × n`` strip (while every node is a candidate the strip
is the matrix itself, used without a gather) and runs the propagation
there — per-round work ``O(n·|candidates|)`` instead of ``O(n²)``.
Relays still pass through all ``n`` columns, preserving the subtlety
above.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError
from repro.pram.machine import PramMachine, ensure_machine


def _as_adjacency(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=bool)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameterError(f"adjacency must be square, got shape {A.shape}")
    if A.shape[0] and not np.array_equal(A, A.T):
        raise InvalidParameterError("adjacency must be symmetric (simple undirected graph)")
    if np.any(np.diagonal(A)):
        A = A.copy()
        np.fill_diagonal(A, False)
    return A


def max_dominator_set(
    adjacency: np.ndarray,
    machine: PramMachine | None = None,
    *,
    backend=None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Maximal dominator set of a simple graph (MIS of ``G²``), §3.

    Parameters
    ----------
    adjacency:
        Symmetric boolean matrix (diagonal ignored).
    machine:
        PRAM machine to execute/charge on; a fresh one if absent.
    backend:
        Execution backend name or instance for a freshly constructed
        machine; mutually exclusive with ``machine``. Selections are
        backend-invariant.
    max_rounds:
        Safety bound; defaults to ``n + 1`` (every round selects the
        globally minimum-priority candidate, so ≥ 1 node leaves per
        round). Expected rounds are ``O(log n)``.

    Returns
    -------
    numpy.ndarray
        Boolean selection mask over the nodes.
    """
    A = _as_adjacency(adjacency)
    n = A.shape[0]
    machine = ensure_machine(machine, backend=backend)
    if n == 0:
        return np.zeros(0, dtype=bool)
    limit = (n + 1) if max_rounds is None else int(max_rounds)

    candidate = np.ones(n, dtype=bool)
    selected = np.zeros(n, dtype=bool)
    for _ in range(limit):
        if not candidate.any():
            return selected
        machine.bump_round("maxdom")
        pi = machine.random_priorities(n).astype(float)
        # Candidate-strip round: propagate over |cand| × n instead of
        # n × n. Non-candidates contribute only +inf to every masked
        # min, so the strip sees exactly the finite values of the full
        # matrix; while every node is a candidate the strip is A itself.
        if candidate.all():
            cand_idx, pim_c, A_rows = np.arange(n), pi, A
        else:
            cand_idx = np.flatnonzero(candidate)
            pim_c = machine.take_rows(pi, cand_idx)
            A_rows = machine.take_rows(A, cand_idx)
        # Two-hop minimum with all nodes as relays (see module docstring):
        # hop1[j] = min over candidate neighbors of j (A symmetric);
        # hop2[i] = min over Γ(i) of min(pim, hop1), with pim the
        # candidates' priorities and +inf elsewhere.
        hop1 = machine.reduce(
            machine.where(A_rows, pim_c[:, None], np.inf), "min", axis=0
        )
        val = machine.map(np.minimum, machine.where(candidate, pi, np.inf), hop1)
        hop2_c = machine.reduce(
            machine.where(A_rows, val[None, :], np.inf), "min", axis=1
        )
        # i's own priority flows back through any neighbor, so hop2 ≤ pim
        # for non-isolated candidates; equality ⇔ strict two-hop minimum
        # (priorities are distinct). Isolated candidates see +inf ⇒ chosen.
        sel_c = machine.map(
            lambda p, h: np.isfinite(p) & (p <= h), pim_c, hop2_c
        )
        sel_local = np.flatnonzero(sel_c)
        sel_idx = cand_idx[sel_local]
        selected[sel_idx] = True
        # Exclude the selected and everything within two hops.
        hop1_hit = (
            machine.reduce(machine.take_rows(A_rows, sel_local), "or", axis=0)
            if sel_idx.size
            else np.zeros(n, dtype=bool)
        )
        hop2_hit_c = machine.reduce(
            machine.where(A_rows, hop1_hit[None, :], False), "or", axis=1
        )
        candidate[cand_idx] = ~(sel_c | hop1_hit[cand_idx] | hop2_hit_c)
        machine.ledger.charge_basic("scatter", max(cand_idx.size, 1), depth=1)
    if candidate.any():
        raise ConvergenceError(f"MaxDom exceeded {limit} rounds (n={n})")
    return selected


def max_u_dominator_set(
    biadjacency: np.ndarray,
    machine: PramMachine | None = None,
    *,
    backend=None,
    candidates: np.ndarray | None = None,
    max_rounds: int | None = None,
) -> np.ndarray:
    """Maximal U-dominator set of a bipartite graph (MIS of ``H'``), §3.

    Parameters
    ----------
    biadjacency:
        ``|U| × |V|`` boolean incidence matrix.
    backend:
        Execution backend name or instance for a freshly constructed
        machine; mutually exclusive with ``machine``. Selections are
        backend-invariant.
    candidates:
        Optional mask restricting which U-nodes may be selected (the
        callers in §5/§6.2 run on subsets of a fixed graph); conflicts
        are still relayed through every V node.
    max_rounds:
        Safety bound, default ``|U| + 1``.

    Returns
    -------
    numpy.ndarray
        Boolean selection mask over U. U-nodes without any V-neighbor
        conflict with nobody and are always selected (if candidates).
    """
    B = np.asarray(biadjacency, dtype=bool)
    if B.ndim != 2:
        raise InvalidParameterError(f"biadjacency must be 2-D, got shape {B.shape}")
    machine = ensure_machine(machine, backend=backend)
    nu = B.shape[0]
    if nu == 0:
        return np.zeros(0, dtype=bool)
    candidate = (
        np.ones(nu, dtype=bool) if candidates is None else np.asarray(candidates, dtype=bool).copy()
    )
    if candidate.shape != (nu,):
        raise InvalidParameterError(
            f"candidates mask must have shape ({nu},), got {candidate.shape}"
        )
    limit = (nu + 1) if max_rounds is None else int(max_rounds)

    selected = np.zeros(nu, dtype=bool)
    for _ in range(limit):
        if not candidate.any():
            return selected
        machine.bump_round("maxudom")
        pi = machine.random_priorities(nu).astype(float)
        # Candidate-strip round over |cand| × |V|: non-candidate rows
        # only ever contribute +inf/False to the V-side reductions, so
        # they are left out (no gather while every row is a candidate).
        if candidate.all():
            cand_idx, pim_c, B_c = np.arange(nu), pi, B
        else:
            cand_idx = np.flatnonzero(candidate)
            pim_c = machine.take_rows(pi, cand_idx)
            B_c = machine.take_rows(B, cand_idx)
        # down[v] = min priority among candidate U-neighbors of v;
        # up[u]   = min over v ∈ Γ(u) of down[v]  (covers u itself).
        down = machine.reduce(
            machine.where(B_c, pim_c[:, None], np.inf), "min", axis=0
        )
        up_c = machine.reduce(
            machine.where(B_c, down[None, :], np.inf), "min", axis=1
        )
        sel_c = machine.map(
            lambda p, h: np.isfinite(p) & ((p <= h) | ~np.isfinite(h)),
            pim_c,
            up_c,
        )
        sel_local = np.flatnonzero(sel_c)
        selected[cand_idx[sel_local]] = True
        # Conflict exclusion: candidates sharing a V-neighbor with a pick.
        v_hit = (
            machine.reduce(machine.take_rows(B_c, sel_local), "or", axis=0)
            if sel_local.size
            else np.zeros(B.shape[1], dtype=bool)
        )
        u_conflict_c = machine.reduce(
            machine.where(B_c, v_hit[None, :], False), "or", axis=1
        )
        candidate[cand_idx] = ~(sel_c | u_conflict_c)
        machine.ledger.charge_basic("scatter", max(cand_idx.size, 1), depth=1)
    if candidate.any():
        raise ConvergenceError(f"MaxUDom exceeded {limit} rounds (|U|={nu})")
    return selected


def expected_round_bound(n: int) -> int:
    """Reference expected-round envelope ``O(log n)`` with an explicit
    constant (used by the T6 bench to report measured vs. bound)."""
    return max(1, math.ceil(4 * math.log2(max(n, 2)) + 8))
