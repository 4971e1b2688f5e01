"""Test-only reference: the dense §3 dominator-set bodies.

The library runs one MaxDom and one MaxUDom body, the CSR ones in
:mod:`repro.core.dominator_sparse`; the public
:func:`~repro.core.dominator.max_dominator_set` and
:func:`~repro.core.dominator.max_u_dominator_set` are those CSR entries.
This module keeps the dense-matrix bodies — Luby's select step run in
place by masked min-reductions over candidate strips of the adjacency —
as the oracle the equivalence suites compare the shipped entries
against, selection for selection on identically seeded machines. It is
not imported by ``src/``.

Relays pass through every node, candidate or not: ``G²``/``H'``
adjacency is defined by the original graph, so a removed midpoint still
connects two live candidates. Their rounds count under ``maxdom`` and
``maxudom``, the labels the CSR bodies count under, so a seeded run's
round counters compare directly.
"""

from __future__ import annotations

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
