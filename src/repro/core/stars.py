"""§4 step 1 — lowest-priced maximal stars via presorted prefix sums.

A *star* ``(i, C′)`` pairs facility ``i`` with clients ``C′``; its
price is ``(f_i + Σ_{j∈C′} d(j,i)) / |C′|``. By Fact 4.2 the cheapest
maximal star at ``i`` consists of the ``κ_i`` closest clients for some
``κ_i``, so after presorting each facility's distance row **once**, the
per-round computation is a prefix sum over the sorted order restricted
to still-active clients — basic matrix operations only, ``O(m)`` work
per round (this is what keeps Theorem 4.9 within ``O(m log² m)``).
"""

from __future__ import annotations

import numpy as np

from repro.pram.machine import PramMachine


def presort_distances(machine: PramMachine, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-time presort of the distance matrix.

    Returns ``(order, D_sorted)`` where ``order[i]`` is the ascending
    client permutation of facility ``i``'s row and ``D_sorted`` the
    reordered distances. Charged as the single sort the §4 analysis
    allows ("it also requires a single sort in the preprocessing").
    """
    order = machine.argsort_rows(D)
    D_sorted = machine.gather_rows(D, order)
    return order, D_sorted


def compact_sorted_columns(
    machine: PramMachine,
    sorted_ids: np.ndarray,
    sorted_d: np.ndarray,
    active: np.ndarray,
    sorted_w: np.ndarray | None = None,
) -> tuple:
    """Drop inactive clients from the presorted per-facility structure.

    ``sorted_ids``/``sorted_d`` hold each facility's remaining clients
    in ascending-distance order (initially the output of
    :func:`presort_distances`); ``active`` is the global client mask.
    Every row contains each client at most once, so removing a client
    set drops the same count per row and the pack stays rectangular.
    Cost: one map + one row-pack over the *current* frontier — this is
    what keeps later rounds from paying for served clients.

    With ``sorted_w`` (the per-row client weights in the same sorted
    order, weighted instances only) a third packed array is returned.
    """
    keep = machine.map(lambda ids: np.asarray(active, dtype=bool)[ids], sorted_ids)
    ids = machine.pack_rows(sorted_ids, keep)
    d = machine.pack_rows(sorted_d, keep)
    if sorted_w is None:
        return ids, d
    return ids, d, machine.pack_rows(sorted_w, keep)


def cheapest_star_prices_compact(
    machine: PramMachine,
    live_d: np.ndarray,
    f_current: np.ndarray,
    live_w: np.ndarray | None = None,
) -> np.ndarray:
    """Price of the cheapest (maximal) star at every facility.

    ``live_d`` is the frontier-compacted ``n_f × |C_active|`` sorted
    distance matrix from :func:`compact_sorted_columns` (initially
    :func:`presort_distances`' ``D_sorted``). Every column is live, so
    the prefix count of a star's clients is the column index and the
    whole computation is one scan, one map, and one reduce over the
    remaining instance: ``prices[i] = min_k (f_i + Σ of the k closest
    active distances)/k``, ``+inf`` for every facility once no client
    is active.

    ``live_w`` (same layout, weighted instances only) switches the
    price to ``(f_i + Σ w·d) / Σ w`` over each prefix — the same
    exchange argument holds: for any weighted client budget the
    cheapest fill is ascending by distance.
    """
    nf, live = live_d.shape
    if live == 0:
        return np.full(nf, np.inf)
    if live_w is None:
        psum = machine.scan(live_d, "add", axis=1)
        rank = np.arange(1.0, live + 1.0)
        candidate = machine.map(
            lambda p, r, fc: (fc + p) / r,
            psum,
            rank[None, :],
            np.asarray(f_current, dtype=float)[:, None],
        )
        return machine.reduce(candidate, "min", axis=1)
    psum = machine.scan(machine.map(np.multiply, live_d, live_w), "add", axis=1)
    rank = machine.scan(live_w, "add", axis=1)
    candidate = machine.map(
        lambda p, r, fc: (fc + p) / np.where(r > 0, r, 1.0),
        psum,
        rank,
        np.asarray(f_current, dtype=float)[:, None],
    )
    return machine.reduce(candidate, "min", axis=1)


def star_members(D: np.ndarray, facility: int, price: float, active: np.ndarray) -> np.ndarray:
    """Clients of the cheapest maximal star (Fact 4.2(1)): exactly the
    active clients with ``d(j, i) ≤ price``. Analysis/test helper."""
    return np.flatnonzero(np.asarray(active, dtype=bool) & (D[facility] <= price + 1e-12))
