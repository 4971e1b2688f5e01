"""§4 step 1 — lowest-priced maximal stars (Fact 4.2).

A *star* ``(i, C′)`` pairs facility ``i`` with clients ``C′``; its
price is ``(f_i + Σ_{j∈C′} d(j,i)) / |C′|``. By Fact 4.2 the cheapest
maximal star at ``i`` consists of the ``κ_i`` closest clients for some
``κ_i``, so after presorting each facility's candidates **once**, the
per-round computation is a prefix sum over the sorted order restricted
to still-active clients — ``O(m)`` work per round, which keeps Theorem
4.9 within ``O(m log² m)``. The greedy body computes it as a segmented
prefix sum over its live CSR structure
(:func:`repro.core.greedy_sparse._star_prices_sparse`); this module
keeps the Fact 4.2(1) membership rule.
"""

from __future__ import annotations

import numpy as np


def star_members(D: np.ndarray, facility: int, price: float, active: np.ndarray) -> np.ndarray:
    """Clients of the cheapest maximal star (Fact 4.2(1)): exactly the
    active clients with ``d(j, i) ≤ price``. Analysis/test helper."""
    return np.flatnonzero(np.asarray(active, dtype=bool) & (D[facility] <= price + 1e-12))
