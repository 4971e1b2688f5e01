"""Lagrangian k-median on the §5 LMP primal–dual."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_kmedian
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.errors import InvalidParameterError
from repro.metrics.generators import clustered_clustering, euclidean_clustering


FIXTURES = ["small_clustering", "blob_clustering"]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_respects_budget(fixture, request):
    inst = request.getfixturevalue(fixture)
    sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0)
    assert 1 <= sol.centers.size <= inst.k


@pytest.mark.parametrize("fixture", FIXTURES)
def test_quality_within_jv_envelope(fixture, request):
    """The JV pipeline's factor is 6 (with convex combination, 2·LMP·3);
    measured solutions land far inside it on these workloads."""
    inst = request.getfixturevalue(fixture)
    opt, _ = brute_force_kmedian(inst, max_subsets=200_000)
    sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0)
    assert sol.cost <= 6.0 * opt * (1 + 1e-9)


def test_blobs_recover_structure():
    inst = clustered_clustering(40, 4, spread=0.02, seed=5)
    opt, _ = brute_force_kmedian(inst, max_subsets=200_000)
    sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0)
    assert sol.cost <= 2.0 * opt


def test_binary_search_brackets():
    inst = euclidean_clustering(30, 3, seed=9)
    sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0)
    lo = sol.extra["bracket_low"]
    assert lo is not None and lo[1] <= inst.k
    hi = sol.extra["bracket_high"]
    if hi is not None:
        assert hi[1] > inst.k
        assert hi[0] <= lo[0]  # more facilities at the cheaper price


def test_probe_trace_recorded():
    inst = euclidean_clustering(25, 3, seed=2)
    sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0, max_probes=12)
    assert 1 <= len(sol.extra["probes"]) <= 12
    assert all("lambda" in p and "n_open" in p for p in sol.extra["probes"])


def test_k_equals_n_trivial():
    inst = euclidean_clustering(8, 8, seed=0)
    sol = parallel_kmedian_lagrangian(inst, seed=0)
    assert sol.cost == 0.0


def test_deterministic(small_clustering):
    a = parallel_kmedian_lagrangian(small_clustering, epsilon=0.1, seed=4)
    b = parallel_kmedian_lagrangian(small_clustering, epsilon=0.1, seed=4)
    assert np.array_equal(a.centers, b.centers)


def test_cost_matches_instance(small_clustering):
    sol = parallel_kmedian_lagrangian(small_clustering, epsilon=0.1, seed=0)
    assert sol.cost == pytest.approx(small_clustering.kmedian_cost(sol.centers))


def test_max_probes_validated(small_clustering):
    with pytest.raises(InvalidParameterError):
        parallel_kmedian_lagrangian(small_clustering, max_probes=0)


def test_subnormal_epsilon_refused():
    """The per-probe primal–dual's iteration cap refuses an ε whose
    ``log_(1+ε)`` overflows, rather than raising ``OverflowError``."""
    with pytest.raises(InvalidParameterError, match="epsilon"):
        parallel_kmedian_lagrangian(euclidean_clustering(30, 3, seed=0), epsilon=5e-324)


def test_probes_share_one_edge_order(monkeypatch):
    """The call sorts its edges and checks its row order once; no probe
    re-derives γ over every edge or packs a frontier when nothing opens
    free or freezes. Each probe re-keyed and counting-sorted all n²
    edges, and recomputed γ and the row-order check over them."""
    from repro.core import kmedian_lagrangian, primal_dual_sparse as pds
    from repro.pram.machine import PramMachine

    calls = {"order": 0, "ascending": 0, "gamma_pass": 0, "frontier_pack": 0}

    def counted(name, real):
        def run(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return run

    monkeypatch.setattr(kmedian_lagrangian, "_edge_order", counted("order", pds._edge_order))
    monkeypatch.setattr(
        pds, "rows_strictly_ascending", counted("ascending", pds.rows_strictly_ascending)
    )
    monkeypatch.setattr(pds, "_sparse_gamma", counted("gamma_pass", pds._sparse_gamma))
    monkeypatch.setattr(pds._Edges, "pack", counted("frontier_pack", pds._Edges.pack))
    sol = parallel_kmedian_lagrangian(
        euclidean_clustering(60, 5, seed=3), epsilon=0.1, machine=PramMachine(seed=3)
    )
    assert len(sol.extra["probes"]) > 3
    assert calls == {"order": 1, "ascending": 1, "gamma_pass": 0, "frontier_pack": 0}
