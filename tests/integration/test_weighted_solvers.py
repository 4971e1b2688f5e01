"""Weighted solver certification.

Three gates over the weighted paths (the shard-and-conquer substrate):

1. **unit-weight parity** — an explicit all-ones weight vector produces
   byte-identical seeded solutions to the unweighted instance on every
   solver (the weighted code is provably dormant at unit weights);
2. **weighted ratio certification** — on the ``weighted_*`` ratio
   suites, solver costs stay within the paper bounds of the exact
   *weighted* brute-force optimum;
3. **duplicate-metamorphic** — solving an instance with a client
   physically duplicated matches solving the weight-2 collapsed
   instance (cost-wise), on the dense and sparse paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.brute_force import (
    brute_force_facility_location,
    brute_force_kmedian,
)
from repro.bench.workloads import weighted_clustering_ratio_suite, weighted_fl_ratio_suite
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.local_search import parallel_kmedian
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.sparse import (
    SparseClusteringInstance,
    SparseFacilityLocationInstance,
)
from tests.reference.greedy_dense import greedy_dense
from tests.reference.local_search_dense import local_search_dense
from tests.reference.primal_dual_dense import primal_dual_dense

EPS = 0.2


# -- unit-weight parity -----------------------------------------------------

def test_unit_weight_parity_clustering():
    from repro.metrics.generators import euclidean_clustering

    base = euclidean_clustering(30, 3, seed=21)
    ones = ClusteringInstance(base.space, 3, weights=np.ones(30))
    for inst_a, inst_b in ((base, ones),):
        a = parallel_kmedian(inst_a, seed=5, epsilon=0.5)
        b = parallel_kmedian(inst_b, seed=5, epsilon=0.5)
        assert np.array_equal(a.centers, b.centers)
        assert a.cost == b.cost
    sa = parallel_kcenter(SparseClusteringInstance.from_instance(base), seed=5)
    sb = parallel_kcenter(SparseClusteringInstance.from_instance(ones), seed=5)
    assert np.array_equal(sa.centers, sb.centers)


def test_unit_weight_parity_fl():
    from repro.metrics.generators import euclidean_instance

    base = euclidean_instance(7, 18, seed=31)
    ones = FacilityLocationInstance(base.D, base.f, client_weights=np.ones(18))
    # each solver ships one (CSR) body; its dense side is the reference
    for fn, dense_fn in ((parallel_greedy, greedy_dense), (parallel_primal_dual, primal_dual_dense)):
        a = dense_fn(base, seed=9, epsilon=EPS)
        b = dense_fn(ones, seed=9, epsilon=EPS)
        assert np.array_equal(a.opened, b.opened)
        assert a.cost == b.cost
        # sparse path too
        sa = fn(SparseFacilityLocationInstance.from_instance(base), seed=9, epsilon=EPS)
        sb = fn(SparseFacilityLocationInstance.from_instance(ones), seed=9, epsilon=EPS)
        assert np.array_equal(sa.opened, sb.opened)
        assert np.array_equal(a.opened, sa.opened)


# -- weighted ratio certification vs brute force ----------------------------

@pytest.mark.parametrize(
    "name,instance", weighted_clustering_ratio_suite(0), ids=lambda p: str(p)
)
def test_weighted_kmedian_within_local_search_bound(name, instance):
    if not isinstance(instance, ClusteringInstance):
        pytest.skip("clustering entries only")
    opt, _ = brute_force_kmedian(instance)
    sol = parallel_kmedian(instance, seed=3, epsilon=0.5)
    assert sol.cost == pytest.approx(instance.kmedian_cost(sol.centers))
    # Theorem 7.1 polynomial-variant bound (5 + ε), with float headroom.
    assert sol.cost <= (5.0 + 0.5) * opt * (1 + 1e-9)


@pytest.mark.parametrize(
    "name,instance", weighted_fl_ratio_suite(0), ids=lambda p: str(p)
)
def test_weighted_fl_within_paper_bounds(name, instance):
    if not isinstance(instance, FacilityLocationInstance):
        pytest.skip("FL entries only")
    opt, _ = brute_force_facility_location(instance)
    greedy = parallel_greedy(instance, seed=1, epsilon=EPS)
    pd = parallel_primal_dual(instance, seed=1, epsilon=EPS)
    # §4: (1+ε)·H_n-ish dual-fitting constant ≤ 3.16(1+ε)²; §5: 3+ε.
    assert greedy.cost <= 3.16 * (1 + EPS) ** 2 * opt * (1 + 1e-9)
    assert pd.cost <= (3.0 + 3 * EPS) * opt * (1 + 1e-9)
    # the weighted sparse path agrees with the dense reference run
    sg = parallel_greedy(
        SparseFacilityLocationInstance.from_instance(instance), seed=1, epsilon=EPS
    )
    assert np.array_equal(sg.opened, greedy_dense(instance, seed=1, epsilon=EPS).opened)


# -- duplicate-metamorphic on solvers ---------------------------------------

def test_solver_duplicate_equals_weight_two_fl():
    from repro.metrics.generators import euclidean_instance

    base = euclidean_instance(6, 12, seed=41)
    w = np.ones(12)
    w[[3, 8]] = 2.0
    weighted = FacilityLocationInstance(base.D, base.f, client_weights=w)
    cols = np.repeat(np.arange(12), w.astype(int))
    expanded = FacilityLocationInstance(base.D[:, cols], base.f)
    # Greedy: duplicates vote identically to their twin, so weighted
    # degrees/votes reproduce the expanded run decision-for-decision.
    sw = parallel_greedy(weighted, seed=2, epsilon=EPS)
    se = parallel_greedy(expanded, seed=2, epsilon=EPS)
    assert np.array_equal(sw.opened, se.opened)
    assert sw.cost == pytest.approx(se.cost)
    # Primal–dual: the payment dynamics collapse exactly, but the §3
    # MaxUDom post-processing sees duplicated client *nodes* vs one
    # weighted node and may pick a different (equally valid) survivor —
    # so assert the guarantee, not equality.
    opt, _ = brute_force_facility_location(weighted)
    pw = parallel_primal_dual(weighted, seed=2, epsilon=EPS)
    pe = parallel_primal_dual(expanded, seed=2, epsilon=EPS)
    assert pw.cost == pytest.approx(weighted.cost(pw.opened))
    assert pe.cost == pytest.approx(weighted.cost(pe.opened))  # same objective either way
    for sol in (pw, pe):
        assert sol.cost <= (3.0 + 3 * EPS) * opt * (1 + 1e-9)


def test_solver_duplicate_equals_weight_two_kmedian():
    from repro.metrics.generators import euclidean_clustering
    from repro.metrics.space import MetricSpace

    base = euclidean_clustering(20, 3, seed=51)
    w = np.ones(20)
    w[[1, 9, 14]] = 2.0
    weighted = ClusteringInstance(base.space, 3, weights=w)
    reps = np.repeat(np.arange(20), w.astype(int))
    expanded = ClusteringInstance(
        MetricSpace(base.D[np.ix_(reps, reps)], validate=False), 3
    )
    sw = parallel_kmedian(weighted, seed=6, epsilon=0.5)
    se = parallel_kmedian(expanded, seed=6, epsilon=0.5)
    # label sets differ (duplicates are distinct nodes); the weighted
    # objective of each solution must agree with the other's cost to
    # within the (1-β/k)-local-optimum slack of the swap loop.
    assert sw.cost == pytest.approx(weighted.kmedian_cost(sw.centers))
    assert se.cost == pytest.approx(expanded.kmedian_cost(se.centers))
    assert abs(sw.cost - se.cost) <= 0.35 * max(sw.cost, se.cost)


def test_weighted_sparse_local_search_matches_dense():
    from repro.metrics.generators import euclidean_clustering

    base = euclidean_clustering(26, 3, seed=61)
    w = np.random.default_rng(7).uniform(0.5, 3.0, 26)
    weighted = ClusteringInstance(base.space, 3, weights=w)
    dense = local_search_dense(weighted, seed=8, epsilon=0.5)
    sparse = parallel_kmedian(
        SparseClusteringInstance.from_instance(weighted), seed=8, epsilon=0.5
    )
    assert np.array_equal(dense.centers, sparse.centers)
    assert dense.cost == pytest.approx(sparse.cost)


def test_weighted_fl_paths_agree_dense_sparse():
    """The weighted threading must not desynchronize the two execution
    paths: dense and sparse runs of greedy and primal–dual return
    identical seeded solutions on a dense-representable weighted
    instance."""
    from repro.metrics.generators import euclidean_instance

    base = euclidean_instance(12, 40, seed=17)
    w = np.random.default_rng(3).uniform(0.5, 4.0, 40)
    inst = FacilityLocationInstance(base.D, base.f, client_weights=w)
    sp = SparseFacilityLocationInstance.from_instance(inst)
    # each solver ships one (CSR) body; its dense side is the reference
    for fn, dense_fn in ((parallel_greedy, greedy_dense), (parallel_primal_dual, primal_dual_dense)):
        dense = dense_fn(inst, seed=5, epsilon=0.15)
        sparse = fn(sp, seed=5, epsilon=0.15)
        assert np.array_equal(dense.opened, sparse.opened)
        assert dense.cost == sparse.cost
        assert np.array_equal(dense.alpha, sparse.alpha)


@pytest.mark.parametrize("weight", [1e-6, 1e-9])
def test_primal_dual_converges_with_tiny_fractional_weights(weight):
    """Fractional coreset weights shrink payments by w; the geometric
    schedule must get log_{1+ε}(1/w_min) extra levels instead of
    raising ConvergenceError (regression for the weight-blind cap)."""
    from repro.metrics.generators import euclidean_instance

    base = euclidean_instance(8, 24, seed=13)
    w = np.full(24, weight)
    w[0] = 1.0  # mixed spread
    inst = FacilityLocationInstance(base.D, base.f, client_weights=w)
    for variant in (inst, SparseFacilityLocationInstance.from_instance(inst)):
        sol = parallel_primal_dual(variant, seed=1, epsilon=EPS)
        assert sol.opened.size >= 1
        assert np.isfinite(sol.cost)
