"""Cross-algorithm integration: the paper's algorithms side by side.

These tests run multiple algorithms on shared instances and verify the
*relationships* the paper implies: all approximation chains anchored at
the same exact optimum, parallel vs sequential quality classes, dual
values nested under the LP optimum, and identical results across
execution backends.
"""

import pytest

from repro import (
    PramMachine,
    ProcessBackend,
    parallel_greedy,
    parallel_kcenter,
    parallel_kmedian,
    parallel_lp_rounding,
    parallel_primal_dual,
)
from repro.baselines import (
    brute_force_facility_location,
    brute_force_kcenter,
    brute_force_kmedian,
    gonzalez_kcenter,
    greedy_jms,
    hochbaum_shmoys_kcenter,
    jv_sequential,
    local_search_kmedian_seq,
)
from repro.bench.workloads import clustering_ratio_suite, fl_ratio_suite
from repro.lp.solve import lp_lower_bound, solve_dual, solve_primal


@pytest.mark.parametrize("name,inst", fl_ratio_suite(seed=0))
def test_all_fl_algorithms_respect_their_factors(name, inst):
    """One instance, all four FL algorithms, one exact optimum."""
    opt, _ = brute_force_facility_location(inst)
    eps = 0.1
    gamma_slack = 3.0 / inst.m  # primal–dual preprocessing allowance

    g = parallel_greedy(inst, epsilon=eps, seed=1)
    assert g.cost <= (6 + eps) * opt * (1 + 1e-9), f"greedy on {name}"

    pd = parallel_primal_dual(inst, epsilon=eps, seed=1)
    assert pd.cost <= (3 * (1 + eps) + gamma_slack) * opt * (1 + 1e-9) + 3 * pd.extra["gamma"] / inst.m

    primal = solve_primal(inst)
    lr = parallel_lp_rounding(inst, primal, epsilon=eps, seed=1)
    assert lr.cost <= (4 * (1 + eps)) * primal.value * (1 + 1e-9) + primal.value / inst.m

    sg = greedy_jms(inst)
    assert sg.cost <= 1.861 * opt * (1 + 1e-9)

    sj = jv_sequential(inst)
    assert sj.cost <= 3 * opt * (1 + 1e-9)


@pytest.mark.parametrize("name,inst", fl_ratio_suite(seed=0))
def test_dual_chains_nest_under_lp(name, inst):
    """Σα from both dual-producing algorithms sits below the LP optimum,
    which sits below the integral optimum."""
    opt, _ = brute_force_facility_location(inst)
    lp = lp_lower_bound(inst)
    assert lp <= opt + 1e-7

    pd = parallel_primal_dual(inst, epsilon=0.1, seed=2)
    assert pd.alpha.sum() <= lp * (1 + 1e-7)

    jv = jv_sequential(inst)
    assert jv.alpha.sum() <= lp * (1 + 1e-7)

    d = solve_dual(inst)
    assert d.value == pytest.approx(lp, rel=1e-7)


@pytest.mark.parametrize("name,inst", clustering_ratio_suite(seed=0))
def test_all_kcenter_algorithms_agree_on_class(name, inst):
    opt, _ = brute_force_kcenter(inst, max_subsets=500_000)
    par = parallel_kcenter(inst, seed=3)
    seq = hochbaum_shmoys_kcenter(inst)
    gz = gonzalez_kcenter(inst)
    for radius in (par.cost, seq.radius, inst.kcenter_cost(gz)):
        assert radius <= 2 * opt * (1 + 1e-9), name


@pytest.mark.parametrize("name,inst", clustering_ratio_suite(seed=0))
def test_kmedian_parallel_and_sequential(name, inst):
    opt, _ = brute_force_kmedian(inst, max_subsets=500_000)
    par = parallel_kmedian(inst, epsilon=0.3, seed=3)
    seq = local_search_kmedian_seq(inst, epsilon=0.3)
    assert par.cost <= (5 + 0.3) * opt * (1 + 1e-9), name
    assert seq.cost <= (5 + 0.3) * opt * (1 + 1e-9), name


def test_ledger_work_identical_across_backends(small_fl):
    """The model charge is a function of the algorithm, not the backend."""
    m1 = PramMachine(seed=5)
    parallel_primal_dual(small_fl, epsilon=0.1, machine=m1)
    with ProcessBackend(2) as backend:
        m2 = PramMachine(backend=backend, seed=5)
        parallel_primal_dual(small_fl, epsilon=0.1, machine=m2)
    assert m1.ledger.work == pytest.approx(m2.ledger.work)
    assert m1.ledger.depth == pytest.approx(m2.ledger.depth)


def test_primal_dual_usually_beats_greedy_bound(small_fl, clustered_fl):
    """Not a theorem — a sanity expectation: the (3+ε) algorithm should
    not be wildly worse than the (6+ε) one on benign inputs."""
    for inst in (small_fl, clustered_fl):
        g = parallel_greedy(inst, epsilon=0.1, seed=6)
        pd = parallel_primal_dual(inst, epsilon=0.1, seed=6)
        assert pd.cost <= 2.5 * g.cost


def test_warm_start_chain(small_clustering):
    """§7's pipeline: k-center warm start feeds local search and the
    final cost never exceeds the warm start's k-median cost."""
    kc = parallel_kcenter(small_clustering, seed=7)
    km = parallel_kmedian(small_clustering, epsilon=0.3, seed=7, initial=kc.centers)
    assert km.cost <= small_clustering.kmedian_cost(kc.centers) * (1 + 1e-12)
