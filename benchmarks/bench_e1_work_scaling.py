"""E1 — §1.1 work-efficiency table: fitted work exponents.

The paper's claims, in m = n_f·n_c (facility location) or n (clustering):

  greedy        O(m log²_{1+ε} m)   → exponent 1 in m (log² divided out)
  primal–dual   O(m log_{1+ε} m)    → exponent 1 in m (log divided out)
  k-center      O((n log n)²)        → exponent 1 in n² (log² divided out)
  LP rounding   O(m log m log_{1+ε} m) → exponent 1 in m
  local search  O(k²(n−k)n log n)    → exponent ~2 in n at fixed k

Measured on geometric size sweeps from the PRAM ledger; fitted
log–log slopes must land within ±0.35 of the claim (small sweeps keep
wide tolerance; the printed table records the exact numbers).
"""

import numpy as np

from repro.analysis.scaling import fit_work_exponent
from repro.bench.harness import ExperimentTable
from repro.bench.workloads import clustering_scaling_suite, fl_scaling_suite
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.local_search import parallel_kmedian
from repro.core.lp_rounding import parallel_lp_rounding
from repro.core.primal_dual import parallel_primal_dual
from repro.lp.solve import solve_primal
from repro.pram.machine import PramMachine

EPS = 0.2


def _ledger_work(fn, inst, seed=0):
    m = PramMachine(seed=seed)
    fn(inst, m)
    return m.ledger.work


def test_e1_fl_algorithms(benchmark):
    table = ExperimentTable("E1a", "work exponents: facility-location algorithms (claim: 1.0 in m)")
    suite = fl_scaling_suite()
    ms = [inst.m for _, inst in suite]

    runs = {
        "greedy (log² removed)": (
            lambda inst, m: parallel_greedy(inst, epsilon=EPS, machine=m),
            2.0,
        ),
        "primal-dual (log removed)": (
            lambda inst, m: parallel_primal_dual(inst, epsilon=EPS, machine=m),
            1.0,
        ),
        "lp-rounding (log² removed)": (
            lambda inst, m: parallel_lp_rounding(
                inst, solve_primal(inst), epsilon=EPS, machine=m
            ),
            2.0,
        ),
    }
    for name, (fn, logpow) in runs.items():
        works = [_ledger_work(fn, inst) for _, inst in suite]
        fit = fit_work_exponent(ms, works, log_power=logpow)
        table.add(algorithm=name, exponent=fit.exponent, claim=1.0,
                  work_small=works[0], work_large=works[-1])
        assert 0.65 <= fit.exponent <= 1.35, name
    table.emit()

    inst = suite[1][1]
    benchmark(lambda: _ledger_work(runs["primal-dual (log removed)"][0], inst))


def test_e1_clustering_algorithms(benchmark):
    table = ExperimentTable("E1b", "work exponents: clustering algorithms")
    suite = clustering_scaling_suite(sizes=(40, 60, 90, 135, 200), k=5)
    ns = [inst.n for _, inst in suite]

    kc_works = [_ledger_work(lambda i, m: parallel_kcenter(i, machine=m), inst) for _, inst in suite]
    kc_fit = fit_work_exponent(np.square(ns), kc_works, log_power=2.0)
    table.add(algorithm="k-center (in n², log² removed)", exponent=kc_fit.exponent, claim=1.0)
    assert 0.65 <= kc_fit.exponent <= 1.35

    ls_works = [
        _ledger_work(lambda i, m: parallel_kmedian(i, epsilon=0.3, machine=m), inst)
        for _, inst in suite
    ]
    ls_fit = fit_work_exponent(ns, ls_works, log_power=1.0)
    table.add(algorithm="k-median local search (in n, log removed)", exponent=ls_fit.exponent, claim=2.0)
    assert 1.5 <= ls_fit.exponent <= 2.7
    table.emit()

    inst = suite[0][1]
    benchmark(lambda: _ledger_work(lambda i, m: parallel_kcenter(i, machine=m), inst))
