"""T6 — Lemma 3.1: dominator sets in O(log n) rounds, O(|E| log n) work.

Measured: Luby round counts vs the O(log n) envelope across sizes and
densities; ledger work vs the remark's O(|E| log |V|) model (the §3
entries run the CSR bodies); timed select-step kernel.
"""

import numpy as np

from repro.analysis.scaling import fit_work_exponent
from repro.bench.harness import ExperimentTable
from repro.core.dominator import expected_round_bound, max_dominator_set, max_u_dominator_set
from repro.pram.machine import PramMachine


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < p, 1)
    return A | A.T


def test_t6_maxdom_rounds_and_work(benchmark):
    table = ExperimentTable("T6a", "MaxDom rounds vs O(log n); work vs O(|E| log n)")
    ns, works = [], []
    for n in (32, 64, 128, 256):
        rounds_seen = []
        work_seen = []
        for seed in range(3):
            A = random_graph(n, 8.0 / n, seed)  # constant average degree
            m = PramMachine(seed=seed)
            max_dominator_set(A, m)
            rounds_seen.append(m.ledger.rounds["maxdom_sparse"])
            work_seen.append(m.ledger.work)
        table.add(
            n=n,
            rounds_mean=float(np.mean(rounds_seen)),
            rounds_max=max(rounds_seen),
            bound=expected_round_bound(n),
            work_mean=float(np.mean(work_seen)),
        )
        assert max(rounds_seen) <= expected_round_bound(n)
        ns.append(n)
        works.append(float(np.mean(work_seen)))
    table.emit()
    fit = fit_work_exponent(ns, works, log_power=1.0)
    assert 0.5 <= fit.exponent <= 1.5  # ~ |E| ∝ n at constant degree, log removed

    A = random_graph(128, 8.0 / 128, 0)
    benchmark(lambda: max_dominator_set(A, PramMachine(seed=0)).sum())


def test_t6_maxudom_rounds(benchmark):
    table = ExperimentTable("T6b", "MaxUDom rounds vs O(log n)")
    for nu, nv in ((40, 30), (80, 60), (160, 120)):
        rounds_seen = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            B = rng.random((nu, nv)) < 4.0 / nv
            m = PramMachine(seed=seed)
            max_u_dominator_set(B, m)
            rounds_seen.append(m.ledger.rounds["maxudom"])
        table.add(U=nu, V=nv, rounds_max=max(rounds_seen), bound=expected_round_bound(nu))
        assert max(rounds_seen) <= expected_round_bound(nu)
    table.emit()

    rng = np.random.default_rng(0)
    B = rng.random((80, 60)) < 4.0 / 60
    benchmark(lambda: max_u_dominator_set(B, PramMachine(seed=0)).sum())
