"""X1 — the paper's sketched extensions, measured.

Three things the paper mentions but does not develop:

1. §7 remark: local search for facility location ("we do not know how
   to bound the number of rounds") — measure its quality AND its
   empirical round counts, the open quantity.
2. Lemma 3.1 remark: O(|E| log |V|)-work sparse dominator sets —
   measure the work separation from the dense body (kept under
   ``tests/reference`` as the oracle) on bounded-degree graphs.
3. §5's LMP property "enabling … k-median" — run the Jain–Vazirani
   Lagrangian pipeline on the parallel LMP subroutine and measure its
   quality against exact optima.
"""

import numpy as np
from scipy import sparse

from repro.baselines.brute_force import brute_force_facility_location, brute_force_kmedian
from repro.bench.harness import ExperimentTable
from repro.bench.workloads import clustering_ratio_suite, fl_ratio_suite
from repro.core.dominator_sparse import max_dominator_set_sparse
from repro.core.fl_local_search import parallel_fl_local_search
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.pram.machine import PramMachine
from tests.reference.dominator_dense import max_dominator_set


def test_x1_fl_local_search(benchmark, medium_instance):
    table = ExperimentTable(
        "X1a", "FL local search (§7 remark): quality ≤ 3+ε; rounds = open question"
    )
    for name, inst in fl_ratio_suite():
        opt, _ = brute_force_facility_location(inst)
        sol = parallel_fl_local_search(inst, epsilon=0.1, seed=0)
        assert sol.extra["converged"]
        assert sol.cost <= (3 + 0.1) * opt * (1 + 1e-9)
        table.add(
            instance=name,
            ratio=sol.cost / opt,
            rounds=sol.rounds["fl_local_search"],
            moves=len(sol.extra["moves"]),
        )
    table.emit()

    benchmark(lambda: parallel_fl_local_search(medium_instance, epsilon=0.1, seed=0).cost)


def test_x1_sparse_dominator_work(benchmark):
    table = ExperimentTable(
        "X1b", "sparse MaxDom (Lemma 3.1 remark): work O(|E| log n) vs dense O(n² log n)"
    )
    for n in (128, 256, 512):
        rng = np.random.default_rng(n)
        A = np.triu(rng.random((n, n)) < 6.0 / n, 1)
        A = A | A.T
        md = PramMachine(seed=1)
        dense_sel = max_dominator_set(A, md)
        ms = PramMachine(seed=1)
        sparse_sel = max_dominator_set_sparse(sparse.csr_matrix(A), ms)
        assert np.array_equal(dense_sel, sparse_sel)
        table.add(
            n=n,
            edges=int(A.sum() // 2),
            dense_work=md.ledger.work,
            sparse_work=ms.ledger.work,
            separation=md.ledger.work / ms.ledger.work,
        )
        assert ms.ledger.work < md.ledger.work / 5
    table.emit()

    A512 = np.triu(np.random.default_rng(0).random((512, 512)) < 6.0 / 512, 1)
    A512 = sparse.csr_matrix(A512 | A512.T)
    benchmark(lambda: max_dominator_set_sparse(A512, PramMachine(seed=0)).sum())


def test_x1_lagrangian_kmedian(benchmark, medium_clustering):
    table = ExperimentTable(
        "X1c", "Lagrangian k-median on the §5 LMP subroutine (JV pipeline)"
    )
    for name, inst in clustering_ratio_suite():
        opt, _ = brute_force_kmedian(inst, max_subsets=500_000)
        sol = parallel_kmedian_lagrangian(inst, epsilon=0.1, seed=0)
        assert sol.centers.size <= inst.k
        assert sol.cost <= 6.0 * opt * (1 + 1e-9)
        table.add(
            instance=name,
            ratio=sol.cost / opt,
            centers=sol.centers.size,
            k=inst.k,
            probes=len(sol.extra["probes"]),
        )
    table.emit()

    benchmark(
        lambda: parallel_kmedian_lagrangian(
            medium_clustering, epsilon=0.2, seed=0, max_probes=12
        ).cost
    )
