"""Sparse-instance walkthrough — from truncation safety to 100k clients.

Four acts:

1. *Parity*: a dense instance and its full-CSR twin give byte-identical
   seeded solutions — the solvers run a dense instance as its full CSR.
2. *Truncation*: how solution quality degrades (or doesn't) as k-NN
   truncation tightens, priced in the dense objective.
3. *Scale*: k-NN instances the dense path cannot hold, with ledger
   work confirming O(nnz)-per-round execution.
4. *Clustering*: the §6.1/§7 solvers on the same CSR subsystem —
   k-center + warm-started k-median at node counts where the dense
   n×n matrix is off the table.

Run:  python examples/sparse_scaling.py
"""

import time
import tracemalloc

import numpy as np

from repro import (
    PramMachine,
    SparseFacilityLocationInstance,
    euclidean_instance,
    knn_clustering_instance,
    knn_instance,
    knn_sparsify,
    parallel_greedy,
    parallel_kcenter,
    parallel_kmedian,
    parallel_primal_dual,
)


def act_1_parity():
    print("— act 1: dense-representable parity —")
    dense = euclidean_instance(20, 80, seed=0)
    full = SparseFacilityLocationInstance.from_instance(dense)
    a = parallel_greedy(dense, epsilon=0.1, machine=PramMachine(seed=7))
    b = parallel_greedy(full, epsilon=0.1, machine=PramMachine(seed=7))
    assert np.array_equal(a.opened, b.opened) and a.cost == b.cost
    assert np.array_equal(a.alpha, b.alpha)
    print(f"  greedy: dense instance and CSR twin byte-identical (cost {a.cost:.4f})")
    a = parallel_primal_dual(dense, epsilon=0.1, machine=PramMachine(seed=7))
    b = parallel_primal_dual(full, epsilon=0.1, machine=PramMachine(seed=7))
    assert np.array_equal(a.opened, b.opened) and a.cost == b.cost
    print(f"  primal–dual: byte-identical too (cost {a.cost:.4f})")


def act_2_truncation():
    print("\n— act 2: how tight can k-NN truncation go? —")
    dense = euclidean_instance(30, 300, seed=1)
    ref = parallel_greedy(dense, epsilon=0.1, machine=PramMachine(seed=3))
    print(f"  {'k':>4} {'nnz':>7} {'sparse cost':>12} {'densely priced':>15}")
    for k in (30, 12, 6, 3):
        trunc = knn_sparsify(dense, k)
        sol = parallel_greedy(trunc, epsilon=0.1, machine=PramMachine(seed=3))
        densely = dense.cost(sol.opened)
        print(
            f"  {k:>4} {trunc.nnz:>7} {sol.cost:>12.4f} {densely:>15.4f}"
            f"   (dense ref {ref.cost:.4f})"
        )
    print("  guidance: once k covers the dense optimum's assignments, the")
    print("  truncated run reproduces it; the fallback column keeps every")
    print("  objective finite before that point.")


def act_3_scale():
    print("\n— act 3: client counts the dense path cannot hold —")
    for n_c in (10_000, 100_000):
        n_f = n_c // 10
        inst = knn_instance(n_f, n_c, k=8, seed=0)
        dense_gib = n_f * n_c * 8 / 2**30
        tracemalloc.start()
        t0 = time.perf_counter()
        machine = PramMachine(seed=1)
        sol = parallel_greedy(inst, epsilon=0.2, machine=machine)
        wall = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(
            f"  {n_f}x{n_c} (nnz {inst.nnz}): greedy {wall:.2f}s, "
            f"peak {peak / 2**20:.0f} MiB, ledger work {machine.ledger.work:.3g} "
            f"— dense matrix would need {dense_gib:.2f} GiB"
        )
    print("  per-round work scales with the live edge frontier, not n_f·n_c.")


def act_4_clustering():
    print("\n— act 4: clustering at sparse scale —")
    n, k, neighbors = 20_000, 400, 64
    inst = knn_clustering_instance(n, k, neighbors=neighbors, seed=0)
    dense_gib = n * n * 8 / 2**30
    t0 = time.perf_counter()
    kc = parallel_kcenter(inst, machine=PramMachine(seed=1))
    t1 = time.perf_counter()
    km = parallel_kmedian(
        inst, epsilon=0.5, machine=PramMachine(seed=1), initial=kc.centers
    )
    t2 = time.perf_counter()
    print(
        f"  n={n}, k={k}, nnz={inst.nnz}: k-center {t1 - t0:.2f}s "
        f"({kc.centers.size} centers, radius {kc.cost:.4f}, "
        f"{kc.extra['probes']} probes)"
    )
    print(
        f"  warm-started k-median {t2 - t1:.2f}s "
        f"({km.rounds['local_search']} swap rounds, cost {km.cost:.1f}) "
        f"— dense matrix would need {dense_gib:.1f} GiB"
    )
    print("  every swap round is O(nnz) segmented scatter work, not O(k·n²).")


if __name__ == "__main__":
    act_1_parity()
    act_2_truncation()
    act_3_scale()
    act_4_clustering()
