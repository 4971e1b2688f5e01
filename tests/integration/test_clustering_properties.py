"""Metamorphic property suite for the clustering solvers.

Three families of invariants, asserted for every clustering solver on
dense, full-CSR sparse, and kNN-truncated sparse instances, across
execution backends:

* **Permutation equivariance** — relabeling the nodes (and relabeling
  the per-node randomness consistently) permutes the returned centers
  and leaves the cost unchanged. The randomness is relabeled through a
  machine whose ``random_priorities`` draws are composed with the
  permutation, so the solvers' selection logic is exercised, not
  bypassed.
* **Scale equivariance** — ``d → 2·d`` (a power of two, so every float
  operation scales exactly) returns the identical center set with the
  cost scaled by ``2`` (k-median, k-center) or ``4`` (k-means).
* **Duplicate-point invariance** — appending an exact copy of a node
  keeps the objectives consistent (evaluating with either copy is
  byte-identical) and every solver stays inside its approximation
  envelope on the augmented instance, exercising the exact-zero-
  distance tie handling.
"""

import numpy as np
import pytest

from repro import PramMachine, SerialBackend, ThreadBackend
from repro.baselines.brute_force import (
    brute_force_kcenter,
    brute_force_kmeans,
    brute_force_kmedian,
)
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_local_search
from repro.metrics.generators import euclidean_clustering
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance, knn_sparsify

BACKEND_NAMES = ("serial", "thread")


@pytest.fixture(scope="module")
def backend_set():
    backends = {"serial": SerialBackend(), "thread": ThreadBackend(2)}
    yield backends
    for backend in backends.values():
        backend.close()


class _RelabeledMachine(PramMachine):
    """Machine whose per-node randomness is relabeled by a permutation.

    Node ``p`` of the permuted instance corresponds to node ``perm[p]``
    of the original; drawing ``base[perm]`` gives it the original
    node's priority, which is exactly the consistent-relabeling the
    equivariance property quantifies over.
    """

    def __init__(self, perm, *, seed, backend=None):
        super().__init__(backend=backend, seed=seed)
        self._perm = np.asarray(perm, dtype=np.intp)

    def random_priorities(self, n):
        out = super().random_priorities(n)
        return out[self._perm] if n == self._perm.size else out


SOLVERS = {
    "kcenter": lambda inst, m: parallel_kcenter(inst, machine=m),
    "kmedian": lambda inst, m: parallel_local_search(
        inst, "kmedian", epsilon=0.4, machine=m
    ),
    "kmeans": lambda inst, m: parallel_local_search(
        inst, "kmeans", epsilon=0.4, machine=m
    ),
    "lagrangian": lambda inst, m: parallel_kmedian_lagrangian(
        inst, epsilon=0.2, machine=m, max_probes=20
    ),
}
SCALE_POWER = {"kcenter": 1, "kmedian": 1, "kmeans": 2, "lagrangian": 1}


def _dense_instance():
    return euclidean_clustering(24, 3, seed=13)


INSTANCES = {
    "dense": _dense_instance,
    "sparse-full": lambda: SparseClusteringInstance.from_instance(_dense_instance()),
    "sparse-knn": lambda: knn_sparsify(_dense_instance(), 14),
}


def _permuted(instance, perm):
    """The same instance with node ``p`` renamed from ``perm[p]``."""
    if isinstance(instance, SparseClusteringInstance):
        inv = np.argsort(perm)
        rows = inv[instance.rows_flat()]
        cols = inv[instance.indices]
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=instance.n)))
        ).astype(np.intp)
        return SparseClusteringInstance(
            indptr,
            cols[order],
            instance.data[order],
            instance.k,
            fallback=instance.fallback[perm],
        )
    D = instance.D[np.ix_(perm, perm)]
    return ClusteringInstance(MetricSpace(D, validate=False), instance.k)


def _scaled(instance, factor):
    if isinstance(instance, SparseClusteringInstance):
        return SparseClusteringInstance(
            instance.indptr,
            instance.indices,
            instance.data * factor,
            instance.k,
            fallback=instance.fallback * factor,
        )
    return ClusteringInstance(
        MetricSpace(instance.D * factor, validate=False), instance.k
    )


@pytest.mark.parametrize("shape", sorted(INSTANCES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_permutation_equivariance(backend_set, shape, solver, backend):
    instance = INSTANCES[shape]()
    perm = np.random.default_rng(5).permutation(instance.n)
    base = SOLVERS[solver](
        instance, PramMachine(backend=backend_set[backend], seed=321)
    )
    permuted = SOLVERS[solver](
        _permuted(instance, perm),
        _RelabeledMachine(perm, seed=321, backend=backend_set[backend]),
    )
    assert sorted(perm[permuted.centers]) == sorted(base.centers)
    assert permuted.cost == pytest.approx(base.cost, rel=1e-9)


@pytest.mark.parametrize("shape", sorted(INSTANCES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_scale_equivariance(backend_set, shape, solver, backend):
    """d → 2·d: identical centers, cost × 2^power, bit-for-bit."""
    instance = INSTANCES[shape]()
    factor = 2.0
    base = SOLVERS[solver](
        instance, PramMachine(backend=backend_set[backend], seed=99)
    )
    scaled = SOLVERS[solver](
        _scaled(instance, factor), PramMachine(backend=backend_set[backend], seed=99)
    )
    assert np.array_equal(scaled.centers, base.centers)
    assert scaled.cost == factor ** SCALE_POWER[solver] * base.cost


def _with_duplicate(instance: ClusteringInstance, node: int = 0) -> ClusteringInstance:
    idx = np.concatenate([np.arange(instance.n), [node]])
    D = instance.D[np.ix_(idx, idx)]
    return ClusteringInstance(MetricSpace(D, validate=False), instance.k)


class TestDuplicateInvariance:
    def test_objectives_blind_to_which_copy(self):
        inst = _dense_instance()
        aug = _with_duplicate(inst, node=0)
        n = inst.n  # the duplicate's id in aug
        for with_orig, with_dup in [([0, 3, 7], [n, 3, 7]), ([0, 5], [n, 5])]:
            for cost in ("kmedian_cost", "kmeans_cost", "kcenter_cost"):
                assert getattr(aug, cost)(with_orig) == getattr(aug, cost)(with_dup)
        # Evaluating a duplicate-free center set on the augmented
        # instance adds exactly the duplicate's (= original's) service.
        centers = [3, 7, 11]
        d = np.min(inst.D[:, centers], axis=1)
        assert aug.kmedian_cost(centers) == pytest.approx(
            inst.kmedian_cost(centers) + d[0]
        )
        assert aug.kcenter_cost(centers) == inst.kcenter_cost(centers)

    def test_sparse_objectives_blind_to_which_copy(self):
        aug = _with_duplicate(_dense_instance(), node=0)
        sp = SparseClusteringInstance.from_instance(aug)
        n = aug.n - 1
        for cost in ("kmedian_cost", "kmeans_cost", "kcenter_cost"):
            assert getattr(sp, cost)([0, 3, 7]) == getattr(sp, cost)([n, 3, 7])

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_solvers_stay_in_envelope_with_duplicates(
        self, backend_set, solver, backend
    ):
        """Exact-zero distance ties must not break any solver or its
        guarantee (k-center 2·opt; local search (5+ε)/(81+ε)·opt; the
        Lagrangian within the JV factor)."""
        inst = euclidean_clustering(16, 3, seed=3)
        aug = _with_duplicate(inst, node=0)
        sol = SOLVERS[solver](aug, PramMachine(backend=backend_set[backend], seed=7))
        assert sol.centers.size <= aug.k
        if solver == "kcenter":
            opt_aug, _ = brute_force_kcenter(aug)
            opt_orig, _ = brute_force_kcenter(inst)
            assert opt_aug == pytest.approx(opt_orig)  # duplicates don't move opt
            assert sol.cost <= 2 * opt_aug * (1 + 1e-9)
        elif solver == "kmedian":
            opt, _ = brute_force_kmedian(aug)
            assert sol.cost <= (5 + 0.4) * opt * (1 + 1e-9)
        elif solver == "kmeans":
            opt, _ = brute_force_kmeans(aug)
            assert sol.cost <= (81 + 0.4) * opt * (1 + 1e-9)
        else:
            opt, _ = brute_force_kmedian(aug)
            assert sol.cost <= 6 * opt * (1 + 1e-9)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_sparse_paths_handle_duplicates(self, solver):
        """Full-CSR and kNN-truncated sparse instances with duplicated
        points run every solver to a valid, deterministic solution."""
        aug = _with_duplicate(euclidean_clustering(16, 3, seed=3), node=0)
        for sp in (SparseClusteringInstance.from_instance(aug), knn_sparsify(aug, 10)):
            a = SOLVERS[solver](sp, PramMachine(seed=7))
            b = SOLVERS[solver](sp, PramMachine(seed=7))
            assert a.centers.size <= sp.k
            assert np.isfinite(a.cost)
            assert np.array_equal(a.centers, b.centers) and a.cost == b.cost
