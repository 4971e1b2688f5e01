"""Sparse-vs-dense equivalence suite.

On dense-representable instances (full CSR, no finite fallback) the
sparse execution paths must return **byte-identical** seeded solutions
to the dense paths on all three execution backends. Greedy,
primal–dual, k-center, the dominators, §7 local search and the
Lagrangian k-median ship one body, the CSR one, so their dense side is
a test-only reference: :mod:`tests.reference.greedy_dense`,
:mod:`tests.reference.primal_dual_dense`,
:mod:`tests.reference.kcenter_dense`,
:mod:`tests.reference.local_search_dense` and
:mod:`tests.reference.dominator_dense`:

* greedy and primal–dual facility location — opened set, cost, duals,
  traces, and round counters — on random and adversarial workloads,
  both ε settings, with and without preprocessing, and at bench size;
* ``MaxDom`` and ``MaxUDom`` selection-for-selection;
* the clustering stack — k-center (centers, radius, threshold, probe
  schedule), §7 local search for k-median/k-means (centers, final and
  warm-start costs, swap sequence, round count), and the Lagrangian
  k-median (centers, cost, full λ-probe trace).
"""

import numpy as np
import pytest

from repro import PramMachine, ProcessBackend, SerialBackend, ThreadBackend
from repro.core.dominator_sparse import max_dominator_set_sparse, max_u_dominator_set_sparse
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_local_search
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.generators import (
    clustered_clustering,
    clustered_instance,
    euclidean_clustering,
    euclidean_instance,
    random_metric_instance,
    star_instance,
    two_scale_instance,
)
from repro.metrics.sparse import (
    SparseClusteringInstance,
    SparseFacilityLocationInstance,
)
from tests.reference.dominator_dense import max_dominator_set, max_u_dominator_set
from tests.reference.greedy_dense import greedy_dense
from tests.reference.kcenter_dense import kcenter_dense
from tests.reference.local_search_dense import local_search_dense
from tests.reference.primal_dual_dense import kmedian_lagrangian_dense, primal_dual_dense

BACKEND_NAMES = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def backend_set():
    backends = {
        "serial": SerialBackend(),
        "thread": ThreadBackend(2),
        "process": ProcessBackend(2),
    }
    yield backends
    for backend in backends.values():
        backend.close()


def _greedy_check(a, b):
    assert np.array_equal(a.opened, b.opened)
    assert a.cost == b.cost
    assert np.array_equal(a.alpha, b.alpha)
    assert a.extra["tau_trace"] == b.extra["tau_trace"]
    assert a.extra["gamma"] == b.extra["gamma"]
    assert a.extra["preprocessed_clients"] == b.extra["preprocessed_clients"]
    assert a.rounds == b.rounds


def _pd_check(a, b):
    assert np.array_equal(a.opened, b.opened)
    assert a.cost == b.cost
    assert np.array_equal(a.alpha, b.alpha)
    H_b = b.extra["H"]
    H_b = H_b.toarray() if hasattr(H_b, "toarray") else H_b
    H_a = a.extra["H"]
    H_a = H_a.toarray() if hasattr(H_a, "toarray") else H_a
    assert np.array_equal(H_a, H_b)
    assert np.array_equal(a.extra["F0"], b.extra["F0"])
    assert np.array_equal(a.extra["F_T"], b.extra["F_T"])
    assert np.array_equal(a.extra["I"], b.extra["I"])
    assert a.rounds == b.rounds


# Random + adversarial: stars tie every rim facility exactly, two-scale
# stresses the preprocessing floor, the random metric is non-geometric.
WORKLOADS = [
    ("euclid-16x48", lambda: euclidean_instance(16, 48, seed=5)),
    ("euclid-12x40", lambda: euclidean_instance(12, 40, seed=9)),
    ("clustered-10x50", lambda: clustered_instance(10, 50, n_clusters=4, seed=2)),
    ("euclid-8x24", lambda: euclidean_instance(8, 24, seed=7)),
    ("euclid-40x160", lambda: euclidean_instance(40, 160, seed=9)),
    ("clustered-16x100", lambda: clustered_instance(16, 100, n_clusters=5, seed=3)),
    ("random-metric-9x27", lambda: random_metric_instance(9, 27, seed=31)),
    ("star-12", lambda: star_instance(12, seed=41)),
    ("two-scale-4x10", lambda: two_scale_instance(4, 10, seed=51)),
]


@pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize("eps", [0.1, 0.5])
@pytest.mark.parametrize("preprocess", [True, False])
def test_sparse_greedy_matches_dense(name, make, eps, preprocess):
    dense = make()
    sp = SparseFacilityLocationInstance.from_instance(dense)
    kw = dict(epsilon=eps, preprocess=preprocess)
    a = greedy_dense(dense, machine=PramMachine(seed=123), **kw)
    b = parallel_greedy(sp, machine=PramMachine(seed=123), **kw)
    _greedy_check(a, b)


@pytest.mark.parametrize("name,make", WORKLOADS, ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize("eps", [0.1, 0.5])
@pytest.mark.parametrize("preprocess", [True, False])
def test_sparse_primal_dual_matches_dense(name, make, eps, preprocess):
    dense = make()
    sp = SparseFacilityLocationInstance.from_instance(dense)
    kw = dict(epsilon=eps, preprocess=preprocess)
    a = primal_dual_dense(dense, machine=PramMachine(seed=123), **kw)
    b = parallel_primal_dual(sp, machine=PramMachine(seed=123), **kw)
    _pd_check(a, b)


# The dense side of each FL comparison is the test-only reference.
_DENSE_FL = {parallel_greedy: greedy_dense, parallel_primal_dual: primal_dual_dense}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "algorithm,check",
    [(parallel_greedy, _greedy_check), (parallel_primal_dual, _pd_check)],
    ids=["greedy", "primal_dual"],
)
def test_sparse_matches_dense_at_bench_size(algorithm, check, seed):
    """The equivalence claim at the size the benchmarks solve (400²)."""
    dense = euclidean_instance(400, 400, seed=seed)
    sp = SparseFacilityLocationInstance.from_instance(dense)
    a = _DENSE_FL[algorithm](dense, epsilon=0.1, machine=PramMachine(seed=123))
    b = algorithm(sp, epsilon=0.1, machine=PramMachine(seed=123))
    check(a, b)


@pytest.mark.parametrize("algorithm", [parallel_greedy, parallel_primal_dual])
def test_sparse_paths_byte_identical_across_backends(backend_set, algorithm):
    """Seeded sparse runs must agree byte-for-byte on serial, thread,
    and process backends — charges included."""
    dense = euclidean_instance(16, 48, seed=5)
    sp = SparseFacilityLocationInstance.from_instance(dense)
    results = {}
    for name in BACKEND_NAMES:
        machine = PramMachine(backend=backend_set[name], seed=123)
        sol = algorithm(sp, epsilon=0.1, machine=machine)
        ledger = machine.ledger
        results[name] = (sol, (ledger.work, ledger.depth, ledger.cache))
    ref_sol, ref_costs = results["serial"]
    check = _greedy_check if algorithm is parallel_greedy else _pd_check
    for name in BACKEND_NAMES[1:]:
        sol, costs = results[name]
        check(ref_sol, sol)
        assert costs == ref_costs, f"ledger charges drifted on {name}"


@pytest.mark.parametrize("algorithm", [parallel_greedy, parallel_primal_dual])
def test_sparse_equals_dense_across_backends(backend_set, algorithm):
    """The acceptance gate: sparse solution == dense solution on every
    backend, for both algorithms."""
    dense = euclidean_instance(14, 44, seed=7)
    sp = SparseFacilityLocationInstance.from_instance(dense)
    check = _greedy_check if algorithm is parallel_greedy else _pd_check
    for name in BACKEND_NAMES:
        a = _DENSE_FL[algorithm](
            dense, epsilon=0.1, machine=PramMachine(backend=backend_set[name], seed=123)
        )
        b = algorithm(
            sp, epsilon=0.1, machine=PramMachine(backend=backend_set[name], seed=123)
        )
        check(a, b)


def test_sparse_maxudom_byte_identical_across_backends(backend_set):
    rng = np.random.default_rng(3)
    B = rng.random((30, 18)) < 0.25
    cand = rng.random(30) < 0.6
    results = {}
    for name in BACKEND_NAMES:
        machine = PramMachine(backend=backend_set[name], seed=123)
        results[name] = max_u_dominator_set_sparse(B, machine, candidates=cand)
    for name in BACKEND_NAMES[1:]:
        np.testing.assert_array_equal(results["serial"], results[name])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sparse_maxudom_matches_dense(seed):
    rng = np.random.default_rng(seed)
    B = rng.random((25, 15)) < 0.3
    cand = rng.random(25) < 0.7
    a = max_u_dominator_set(B, PramMachine(seed=99), candidates=cand)
    b = max_u_dominator_set_sparse(B, PramMachine(seed=99), candidates=cand)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_maxudom_matches_dense_with_candidates(seed):
    rng = np.random.default_rng(seed)
    B = rng.random((30, 18)) < 0.25
    cand = rng.random(30) < 0.6
    a = max_u_dominator_set(B, PramMachine(seed=seed), candidates=cand)
    b = max_u_dominator_set_sparse(B, PramMachine(seed=seed), candidates=cand)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
def test_sparse_maxudom_matches_dense_without_v_nodes(masked):
    """|V| = 0: no U-node conflicts with any other, so every candidate
    is selected (the dense path used to raise on the empty min)."""
    B = np.zeros((4, 0), dtype=bool)
    cand = np.array([True, False, True, True]) if masked else None
    a = max_u_dominator_set(B, PramMachine(seed=3), candidates=cand)
    b = max_u_dominator_set_sparse(B, PramMachine(seed=3), candidates=cand)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, np.ones(4, dtype=bool) if cand is None else cand)


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(rng.random((n, n)) < p, 1)
    return A | A.T


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p", [0.05, 0.2, 0.6])
def test_sparse_maxdom_matches_dense(seed, p):
    A = _random_graph(40, p, seed)
    a = max_dominator_set(A, PramMachine(seed=seed))
    b = max_dominator_set_sparse(A, PramMachine(seed=seed))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_maxdom_matches_dense_on_sparse_graphs(seed):
    A = _random_graph(60, 0.08, seed)
    a = max_dominator_set(A, PramMachine(seed=seed))
    b = max_dominator_set_sparse(A, PramMachine(seed=seed))
    np.testing.assert_array_equal(a, b)


def test_preprocessing_ablation_parity():
    """preprocess=False must also agree between sparse and dense."""
    dense = euclidean_instance(10, 30, seed=11)
    sp = SparseFacilityLocationInstance.from_instance(dense)
    a = greedy_dense(dense, epsilon=0.2, machine=PramMachine(seed=5), preprocess=False)
    b = parallel_greedy(sp, epsilon=0.2, machine=PramMachine(seed=5), preprocess=False)
    _greedy_check(a, b)


# --------------------------------------------------------------------------
# PR 4: the sparse clustering stack (§6.1 k-center, §7 local search,
# Lagrangian k-median) against the dense paths.
# --------------------------------------------------------------------------

CLUSTER_WORKLOADS = [
    ("euclid-n30-k3", lambda: euclidean_clustering(30, 3, seed=5)),
    ("euclid-n28-k4", lambda: euclidean_clustering(28, 4, seed=9)),
    ("blobs-n30-k3", lambda: clustered_clustering(30, 3, seed=2)),
]


def _kcenter_check(a, b):
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == b.cost
    assert a.extra["threshold"] == b.extra["threshold"]
    assert a.extra["probes"] == b.extra["probes"]
    assert a.extra["n_thresholds"] == b.extra["n_thresholds"]


def _local_search_check(a, b, *, float_rel=1e-12):
    """Byte-identical decisions, ulp-tolerant float traces: centers,
    swap pairs, round counts, and the recomputed final cost must match
    exactly; the summed traces (warm-start cost, swap objective values)
    may reassociate by an ulp — between the decomposed sparse batch and
    the dense one, and across pool backends — the caveat already
    documented on every sum-reduction."""
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == b.cost
    assert a.extra["initial_cost"] == pytest.approx(
        b.extra["initial_cost"], rel=float_rel, abs=0.0
    )
    assert [(i, j) for i, j, _ in a.extra["swaps"]] == [
        (i, j) for i, j, _ in b.extra["swaps"]
    ]
    for (_, _, va), (_, _, vb) in zip(a.extra["swaps"], b.extra["swaps"]):
        assert va == pytest.approx(vb, rel=float_rel, abs=0.0)
    assert a.rounds["local_search"] == b.rounds["local_search"]


def _lagrangian_check(a, b):
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == b.cost
    assert [(p["lambda"], p["n_open"]) for p in a.extra["probes"]] == [
        (p["lambda"], p["n_open"]) for p in b.extra["probes"]
    ]
    for key in ("bracket_low", "bracket_high"):
        x, y = a.extra[key], b.extra[key]
        assert (x is None) == (y is None)
        if x is not None:
            assert x[:2] == y[:2] and np.array_equal(x[2], y[2])
    assert a.rounds == b.rounds


@pytest.mark.parametrize("name,make", CLUSTER_WORKLOADS, ids=[w[0] for w in CLUSTER_WORKLOADS])
def test_sparse_kcenter_matches_dense(name, make):
    dense = make()
    sp = SparseClusteringInstance.from_instance(dense)
    a = kcenter_dense(dense, machine=PramMachine(seed=123))
    b = parallel_kcenter(sp, machine=PramMachine(seed=123))
    _kcenter_check(a, b)


@pytest.mark.parametrize("objective", ["kmedian", "kmeans"])
@pytest.mark.parametrize("name,make", CLUSTER_WORKLOADS, ids=[w[0] for w in CLUSTER_WORKLOADS])
def test_sparse_local_search_matches_dense(name, make, objective):
    dense = make()
    sp = SparseClusteringInstance.from_instance(dense)
    a = local_search_dense(dense, objective, epsilon=0.3, machine=PramMachine(seed=123))
    b = parallel_local_search(sp, objective, epsilon=0.3, machine=PramMachine(seed=123))
    _local_search_check(a, b)


@pytest.mark.parametrize("name,make", CLUSTER_WORKLOADS, ids=[w[0] for w in CLUSTER_WORKLOADS])
def test_sparse_lagrangian_matches_dense(name, make):
    dense = make()
    sp = SparseClusteringInstance.from_instance(dense)
    a = kmedian_lagrangian_dense(
        dense, epsilon=0.2, machine=PramMachine(seed=123), max_probes=20
    )
    b = parallel_kmedian_lagrangian(
        sp, epsilon=0.2, machine=PramMachine(seed=123), max_probes=20
    )
    _lagrangian_check(a, b)


_CLUSTER_ALGORITHMS = {
    "kcenter": (lambda inst, m: parallel_kcenter(inst, machine=m), _kcenter_check),
    "kmedian": (
        lambda inst, m: parallel_local_search(inst, "kmedian", epsilon=0.3, machine=m),
        _local_search_check,
    ),
    "kmeans": (
        lambda inst, m: parallel_local_search(inst, "kmeans", epsilon=0.3, machine=m),
        _local_search_check,
    ),
    "lagrangian": (
        lambda inst, m: parallel_kmedian_lagrangian(
            inst, epsilon=0.2, machine=m, max_probes=15
        ),
        _lagrangian_check,
    ),
}


# The dense side of every clustering solver is its test-only reference.
_DENSE_CLUSTER = {
    "kcenter": lambda inst, m: kcenter_dense(inst, machine=m),
    "kmedian": lambda inst, m: local_search_dense(inst, "kmedian", epsilon=0.3, machine=m),
    "kmeans": lambda inst, m: local_search_dense(inst, "kmeans", epsilon=0.3, machine=m),
    "lagrangian": lambda inst, m: kmedian_lagrangian_dense(
        inst, epsilon=0.2, machine=m, max_probes=15
    ),
}


@pytest.mark.parametrize("algorithm", sorted(_CLUSTER_ALGORITHMS))
def test_sparse_clustering_equals_dense_across_backends(backend_set, algorithm):
    """The PR-4 acceptance gate: seeded sparse clustering solutions are
    byte-identical to the dense paths on serial, thread, and process."""
    run, check = _CLUSTER_ALGORITHMS[algorithm]
    run_dense = _DENSE_CLUSTER[algorithm]
    dense = euclidean_clustering(30, 3, seed=5)
    sp = SparseClusteringInstance.from_instance(dense)
    for name in BACKEND_NAMES:
        a = run_dense(dense, PramMachine(backend=backend_set[name], seed=123))
        b = run(sp, PramMachine(backend=backend_set[name], seed=123))
        check(a, b)


@pytest.mark.parametrize("algorithm", sorted(_CLUSTER_ALGORITHMS))
def test_sparse_clustering_byte_identical_across_backends(backend_set, algorithm):
    """Seeded sparse clustering runs must agree across serial, thread,
    and process — ledger charges included, floats to the ulp."""
    run, check = _CLUSTER_ALGORITHMS[algorithm]
    dense = euclidean_clustering(28, 4, seed=9)
    sp = SparseClusteringInstance.from_instance(dense)
    results = {}
    for name in BACKEND_NAMES:
        machine = PramMachine(backend=backend_set[name], seed=123)
        sol = run(sp, machine)
        ledger = machine.ledger
        results[name] = (sol, (ledger.work, ledger.depth, ledger.cache))
    ref_sol, ref_costs = results["serial"]
    for name in BACKEND_NAMES[1:]:
        sol, costs = results[name]
        check(ref_sol, sol)
        assert costs == ref_costs, f"ledger charges drifted on {name}"


@pytest.mark.parametrize("algorithm", sorted(_CLUSTER_ALGORITHMS))
def test_truncated_sparse_deterministic_across_backends(backend_set, algorithm):
    """kNN truncations (genuinely sparse, finite fallback) must return
    the same seeded solution on every backend."""
    from repro.metrics.sparse import knn_sparsify

    run, check = _CLUSTER_ALGORITHMS[algorithm]
    sp = knn_sparsify(euclidean_clustering(30, 3, seed=5), 18)
    ref = run(sp, PramMachine(backend=backend_set["serial"], seed=123))
    for name in BACKEND_NAMES[1:]:
        check(ref, run(sp, PramMachine(backend=backend_set[name], seed=123)))
