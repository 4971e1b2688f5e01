"""Backend-independence sweep: every algorithm, across every backend.

A backend is a task pool; the machine's primitives run as plain NumPy
in the calling thread, so the backend must never change results or
model charges. The first half sweeps the satellite algorithms
serial-vs-pool; the second half is the parity gate: seeded runs of
greedy, primal–dual, and both dominator variants must be
**byte-identical** on serial and process backends. Last, a spy on the
pool checks that no core solver sends it a task at all.
"""

import numpy as np
import pytest

from repro import PramMachine, ProcessBackend, SerialBackend
from repro.core.dominator import max_dominator_set, max_u_dominator_set
from repro.core.dominator_sparse import (
    max_dominator_set_sparse,
    max_u_dominator_set_sparse,
)
from repro.core.fl_local_search import parallel_fl_local_search
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_kmeans, parallel_kmedian
from repro.core.lp_rounding import parallel_lp_rounding
from repro.core.primal_dual import parallel_primal_dual
from repro.lp.solve import solve_primal
from repro.metrics.generators import euclidean_clustering, euclidean_instance


@pytest.fixture
def pair():
    """Matched (serial, pooled) machines with identical seeds."""
    with ProcessBackend(2) as backend:
        yield PramMachine(seed=77), PramMachine(backend=backend, seed=77)


def test_lp_rounding_backend_equivalence(pair):
    serial, pooled = pair
    inst = euclidean_instance(10, 40, seed=5)
    primal = solve_primal(inst)
    a = parallel_lp_rounding(inst, primal, epsilon=0.1, machine=serial)
    b = parallel_lp_rounding(inst, primal, epsilon=0.1, machine=pooled)
    assert np.array_equal(a.opened, b.opened)
    assert a.cost == pytest.approx(b.cost)
    assert serial.ledger.work == pytest.approx(pooled.ledger.work)


def test_kmedian_backend_equivalence(pair):
    serial, pooled = pair
    inst = euclidean_clustering(40, 4, seed=5)
    a = parallel_kmedian(inst, epsilon=0.3, machine=serial)
    b = parallel_kmedian(inst, epsilon=0.3, machine=pooled)
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == pytest.approx(b.cost)


def test_kmeans_backend_equivalence(pair):
    serial, pooled = pair
    inst = euclidean_clustering(36, 3, seed=6)
    a = parallel_kmeans(inst, epsilon=0.3, machine=serial)
    b = parallel_kmeans(inst, epsilon=0.3, machine=pooled)
    assert np.array_equal(a.centers, b.centers)


def test_fl_local_search_backend_equivalence(pair):
    serial, pooled = pair
    inst = euclidean_instance(9, 30, seed=7)
    a = parallel_fl_local_search(inst, epsilon=0.1, machine=serial)
    b = parallel_fl_local_search(inst, epsilon=0.1, machine=pooled)
    assert np.array_equal(a.opened, b.opened)
    assert a.extra["moves"] == b.extra["moves"]


def test_lagrangian_backend_equivalence(pair):
    serial, pooled = pair
    inst = euclidean_clustering(25, 3, seed=8)
    a = parallel_kmedian_lagrangian(inst, epsilon=0.2, machine=serial, max_probes=10)
    b = parallel_kmedian_lagrangian(inst, epsilon=0.2, machine=pooled, max_probes=10)
    assert np.array_equal(a.centers, b.centers)
    assert [p["lambda"] for p in a.extra["probes"]] == [
        p["lambda"] for p in b.extra["probes"]
    ]


def test_depth_charges_backend_independent(pair):
    serial, pooled = pair
    inst = euclidean_instance(10, 40, seed=9)
    primal = solve_primal(inst)
    parallel_lp_rounding(inst, primal, epsilon=0.1, machine=serial)
    parallel_lp_rounding(inst, primal, epsilon=0.1, machine=pooled)
    assert serial.ledger.depth == pytest.approx(pooled.ledger.depth)
    assert serial.ledger.cache == pytest.approx(pooled.ledger.cache)


# -- PR-2 parity gate: byte-identical across serial/process -------------------

BACKEND_NAMES = ("serial", "process")


@pytest.fixture(scope="module")
def backend_set():
    """One pool per backend for the whole module (machines share them)."""
    backends = {
        "serial": SerialBackend(),
        "process": ProcessBackend(2),
    }
    yield backends
    for backend in backends.values():
        backend.close()


def _sweep(backend_set, run):
    """Run ``run(machine)`` once per backend on identically seeded
    machines; return {name: (result, ledger_totals)}."""
    out = {}
    for name in BACKEND_NAMES:
        machine = PramMachine(backend=backend_set[name], seed=123)
        result = run(machine)
        ledger = machine.ledger
        out[name] = (result, (ledger.work, ledger.depth, ledger.cache))
    return out


def _assert_all_equal(results, check):
    ref_result, ref_costs = results["serial"]
    for name in BACKEND_NAMES[1:]:
        result, costs = results[name]
        check(ref_result, result)
        assert costs == ref_costs, f"ledger charges drifted on {name}"


def test_greedy_byte_identical_across_backends(backend_set):
    inst = euclidean_instance(16, 48, seed=5)
    results = _sweep(backend_set, lambda m: parallel_greedy(inst, epsilon=0.1, machine=m))

    def check(a, b):
        assert np.array_equal(a.opened, b.opened)
        assert a.cost == b.cost
        assert np.array_equal(a.alpha, b.alpha)
        assert a.extra["tau_trace"] == b.extra["tau_trace"]
        assert a.rounds == b.rounds

    _assert_all_equal(results, check)


def test_primal_dual_byte_identical_across_backends(backend_set):
    inst = euclidean_instance(16, 48, seed=6)
    results = _sweep(backend_set, lambda m: parallel_primal_dual(inst, epsilon=0.1, machine=m))

    def check(a, b):
        assert np.array_equal(a.opened, b.opened)
        assert a.cost == b.cost
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.extra["H"], b.extra["H"])
        assert np.array_equal(a.extra["F0"], b.extra["F0"])
        assert np.array_equal(a.extra["F_T"], b.extra["F_T"])
        assert np.array_equal(a.extra["I"], b.extra["I"])
        assert a.rounds == b.rounds

    _assert_all_equal(results, check)


def test_maxdom_byte_identical_across_backends(backend_set):
    rng = np.random.default_rng(2)
    A = np.triu(rng.random((40, 40)) < 0.15, 1)
    A = A | A.T
    results = _sweep(backend_set, lambda m: max_dominator_set(A, m))
    _assert_all_equal(results, lambda a, b: np.testing.assert_array_equal(a, b))


def test_maxudom_byte_identical_across_backends(backend_set):
    rng = np.random.default_rng(3)
    B = rng.random((30, 18)) < 0.25
    cand = rng.random(30) < 0.6
    results = _sweep(backend_set, lambda m: max_u_dominator_set(B, m, candidates=cand))
    _assert_all_equal(results, lambda a, b: np.testing.assert_array_equal(a, b))


def test_maxdom_sparse_byte_identical_across_backends(backend_set):
    rng = np.random.default_rng(4)
    A = np.triu(rng.random((50, 50)) < 0.08, 1)
    A = A | A.T
    results = _sweep(backend_set, lambda m: max_dominator_set_sparse(A, m))
    _assert_all_equal(results, lambda a, b: np.testing.assert_array_equal(a, b))


def _answer(result):
    """The comparable bytes of a solve: a selection mask, or a
    solution's chosen set, cost, duals and round counters."""
    if isinstance(result, np.ndarray):
        return result.tobytes()
    chosen = result.opened if hasattr(result, "opened") else result.centers
    alpha = getattr(result, "alpha", None)
    return (
        np.asarray(chosen).tobytes(),
        result.cost,
        None if alpha is None else alpha.tobytes(),
        result.rounds,
    )


def _core_solves():
    """One seeded solve per core entry point that builds its own machine
    when given none; each takes the machine to run on."""
    fl = euclidean_instance(400, 400, seed=11)
    small_fl = euclidean_instance(12, 40, seed=5)
    primal = solve_primal(small_fl)
    clustering = euclidean_clustering(120, 4, seed=5)
    rng = np.random.default_rng(2)
    A = np.triu(rng.random((200, 200)) < 0.03, 1)
    A = A | A.T
    B = rng.random((120, 80)) < 0.05
    return {
        "greedy": lambda m: parallel_greedy(fl, epsilon=0.1, machine=m),
        "primal_dual": lambda m: parallel_primal_dual(fl, epsilon=0.1, machine=m),
        "kcenter": lambda m: parallel_kcenter(clustering, machine=m),
        "kmedian": lambda m: parallel_kmedian(clustering, epsilon=0.3, machine=m),
        "kmeans": lambda m: parallel_kmeans(clustering, epsilon=0.3, machine=m),
        "lagrangian": lambda m: parallel_kmedian_lagrangian(
            clustering, epsilon=0.2, machine=m, max_probes=8
        ),
        "lp_rounding": lambda m: parallel_lp_rounding(
            small_fl, primal, epsilon=0.1, machine=m
        ),
        "fl_local_search": lambda m: parallel_fl_local_search(
            small_fl, epsilon=0.1, machine=m
        ),
        "maxdom": lambda m: max_dominator_set_sparse(A, m),
        "maxudom": lambda m: max_u_dominator_set_sparse(B, m),
    }


@pytest.mark.parametrize("make_pool", [ProcessBackend], ids=["process"])
def test_primitives_never_reach_the_pool(monkeypatch, make_pool):
    """A backend is a task pool only, and no core solver sends it a
    task. Each core entry point (greedy and primal-dual on dense
    400 × 400 matrices, k-center, k-median, k-means, the Lagrangian, LP
    rounding, FL local search, MaxDom and MaxUDom) solves on a machine
    carrying a spied pool; none submits through ``submit`` or ``map``,
    and each answer and ledger equals a serial machine's exactly."""
    solves = _core_solves()
    want = {}
    for name, solve in solves.items():
        serial = PramMachine(seed=5)
        want[name] = (_answer(solve(serial)), serial.ledger.snapshot())
    submitted = []
    with make_pool(2) as backend:
        for method in ("submit", "map"):
            real = getattr(backend._pool, method)

            def spy(fn, *args, _real=real, **kwargs):
                submitted.append(fn)
                return _real(fn, *args, **kwargs)

            monkeypatch.setattr(backend._pool, method, spy)
        for name, solve in solves.items():
            machine = PramMachine(backend=backend, seed=5)
            got = (_answer(solve(machine)), machine.ledger.snapshot())
            assert submitted == [], name
            assert got == want[name], name
