"""Ratio certification: the paper's clustering bounds enforced by tier-1.

On :func:`repro.bench.workloads.clustering_ratio_suite` — small enough
for exact optima via :mod:`repro.baselines.brute_force` — every solver
must sit inside its proven envelope, seeded, on every execution
backend:

* Theorem 6.1: ``parallel_kcenter ≤ 2·opt``;
* Theorem 7.1: parallel local search ``≤ (5+ε)·opt`` for k-median and
  ``≤ (81+ε)·opt`` for k-means;
* the Jain–Vazirani pipeline: ``parallel_kmedian_lagrangian ≤ 6·opt``.

The same envelopes are asserted on the full-CSR sparse instances, so
the sparse execution paths carry the theorems too, not just parity.
"""

import numpy as np
import pytest

from repro import PramMachine, SerialBackend, ThreadBackend
from repro.baselines.brute_force import (
    brute_force_kcenter,
    brute_force_kmeans,
    brute_force_kmedian,
)
from repro.bench.workloads import clustering_ratio_suite
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_kmeans, parallel_kmedian
from repro.metrics.sparse import SparseClusteringInstance

EPS = 0.5
BACKEND_NAMES = ("serial", "thread")
SUITE = clustering_ratio_suite(seed=0)
IDS = [name for name, _ in SUITE]


@pytest.fixture(scope="module")
def backend_set():
    backends = {"serial": SerialBackend(), "thread": ThreadBackend(2)}
    yield backends
    for backend in backends.values():
        backend.close()


@pytest.fixture(scope="module")
def optima():
    """Exact optima per (instance, objective), computed once."""
    out = {}
    for name, inst in SUITE:
        out[name, "kcenter"] = brute_force_kcenter(inst, max_subsets=200_000)[0]
        out[name, "kmedian"] = brute_force_kmedian(inst, max_subsets=200_000)[0]
        out[name, "kmeans"] = brute_force_kmeans(inst, max_subsets=200_000)[0]
    return out


def _shapes(inst):
    return [("dense", inst), ("sparse", SparseClusteringInstance.from_instance(inst))]


@pytest.mark.parametrize("name,inst", SUITE, ids=IDS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_kcenter_within_2_opt(backend_set, optima, name, inst, backend):
    opt = optima[name, "kcenter"]
    for shape, instance in _shapes(inst):
        sol = parallel_kcenter(
            instance, machine=PramMachine(backend=backend_set[backend], seed=11)
        )
        assert sol.centers.size <= inst.k
        assert sol.cost <= 2 * opt * (1 + 1e-9), (shape, sol.cost, opt)
        # Theorem 6.1's stronger artifact: the landed threshold ≤ opt.
        assert sol.extra["threshold"] <= opt * (1 + 1e-9), shape


@pytest.mark.parametrize("name,inst", SUITE, ids=IDS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_kmedian_within_5_eps_opt(backend_set, optima, name, inst, backend):
    opt = optima[name, "kmedian"]
    for shape, instance in _shapes(inst):
        sol = parallel_kmedian(
            instance,
            epsilon=EPS,
            machine=PramMachine(backend=backend_set[backend], seed=11),
        )
        assert sol.centers.size <= inst.k
        assert sol.cost <= (5 + EPS) * opt * (1 + 1e-9), (shape, sol.cost, opt)


@pytest.mark.parametrize("name,inst", SUITE, ids=IDS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_kmeans_within_81_eps_opt(backend_set, optima, name, inst, backend):
    opt = optima[name, "kmeans"]
    for shape, instance in _shapes(inst):
        sol = parallel_kmeans(
            instance,
            epsilon=EPS,
            machine=PramMachine(backend=backend_set[backend], seed=11),
        )
        assert sol.centers.size <= inst.k
        assert sol.cost <= (81 + EPS) * opt * (1 + 1e-9), (shape, sol.cost, opt)


@pytest.mark.parametrize("name,inst", SUITE, ids=IDS)
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_lagrangian_within_jv_factor(backend_set, optima, name, inst, backend):
    opt = optima[name, "kmedian"]
    for shape, instance in _shapes(inst):
        sol = parallel_kmedian_lagrangian(
            instance,
            epsilon=0.1,
            machine=PramMachine(backend=backend_set[backend], seed=11),
        )
        assert sol.centers.size <= inst.k
        assert sol.cost <= 6 * opt * (1 + 1e-9), (shape, sol.cost, opt)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ratios_seed_robust(optima, seed):
    """The envelopes are not a lucky seed: re-certify the first suite
    entry under several machine seeds (serial)."""
    name, inst = SUITE[0]
    assert parallel_kcenter(inst, seed=seed).cost <= 2 * optima[name, "kcenter"] * (
        1 + 1e-9
    )
    assert parallel_kmedian(inst, epsilon=EPS, seed=seed).cost <= (5 + EPS) * optima[
        name, "kmedian"
    ] * (1 + 1e-9)
    assert parallel_kmeans(inst, epsilon=EPS, seed=seed).cost <= (81 + EPS) * optima[
        name, "kmeans"
    ] * (1 + 1e-9)


def test_suite_is_brute_forceable():
    """Guard: every suite entry stays exactly solvable (C(n,k) bounded),
    so the certification above can never silently skip."""
    from math import comb

    for _, inst in SUITE:
        assert comb(inst.n, inst.k) <= 200_000
        assert np.isfinite(inst.D).all()
