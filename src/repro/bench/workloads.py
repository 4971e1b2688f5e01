"""Named workload suites shared by tests, benches, and examples.

Three tiers per problem:

* *ratio* suites — small enough for exact brute-force optima;
* *lp* suites — medium, lower-bounded by LP optima;
* *scaling* suites — geometric size sweeps for work-exponent fits.

Every suite is deterministic in its ``seed`` and spans the generator
families (Euclidean, clustered, adversarial star/two-scale, random
non-geometric metric) so measured claims aren't generator artifacts.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.generators import (
    clustered_clustering,
    clustered_instance,
    euclidean_clustering,
    euclidean_instance,
    random_metric_instance,
    star_instance,
    two_scale_instance,
)
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.validation import _freeze


def fl_ratio_suite(seed: int = 0) -> list:
    """Small facility-location instances (n_f ≤ 12) with exact optima."""
    return [
        ("euclid-8x24", euclidean_instance(8, 24, seed=seed)),
        ("euclid-12x30", euclidean_instance(12, 30, seed=seed + 1)),
        ("clustered-10x40", clustered_instance(10, 40, n_clusters=4, seed=seed + 2)),
        ("random-metric-9x27", random_metric_instance(9, 27, seed=seed + 3)),
        ("star-10", star_instance(10, seed=seed + 4)),
        ("two-scale-4x10", two_scale_instance(4, 10, seed=seed + 5)),
    ]


def fl_lp_suite(seed: int = 0) -> list:
    """Medium facility-location instances, LP-lower-bounded."""
    return [
        ("euclid-20x80", euclidean_instance(20, 80, seed=seed)),
        ("clustered-16x100", clustered_instance(16, 100, n_clusters=5, seed=seed + 1)),
        ("random-metric-15x60", random_metric_instance(15, 60, seed=seed + 2)),
        ("two-scale-6x15", two_scale_instance(6, 15, seed=seed + 3)),
    ]


def fl_scaling_suite(seed: int = 0, *, sizes=((10, 40), (14, 80), (20, 160), (28, 320), (40, 640))) -> list:
    """Geometric ``m = n_f·n_c`` sweep for work-exponent fitting."""
    return [
        (f"euclid-{nf}x{nc}", euclidean_instance(nf, nc, seed=seed + i))
        for i, (nf, nc) in enumerate(sizes)
    ]


def clustering_ratio_suite(seed: int = 0) -> list:
    """Small clustering instances with exact optima (C(n,k) bounded)."""
    return [
        ("euclid-n30-k3", euclidean_clustering(30, 3, seed=seed)),
        ("euclid-n40-k4", euclidean_clustering(40, 4, seed=seed + 1)),
        ("blobs-n40-k4", clustered_clustering(40, 4, seed=seed + 2)),
        ("blobs-n36-k3", clustered_clustering(36, 3, n_clusters=3, seed=seed + 3)),
    ]


def clustering_scaling_suite(seed: int = 0, *, sizes=(40, 60, 90, 135, 200), k: int = 5) -> list:
    """Clustering size sweep at fixed k."""
    return [
        (f"euclid-n{n}-k{k}", euclidean_clustering(int(n), k, seed=seed + i))
        for i, n in enumerate(sizes)
    ]


def _with_weights(instance, rng, *, low=1.0, high=5.0):
    """Reweight a clustering/FL instance with seeded uniform weights."""
    if isinstance(instance, ClusteringInstance):
        weights = rng.uniform(low, high, size=instance.n)
        _freeze(weights)
        return ClusteringInstance(instance.space, instance.k, weights=weights)
    weights = rng.uniform(low, high, size=instance.n_clients)
    _freeze(weights)
    return FacilityLocationInstance(instance.D, instance.f, client_weights=weights)


def weighted_clustering_ratio_suite(seed: int = 0) -> list:
    """Small *weighted* clustering instances with exact (weighted
    brute-force) optima — the ratio gate for the shard-and-conquer
    weighted objectives."""
    rng = np.random.default_rng(seed + 1000)
    return [
        (f"w-{name}", _with_weights(inst, rng))
        for name, inst in clustering_ratio_suite(seed)
    ]


def weighted_fl_ratio_suite(seed: int = 0) -> list:
    """Small *weighted* facility-location instances (client
    multiplicities) with exact optima."""
    rng = np.random.default_rng(seed + 2000)
    return [
        (f"w-{name}", _with_weights(inst, rng))
        for name, inst in fl_ratio_suite(seed)
    ]


def shard_scaling_suite(
    seed: int = 0,
    *,
    sizes=(250_000, 1_000_000),
    dim: int = 2,
    k: int = 32,
    n_clusters: int = 64,
) -> list:
    """Raw point clouds at counts no single instance can hold.

    Each entry is ``(name, points, k)`` — coordinates only, *no*
    instance object: at these sizes even the kNN CSR structure of the
    full point set blows past a laptop budget, which is exactly what
    ``repro.shard.shard_and_solve`` exists to get around. Points are
    Gaussian blobs (``n_clusters`` ground-truth clusters) so the
    sharded objective has meaningful structure to recover.
    """
    out = []
    for i, n in enumerate(sizes):
        n = int(n)
        rng = np.random.default_rng(seed + 3000 + i)
        centers = rng.random((n_clusters, dim))
        labels = rng.integers(0, n_clusters, size=n)
        pts = centers[labels] + rng.normal(scale=0.02, size=(n, dim))
        out.append((f"blobs-{n}-k{k}", pts, k))
    return out


def epsilon_sweep(values=(0.02, 0.05, 0.1, 0.2, 0.5, 1.0)) -> np.ndarray:
    """The ε grid used by the E4 ablation."""
    return np.asarray(values, dtype=float)
