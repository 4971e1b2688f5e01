"""The Lagrangian k-median against a reference probe loop.

:func:`repro.core.kmedian_lagrangian.parallel_kmedian_lagrangian` sorts
its relaxation's edges once per call and hands that order and the
iteration cap to every probe. The references under ``tests/reference``
run the same price search with a fresh primal–dual per probe: the
dense body on dense instances, the level-by-level CSR loop on
kNN-truncated ones (finite fallbacks). Field for field: centres, cost
bytes, the probe trace (λ bytes and facility counts), both brackets
and the round counters — or the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.errors import ConvergenceError, InvalidParameterError
from repro.metrics.instance import ClusteringInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import knn_sparsify
from repro.pram.machine import PramMachine
from tests.reference.primal_dual_dense import kmedian_lagrangian_dense
from tests.reference.primal_dual_levels import kmedian_lagrangian_levels


@st.composite
def grid_clusterings(draw):
    """Points on a small integer grid under the L1 metric — integer
    distances, so ties everywhere — with unit or integer weights and a
    budget ``k`` from 1 to ``n − 1``."""
    n = draw(st.integers(2, 10))
    side = draw(st.integers(0, 4))
    points = draw(arrays(np.int64, (n, 2), elements=st.integers(0, side)))
    weights = draw(st.none() | arrays(np.int64, n, elements=st.integers(1, 4)))
    space = MetricSpace.from_points(points.astype(float), p=1.0)
    return ClusteringInstance(
        space, draw(st.integers(1, n - 1)),
        weights=None if weights is None else weights.astype(float),
    )


@st.composite
def truncated_clusterings(draw):
    """A grid clustering truncated to each node's nearest neighbours,
    with a finite fallback column."""
    dense = draw(grid_clusterings())
    return knn_sparsify(
        dense, draw(st.integers(1, dense.n)),
        fallback_slack=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )


def _outcome(solve):
    try:
        return solve()
    except (ConvergenceError, InvalidParameterError) as exc:
        return exc


def _bracket(b):
    return None if b is None else (np.float64(b[0]).tobytes(), b[1], b[2].tolist())


def _assert_matches(got, ref):
    if isinstance(ref, Exception):
        assert type(got) is type(ref) and str(got) == str(ref)
        return
    assert np.array_equal(got.centers, ref.centers)
    assert np.float64(got.cost).tobytes() == np.float64(ref.cost).tobytes()
    assert [(np.float64(p["lambda"]).tobytes(), p["n_open"]) for p in got.extra["probes"]] == [
        (np.float64(p["lambda"]).tobytes(), p["n_open"]) for p in ref.extra["probes"]
    ]
    for key in ("bracket_low", "bracket_high"):
        assert _bracket(got.extra[key]) == _bracket(ref.extra[key])
    assert got.rounds == ref.rounds


_SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
_SEARCH = dict(
    eps=st.sampled_from([0.1, 0.5]),
    max_probes=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)


@_SETTINGS
@given(inst=grid_clusterings(), **_SEARCH)
def test_matches_the_dense_probe_loop(inst, eps, max_probes, seed):
    kw = dict(epsilon=eps, max_probes=max_probes)
    ref = _outcome(lambda: kmedian_lagrangian_dense(inst, machine=PramMachine(seed=seed), **kw))
    got = _outcome(lambda: parallel_kmedian_lagrangian(inst, machine=PramMachine(seed=seed), **kw))
    _assert_matches(got, ref)


@_SETTINGS
@given(inst=truncated_clusterings(), **_SEARCH)
def test_matches_the_level_by_level_probe_loop(inst, eps, max_probes, seed):
    assert np.isfinite(inst.fallback).all()
    kw = dict(epsilon=eps, max_probes=max_probes)
    ref = _outcome(lambda: kmedian_lagrangian_levels(inst, machine=PramMachine(seed=seed), **kw))
    got = _outcome(lambda: parallel_kmedian_lagrangian(inst, machine=PramMachine(seed=seed), **kw))
    _assert_matches(got, ref)


@pytest.mark.parametrize("seed", range(3))
def test_bench_sized_search_matches_the_dense_probe_loop(seed):
    """The bench's Lagrangian input shape (Euclidean, 60 nodes here)."""
    from repro.metrics.generators import euclidean_clustering

    inst = euclidean_clustering(60, 5, seed=seed)
    ref = kmedian_lagrangian_dense(inst, machine=PramMachine(seed=seed))
    got = parallel_kmedian_lagrangian(inst, machine=PramMachine(seed=seed))
    _assert_matches(got, ref)
