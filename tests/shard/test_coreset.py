"""Coreset builder contracts: weight conservation, movement, identity
pass-through, seeding determinism, and the ledger-honesty regression
for the shard-parallel aggregation seam.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.faults import NO_RETRY, FaultPlan, RetryPolicy
from repro.obs import trace_to
from repro.pram.backends import ProcessBackend, SerialBackend
from repro.pram.ledger import CostLedger
from repro.pram.machine import PramMachine
from repro.shard import ShardStore
from repro.shard.coreset import (
    build_coreset,
    farthest_point_seeds,
    supervised_shard_coresets,
)
from repro.shard.partition import random_partition
from tests.pool_lanes import assert_coreset_batch_on_pool
from tests.reference.farthest_point_norm import farthest_point_seeds_norm


@pytest.fixture
def points():
    return np.random.default_rng(3).random((400, 2))


@pytest.mark.parametrize("method", ["gonzalez", "sample"])
def test_coreset_conserves_total_weight(points, method):
    w = np.random.default_rng(4).uniform(0.5, 3.0, 400)
    c = build_coreset(points, 32, weights=w, method=method, seed=9)
    assert c.size == 32
    assert c.weights.sum() == pytest.approx(w.sum())
    assert np.all(c.weights > 0)
    # representatives are actual input points
    assert np.all(c.origin < 400)
    assert np.allclose(c.points, points[c.origin])


@pytest.mark.parametrize("method", ["gonzalez", "sample"])
def test_coreset_movement_is_exact(points, method):
    c = build_coreset(points, 25, method=method, seed=2)
    d = np.min(
        np.linalg.norm(points[:, None, :] - c.points[None, :, :], axis=2), axis=1
    )
    assert c.movement == pytest.approx(d.sum())


def test_identity_coreset(points):
    for spec in (dict(size=400), dict(size=1000), dict(size=16, method="none")):
        c = build_coreset(points, spec["size"], method=spec.get("method", "gonzalez"))
        assert c.size == 400
        assert c.movement == 0.0
        assert np.array_equal(c.origin, np.arange(400))


def test_coreset_seeding_deterministic(points):
    a = build_coreset(points, 20, method="sample", seed=11)
    b = build_coreset(points, 20, method="sample", seed=11)
    assert np.array_equal(a.origin, b.origin)


def test_coreset_validation(points):
    with pytest.raises(InvalidParameterError):
        build_coreset(points, 0)
    with pytest.raises(InvalidParameterError):
        build_coreset(points, 10, method="fancy")
    with pytest.raises(InvalidParameterError):
        build_coreset(points, 10, weights=np.zeros(400))
    with pytest.raises(InvalidParameterError):
        build_coreset(points, 10, origin=np.arange(3))
    first = np.arange(400) == 0
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
            build_coreset(points, 10, weights=np.where(first, bad, 1.0))
    with pytest.raises(InvalidParameterError, match="points must be finite"):
        build_coreset(np.where(first[:, None], np.nan, points), 10)


def test_gonzalez_movement_beats_sampling_typically(points):
    """Farthest-point seeding covers the cloud; it should not be much
    worse than random sampling (usually better)."""
    g = build_coreset(points, 30, method="gonzalez", seed=1)
    s = build_coreset(points, 30, method="sample", seed=1)
    assert g.movement <= 2.0 * s.movement


# -- the column-wise seeding kernel against the row-norm oracle -------------

@st.composite
def traversals(draw, dims, grid):
    """``(points, size, start)``: normal clouds at a drawn scale, or
    points on a small integer grid (duplicates and tied distances, and
    every sum of squares exact)."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(*dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grid:
        pts = rng.integers(0, draw(st.integers(1, 5)), size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim)) * 10.0 ** draw(st.integers(-3, 3))
    return pts, draw(st.integers(1, n)), draw(st.integers(0, n - 1))


_SEED_PROPERTY = settings(max_examples=150, deadline=None)


@_SEED_PROPERTY
@given(traversals(dims=(1, 7), grid=False))
def test_seeds_equal_the_norm_oracle_below_eight_dims(case):
    pts, size, start = case
    got = farthest_point_seeds(pts, size, start)
    assert got.tobytes() == farthest_point_seeds_norm(pts, size, start).tobytes()


@_SEED_PROPERTY
@given(traversals(dims=(1, 16), grid=True))
def test_seeds_equal_the_norm_oracle_on_integer_grids(case):
    pts, size, start = case
    got = farthest_point_seeds(pts, size, start)
    assert got.tobytes() == farthest_point_seeds_norm(pts, size, start).tobytes()


@_SEED_PROPERTY
@given(traversals(dims=(8, 16), grid=False))
def test_each_pick_is_farthest_under_the_norm_oracle(case):
    """From 8 coordinates on, ``np.linalg.norm`` sums a row pairwise, so
    a distance may differ from the kernel's in the last bits: each pick
    must then be the oracle's farthest point to a relative 1e-12."""
    pts, size, start = case
    seeds = farthest_point_seeds(pts, size, start)
    assert seeds[0] == start
    d = np.linalg.norm(pts - pts[start], axis=1)
    for s in seeds[1:]:
        assert d[s] >= d.max() * (1.0 - 1e-12)
        np.minimum(d, np.linalg.norm(pts - pts[s], axis=1), out=d)


# -- shard-parallel builds & the ledger aggregation seam --------------------

def test_shard_coresets_independent_of_backend_scheduling(points):
    labels = random_partition(400, 4, seed=5)
    kwargs = dict(weights=None, method="gonzalez", seed=13, policy=NO_RETRY)
    serial = supervised_shard_coresets(
        points, labels, 4, 40, machine=PramMachine(SerialBackend()), **kwargs
    )[0]
    with ProcessBackend(num_workers=2) as pool:
        pooled = supervised_shard_coresets(
            points, labels, 4, 40, machine=PramMachine(pool), **kwargs
        )[0]
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.origin, b.origin)
        assert np.array_equal(a.weights, b.weights)
        assert a.movement == b.movement


def test_shard_ledger_charges_sum_of_per_shard_work(points):
    """Ledger honesty: the global ledger's increase at the aggregation
    seam equals the sum of per-shard charges — no double-charging, no
    dropped work — and the depth is the max (parallel composition)."""
    labels = random_partition(400, 5, seed=2)
    machine = PramMachine(seed=0)
    before = machine.ledger.snapshot()
    coresets = supervised_shard_coresets(
        points, labels, 5, 30, method="gonzalez", seed=4, machine=machine,
        policy=NO_RETRY,
    )[0]
    delta = machine.ledger.since(before)
    assert delta.work == pytest.approx(sum(c.costs.work for c in coresets))
    assert delta.cache == pytest.approx(sum(c.costs.cache for c in coresets))
    assert delta.depth == pytest.approx(max(c.costs.depth for c in coresets))
    assert machine.ledger.rounds["shard_coreset"] == 1
    # every shard actually charged something
    assert all(c.costs.work > 0 for c in coresets)


def test_charge_parallel_combines_snapshots():
    led_a, led_b = CostLedger(), CostLedger()
    led_a.charge_basic("x", 100)
    led_b.charge_basic("y", 300)
    target = CostLedger()
    combined = target.charge_parallel("par", [led_a.snapshot(), led_b.snapshot()])
    assert combined.work == 400.0
    assert combined.depth == max(led_a.depth, led_b.depth)
    assert target.work == 400.0
    assert target.depth == combined.depth
    assert target.calls_by_op["par"] == 1


def test_empty_shard_rejected(points):
    labels = np.zeros(400, dtype=np.intp)  # everything on shard 0
    with pytest.raises(InvalidParameterError, match="empty"):
        supervised_shard_coresets(points, labels, 2, 10, seed=0, policy=NO_RETRY)


def test_out_of_range_labels_rejected(points):
    """An out-of-range label must fail loudly, not silently drop its
    points from every shard (weight-conservation regression)."""
    labels = random_partition(400, 3, seed=1)
    labels[7] = 3  # outside [0, shards)
    with pytest.raises(InvalidParameterError, match=r"\[0, 3\)"):
        supervised_shard_coresets(points, labels, 3, 20, seed=0, policy=NO_RETRY)
    labels[7] = -1
    with pytest.raises(InvalidParameterError, match=r"\[0, 3\)"):
        supervised_shard_coresets(points, labels, 3, 20, seed=0, policy=NO_RETRY)


@pytest.mark.parametrize("method", ["gonzalez", "sample"])
def test_duplicate_coordinates_never_yield_zero_weight_reps(method):
    """Coincident points can make two seeds share a coordinate; the KD
    assignment then starves one of them. Starved reps must be dropped,
    not returned at weight 0 (which the merge would reject)."""
    rng = np.random.default_rng(0)
    pts = np.repeat(rng.random((5, 2)), 8, axis=0)  # 40 points, 5 distinct
    c = build_coreset(pts, 12, method=method, seed=3)
    assert np.all(c.weights > 0)
    assert c.weights.sum() == pytest.approx(40.0)
    assert c.size <= 12


# -- identity fan-outs run in the caller -------------------------------------

def _uneven_labels(sizes):
    """Shard labels with the given shard sizes, interleaved."""
    labels = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    return np.random.default_rng(8).permutation(labels)


def _coreset_bytes(coresets):
    return [
        (c.points.tobytes(), c.weights.tobytes(), c.origin.tobytes(), c.movement, c.costs)
        for c in coresets
    ]


def _source(kind, points, labels, shards, tmp_path):
    if kind == "resident":
        return dict(points=points, labels=labels, shards=shards)
    store = ShardStore.create(str(tmp_path / "store"), points, labels, shards)
    return dict(points=store)


@pytest.mark.parametrize("plan", [None, "crash"], ids=["clean", "crash-retried"])
@pytest.mark.parametrize("source", ["resident", "store"])
@pytest.mark.parametrize("spec", [dict(size=100), dict(size=8, method="none")],
                         ids=["fits", "method-none"])
def test_identity_fanout_starts_no_pool_worker(points, tmp_path, source, spec, plan):
    """Every shard fits its coreset budget (or ``method="none"``): each
    build is a copy, so the batch runs in the caller under the
    Supervisor — no worker process starts, an injected crash is the
    simulated one and its retry reproduces the clean bytes, and the
    answer is a serial backend's byte for byte."""
    labels = _uneven_labels([100, 100, 99, 100, 1])
    src = _source(source, points, labels, 5, tmp_path)
    kwargs = dict(
        seed=13,
        policy=RetryPolicy(base_delay=0.0, jitter=0.0) if plan else NO_RETRY,
        fault_plan=FaultPlan.single(plan, 2) if plan else None,
        **spec,
    )
    want, _ = supervised_shard_coresets(machine=PramMachine(SerialBackend()), **src, **kwargs)
    with ProcessBackend(2) as pool:
        before = set(multiprocessing.active_children())
        got, failures = supervised_shard_coresets(machine=PramMachine(pool), **src, **kwargs)
        started = set(multiprocessing.active_children()) - before
    assert not started
    assert not failures
    assert _coreset_bytes(got) == _coreset_bytes(want)
    assert all(c.movement == 0.0 for c in got)


@pytest.mark.parametrize("pool_cls", [ProcessBackend])
def test_one_shard_above_budget_sends_the_whole_batch_to_the_pool(points, tmp_path, pool_cls):
    """Four shards fit the budget and one holds a point more: the batch
    is not split, all five builds run on pool workers, and the answer
    is the serial backend's."""
    labels = _uneven_labels([99, 100, 99, 101, 1])
    kwargs = dict(size=100, seed=13, policy=NO_RETRY)
    want, _ = supervised_shard_coresets(
        points, labels, 5, machine=PramMachine(SerialBackend()), **kwargs
    )
    path = tmp_path / "batch.jsonl"
    with pool_cls(2) as pool, trace_to(path):
        got, _ = supervised_shard_coresets(points, labels, 5, machine=PramMachine(pool), **kwargs)
    assert _coreset_bytes(got) == _coreset_bytes(want)
    assert [c.size for c in got] == [99, 100, 99, 100, 1]  # shard 3 seeded
    lanes = assert_coreset_batch_on_pool(path, caller=threading.get_native_id())
    assert len(lanes) == 5
