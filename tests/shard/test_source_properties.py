"""Properties of the one shard source.

Resident points, a ``spill_dir`` run and a reopened store feed every
stage through one body, so they must agree to the bit — degraded
``drop`` runs included. And no label or weight, however bad, may end
in anything but a solve or an :class:`~repro.errors.InvalidParameterError`.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.faults import NO_RETRY, FaultPlan
from repro.shard import (
    ShardStore,
    partition_to_store,
    shard_and_solve,
    supervised_shard_coresets,
)
from repro.shard.partition import random_partition


def _cloud(seed: int, n: int, dim: int, grid: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim)) * 3.0
    return np.round(points) if grid else points


def _answer(sol) -> tuple:
    """Every answer field the three sources must share, as bytes."""
    extra = sol.extra
    return (
        sol.centers.tobytes(),
        sol.merged_centers.tobytes(),
        sol.cost,
        sol.true_cost,
        sol.movement,
        sol.coreset_sizes.tobytes(),
        sol.shard_sizes.tobytes(),
        sol.degraded,
        sol.failed_shards.tobytes(),
        extra["merged_cost_exact"],
        extra.get("dropped_movement"),
        extra.get("dropped_rep_service"),
        extra.get("dropped_weight"),
        sol.covered_weight_fraction,
    )


def _outcome(run) -> tuple:
    """A run's answer, or the type and message of what it raised."""
    try:
        return ("solved", _answer(run()))
    except Exception as exc:  # compared across sources, then asserted typed
        return ("raised", type(exc).__name__, str(exc))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(24, 160),
    dim=st.integers(1, 3),
    grid=st.booleans(),
    shards=st.integers(2, 6),
    partition=st.sampled_from(["random", "grid", "locality"]),
    weighted=st.booleans(),
    failing=st.one_of(st.none(), st.integers(0, 5)),
    solver=st.sampled_from(["kmedian", "kmeans", "kcenter"]),
    k=st.integers(1, 3),
    size=st.integers(4, 40),
)
def test_resident_spilled_and_reopened_runs_agree(
    seed, n, dim, grid, shards, partition, weighted, failing, solver, k, size
):
    points = _cloud(seed, n, dim, grid)
    weights = np.random.default_rng(seed + 1).uniform(0.25, 4.0, n) if weighted else None
    plan = None if failing is None else FaultPlan.single("raise", failing % shards, attempt=None)
    common = dict(
        coreset_size=size, neighbors=8, solver=solver, seed=seed,
        on_shard_failure="drop", fault_plan=plan, retry_policy=NO_RETRY,
        coverage_floor=1e-9,
    )
    with tempfile.TemporaryDirectory() as tmp:
        spill = os.path.join(tmp, "spill")
        resident = _outcome(lambda: shard_and_solve(
            points, k, shards=shards, partition=partition, weights=weights, **common
        ))
        spilled = _outcome(lambda: shard_and_solve(
            points, k, shards=shards, partition=partition, weights=weights,
            spill_dir=spill, **common,
        ))
        reopened = _outcome(lambda: shard_and_solve(ShardStore.open(spill), k, **common))
    assert spilled == resident
    assert reopened == resident
    if resident[0] == "raised":
        # A merged coreset that duplicate coordinates left below k.
        assert resident[1] == "InvalidParameterError", resident
    else:
        dropped = [] if failing is None else [failing % shards]
        assert resident[1][8] == np.asarray(dropped, dtype=int).tobytes()


BAD_VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0.0,
    "negative": -1.0,
    "fractional": 0.5,
}


def _corrupt(base: np.ndarray, kind: str, at: int) -> np.ndarray:
    if kind == "short":
        return base[:-1]
    if kind == "long":
        return np.concatenate([base, base[:1]])
    if kind == "column":
        return base[:, None]
    out = base.astype(float)
    out[at] = BAD_VALUES[kind]
    return out


def _typed(run) -> object:
    """Run; return its result, or ``None`` if it raised the typed error."""
    try:
        return run()
    except InvalidParameterError:
        return None


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(8, 60),
    shards=st.integers(1, 4),
    target=st.sampled_from(["labels", "weights"]),
    kind=st.sampled_from([*BAD_VALUES, "short", "long", "column"]),
    at=st.integers(0, 59),
    mode=st.sampled_from(["raise", "drop"]),
)
def test_bad_labels_and_weights_solve_or_raise_typed(seed, n, shards, target, kind, at, mode):
    points = _cloud(seed, n, 2, grid=False)
    labels = random_partition(n, shards, seed=seed)
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    at %= n
    if target == "labels":
        labels = _corrupt(labels, kind, at)
    else:
        weights = _corrupt(weights, kind, at)

    sol = _typed(lambda: shard_and_solve(
        points, 2, shards=shards, coreset_size=8, neighbors=8, weights=weights,
        seed=seed, on_shard_failure=mode, retry_policy=NO_RETRY,
    ))
    if sol is not None:
        assert not math.isnan(sol.true_cost) and not sol.degraded

    built = _typed(lambda: supervised_shard_coresets(
        points, labels, shards, 8, weights=weights, seed=seed, policy=NO_RETRY
    ))
    if built is not None:
        assert built[1] == []

    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "st")
        created = _typed(lambda: ShardStore.create(d, points, labels, shards, weights=weights))
        if created is None:
            assert not os.path.exists(d)
        else:
            ShardStore.open(d)
        d = os.path.join(tmp, "p2s")
        spilled = _typed(lambda: partition_to_store(points, shards, d, weights=weights, seed=seed))
        if spilled is None:
            assert not os.path.exists(d)
        else:
            ShardStore.open(d)
