"""The one shard source's checks: points, labels and weights are refused
with :class:`~repro.errors.InvalidParameterError` before any partition
pass, fan-out or file write — never a failed or silently dropped shard,
a raw numpy/scipy error, or a NaN objective.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidInstanceError, InvalidParameterError, ShardFailedError
from repro.faults import NO_RETRY, RetryPolicy
from repro.shard import (
    ShardStore,
    partition_to_store,
    shard_and_solve,
    shard_sizes,
    supervised_shard_coresets,
)
from repro.shard.coreset import ShardCoreset, _coreset_validator
from repro.shard.partition import random_partition
from repro.shard.store import _ResidentShards

N, SHARDS = 2000, 4
POINTS = np.random.default_rng(0).normal(size=(N, 2))
LABELS = random_partition(N, SHARDS, seed=1)
SOLVE_KW = dict(shards=SHARDS, coreset_size=32, neighbors=16, seed=1)


def _weights_with(value, at=5):
    w = np.ones(N)
    w[at] = value
    return w


# -- weights ------------------------------------------------------------------


def test_nan_weight_never_reaches_a_nan_true_cost():
    with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
        shard_and_solve(POINTS, 4, weights=_weights_with(np.nan), **SOLVE_KW)


def test_nan_weight_is_refused_before_the_fan_out():
    with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
        supervised_shard_coresets(
            POINTS, LABELS, SHARDS, 32, weights=_weights_with(np.nan), policy=NO_RETRY
        )


@pytest.mark.parametrize("mode", ["raise", "drop"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.inf], ids=["zero", "negative", "inf"])
def test_bad_weight_is_no_shard_failure(value, mode):
    """Not a ShardFailedError, and under ``drop`` not a degraded answer
    without the bad weight's whole shard."""
    with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
        shard_and_solve(
            POINTS, 4, weights=_weights_with(value), on_shard_failure=mode,
            retry_policy=NO_RETRY, **SOLVE_KW,
        )


@pytest.mark.parametrize(
    "weights",
    [np.ones(N - 1), np.ones(N + 1), np.ones((N, 1)), np.ones((1, N)), np.array(["a"] * N)],
    ids=["short", "long", "column", "row", "strings"],
)
def test_weights_of_the_wrong_shape_or_type(weights):
    with pytest.raises(InvalidParameterError, match="weights must be a real"):
        shard_and_solve(POINTS, 4, weights=weights, **SOLVE_KW)
    with pytest.raises(InvalidParameterError, match="weights must be a real"):
        supervised_shard_coresets(POINTS, LABELS, SHARDS, 32, weights=weights)


def test_refused_create_writes_nothing(tmp_path):
    d = tmp_path / "st"
    with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
        ShardStore.create(str(d), POINTS, LABELS, SHARDS, weights=_weights_with(np.nan))
    assert not d.exists()
    with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
        partition_to_store(POINTS, SHARDS, str(d), weights=_weights_with(np.nan), seed=1)
    assert not d.exists()


def test_validator_refuses_a_nan_weight_total():
    coreset = ShardCoreset(
        points=np.zeros((1, 2)), weights=np.ones(1), origin=np.zeros(1, dtype=np.intp),
        movement=0.0, costs=None,
    )
    with pytest.raises(InvalidInstanceError, match="conserve"):
        _coreset_validator(np.array([np.nan]))(0, coreset)


# -- labels and shard counts --------------------------------------------------


def test_missing_labels_and_shard_count():
    with pytest.raises(InvalidParameterError, match="shards must be >= 1"):
        supervised_shard_coresets(POINTS, None, None, 32)
    with pytest.raises(InvalidParameterError, match="labels must have shape"):
        supervised_shard_coresets(POINTS, None, SHARDS, 32)


@pytest.mark.parametrize("bad", [0.7, np.nan, np.inf], ids=["fractional", "nan", "inf"])
def test_non_integer_labels_are_refused(tmp_path, bad):
    labels = LABELS.astype(float)
    labels[3] = bad
    with pytest.raises(InvalidParameterError, match="labels must"):
        supervised_shard_coresets(POINTS, labels, SHARDS, 32)
    with pytest.raises(InvalidParameterError, match="labels must"):
        ShardStore.create(str(tmp_path / "st"), POINTS, labels, SHARDS)
    with pytest.raises(InvalidParameterError, match="labels must"):
        shard_sizes(labels, SHARDS)
    assert not (tmp_path / "st").exists()


def test_whole_float_labels_still_group():
    sizes = shard_sizes(LABELS.astype(float), SHARDS)
    np.testing.assert_array_equal(sizes, np.bincount(LABELS, minlength=SHARDS))


def test_fractional_shard_count_is_refused():
    with pytest.raises(InvalidParameterError, match="shards must be >= 1"):
        supervised_shard_coresets(POINTS, LABELS, 4.5, 32)


@pytest.mark.parametrize("shards", [None, "4", 4.5, 0, math.inf, math.nan])
def test_shard_count_that_is_no_whole_number_is_refused(shards):
    """``int(None)`` raised a raw ``TypeError`` here, and ``int(4.5)``
    silently solved on 4 shards."""
    kw = dict(SOLVE_KW, shards=shards)
    with pytest.raises(InvalidParameterError, match="shards must be >= 1"):
        shard_and_solve(POINTS, 4, **kw)


# -- points ---------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["raise", "drop"])
def test_nan_point_is_no_shard_failure(mode):
    """The random partitioner never looks at coordinates; the source's
    check still refuses a NaN before the fan-out."""
    points = POINTS.copy()
    points[7, 1] = np.nan
    with pytest.raises(InvalidParameterError, match="points must be finite"):
        shard_and_solve(
            points, 4, partition="random", on_shard_failure=mode,
            retry_policy=NO_RETRY, **SOLVE_KW,
        )


@pytest.mark.parametrize(
    "make", [lambda p: p + 1j, lambda p: p.astype(complex)], ids=["imag", "zero-imag"]
)
def test_complex_points_are_refused(tmp_path, make):
    """Converting to float kept only the real parts and solved those,
    with no more than a ``ComplexWarning``."""
    points = make(POINTS)
    with pytest.raises(InvalidParameterError, match="points must be real"):
        shard_and_solve(points, 4, **SOLVE_KW)
    with pytest.raises(InvalidParameterError, match="points must be real"):
        supervised_shard_coresets(points, LABELS, SHARDS, 32)
    with pytest.raises(InvalidParameterError, match="points must be real"):
        ShardStore.create(str(tmp_path / "st"), points, LABELS, SHARDS)
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize(
    "mode,error",
    [("raise", ShardFailedError), ("retry", ShardFailedError), ("drop", InvalidInstanceError)],
)
def test_nan_in_a_stored_block_is_a_typed_error(tmp_path, mode, error):
    """A store whose block body was damaged after it was written: the
    block's coreset task fails, and under ``drop`` the true-cost pass
    reads the block. It raised scipy's ``ValueError: 'x' must be
    finite`` from the KD query there."""
    directory = tmp_path / "st"
    ShardStore.create(str(directory), POINTS, LABELS, SHARDS)
    block = np.load(directory / "shard_00001.points.npy", mmap_mode="r+")
    block[3, 0] = np.nan
    block.flush()
    del block
    policy = NO_RETRY
    if mode == "retry":
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
    kw = {key: value for key, value in SOLVE_KW.items() if key != "shards"}
    with pytest.raises(error) as info:
        shard_and_solve(
            ShardStore.open(str(directory)), 4, on_shard_failure=mode, retry_policy=policy, **kw
        )
    if error is InvalidInstanceError:
        assert str(directory) in str(info.value) and "shard 1 " in str(info.value)


# -- the layout -------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 4, 300], ids=["one", "uint8", "uint16"])
def test_layout_groups_like_per_shard_scans(tmp_path, shards):
    """Shard ``s`` is ``points[labels == s]`` in point order, with the
    sizes and weight totals a reopened store reads back, whatever width
    the narrowed sort key takes (300 shards need 16 bits)."""
    rng = np.random.default_rng(shards)
    labels = rng.permutation(np.arange(N) % shards)
    weights = rng.uniform(0.5, 2.0, N)
    source = _ResidentShards.of(POINTS, labels, shards, weights)
    ShardStore.create(str(tmp_path / "st"), POINTS, labels, shards, weights=weights)
    store = ShardStore.open(str(tmp_path / "st"))
    np.testing.assert_array_equal(source.sizes, store.sizes)
    assert source.weight_totals.tobytes() == store.weight_totals.tobytes()
    for s in range(shards):
        idx = np.flatnonzero(labels == s)
        points, w, origin = source.load_shard(s)
        np.testing.assert_array_equal(origin, idx)
        np.testing.assert_array_equal(points, POINTS[idx])
        np.testing.assert_array_equal(w, weights[idx])
