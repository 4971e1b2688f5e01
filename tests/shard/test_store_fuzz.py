"""Fuzzing :meth:`ShardStore.open` with malformed manifests and blocks.

A shard store directory is external input: its manifest and block
files may be edited, truncated or garbled after :meth:`ShardStore.create`
wrote them. ``open`` must either return a store whose manifest is one
``create`` could have written (``n == sum(sizes)``, finite positive
weight totals, an unweighted store's totals equal to its sizes, every
block matching its size and dimension) or raise
:class:`~repro.errors.InvalidInstanceError` — never a raw ``ValueError``,
``TypeError``, ``OverflowError`` or numpy error, and never a store that
reports the wrong size.
"""

import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.shard.store import ShardStore

N, SHARDS = 200, 4
POINTS = np.random.default_rng(3).normal(size=(N, 2))
LABELS = np.arange(N) % SHARDS
WEIGHTS = np.random.default_rng(4).uniform(0.5, 2.0, N)

#: JSON tokens written verbatim into the manifest text, so values that
#: ``json.dump`` cannot produce (``1e400``, integers past 64 bits) are
#: covered too.
RAW_TOKENS = [
    "null", "true", "false", '"abc"', '""', "[]", "[1]", "{}", '{"a": 1}',
    "0", "-1", "1", "3", "4", "199", "200", "201", "999", "2.0", "200.0",
    "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "99999999999999999999", "-99999999999999999999", str(2**63),
]

FIELDS = ["format", "version", "shards", "n", "dim", "has_weights", "sizes", "weight_totals"]

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

ELEMENT_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-5, 300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["50", ""])
)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    return {
        weighted: ShardStore.create(
            str(base / f"w{int(weighted)}"), POINTS, LABELS, SHARDS,
            weights=WEIGHTS if weighted else None,
        ).directory
        for weighted in (False, True)
    }


def _copy(src: str, tmp: str) -> str:
    dst = os.path.join(tmp, "store")
    shutil.copytree(src, dst)
    return dst


def _read_manifest(directory: str) -> dict:
    with open(os.path.join(directory, "manifest.json")) as fh:
        return json.load(fh)


def _write_manifest_text(directory: str, text: str) -> None:
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        fh.write(text)


def _open_or_invalid(directory: str):
    """``ShardStore.open``; if it accepts, the store must be consistent."""
    try:
        store = ShardStore.open(directory)
    except InvalidInstanceError:
        return None
    assert store.n == int(store.sizes.sum())
    assert store.sizes.shape == store.weight_totals.shape == (store.shards,)
    assert np.all(store.sizes >= 1)
    assert all(math.isfinite(t) and t > 0 for t in store.weight_totals)
    if not store.has_weights:
        assert np.array_equal(store.weight_totals, store.sizes.astype(float))
    for s, points, weights, origin in store.iter_shards():
        assert points.shape == (store.sizes[s], store.dim)
        assert origin.shape == (store.sizes[s],)
        assert weights is None or weights.shape == (store.sizes[s],)
    return store


@settings(max_examples=150, deadline=None)
@given(
    weighted=st.booleans(),
    field=st.sampled_from(FIELDS),
    value=JSON_VALUES,
)
def test_manifest_field_replaced_by_any_json_value(stores, weighted, field, value):
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[weighted], tmp)
        manifest = _read_manifest(d)
        manifest[field] = value
        _write_manifest_text(d, json.dumps(manifest))
        _open_or_invalid(d)


@settings(max_examples=150, deadline=None)
@given(
    weighted=st.booleans(),
    field=st.sampled_from(FIELDS),
    token=st.sampled_from(RAW_TOKENS),
)
def test_manifest_field_replaced_by_raw_token(stores, weighted, field, token):
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[weighted], tmp)
        manifest = _read_manifest(d)
        manifest[field] = "__RAW__"
        _write_manifest_text(d, json.dumps(manifest).replace('"__RAW__"', token))
        _open_or_invalid(d)


@settings(max_examples=150, deadline=None)
@given(
    weighted=st.booleans(),
    field=st.sampled_from(["sizes", "weight_totals"]),
    slot=st.integers(0, SHARDS - 1),
    value=ELEMENT_VALUES,
    n_delta=st.sampled_from([0, 0, -1, 1, 799]),
)
def test_manifest_per_shard_entry_replaced(stores, weighted, field, slot, value, n_delta):
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[weighted], tmp)
        manifest = _read_manifest(d)
        manifest[field][slot] = value
        manifest["n"] += n_delta
        _write_manifest_text(d, json.dumps(manifest))
        _open_or_invalid(d)


@settings(max_examples=60, deadline=None)
@given(weighted=st.booleans(), field=st.sampled_from(FIELDS))
def test_manifest_key_deleted(stores, weighted, field):
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[weighted], tmp)
        manifest = _read_manifest(d)
        del manifest[field]
        _write_manifest_text(d, json.dumps(manifest))
        with pytest.raises(InvalidInstanceError):
            ShardStore.open(d)


BLOCKS = [
    f"shard_{s:05d}.{part}.npy" for s in range(SHARDS) for part in ("points", "origin", "weights")
]


@settings(max_examples=150, deadline=None)
@given(
    block=st.sampled_from(BLOCKS),
    cut=st.none() | st.integers(0, 200),
    flips=st.lists(st.tuples(st.integers(0, 127), st.integers(1, 255)), max_size=4),
    prefix=st.sampled_from([b"", b"PK\x03\x04", b"\x93NUMPY\x09\x00", b"not an array"]),
)
def test_block_header_truncated_or_garbled(stores, block, cut, flips, prefix):
    """Flip bytes in a block's header region, overwrite its start, or cut
    it short: ``open`` reads every header, so it refuses the store or
    the block still holds what the manifest says."""
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[True], tmp)
        path = os.path.join(d, block)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        for where, mask in flips:
            data[where] ^= mask
        data[: len(prefix)] = prefix
        if cut is not None:
            data = data[:cut]
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        _open_or_invalid(d)


@pytest.mark.parametrize(
    "field, token",
    [
        ("version", '"abc"'), ("version", "null"), ("version", "[1]"),
        ("version", "1e400"), ("version", "true"), ("version", "1.0"),
        ("n", "999"), ("n", "1e400"), ("shards", "1e400"),
        ("sizes", "[50, 50, 50, 50.5]"), ("sizes", "[50, 50, 50, 1e400]"),
        ("weight_totals", "[NaN, NaN, NaN, NaN]"),
        ("weight_totals", "[-1.0, -1.0, -1.0, -1.0]"),
        ("weight_totals", "[50.0, 50.0, 50.0, 51.0]"),
    ],
)
def test_measured_defects_are_refused_at_open(stores, field, token):
    """The manifests that opened (``n``, the totals) or escaped as raw
    ``ValueError``/``TypeError``/``OverflowError`` (``version``) on an
    unweighted 200-point, 4-shard store."""
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy(stores[False], tmp)
        manifest = _read_manifest(d)
        manifest[field] = "__RAW__"
        _write_manifest_text(d, json.dumps(manifest).replace('"__RAW__"', token))
        with pytest.raises(InvalidInstanceError, match="manifest"):
            ShardStore.open(d)
