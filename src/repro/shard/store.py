"""Out-of-core shard storage: partitioned point blocks on disk.

The shard pipeline (PR 5) holds every input point in one process's RAM
and slices shard blocks out of the resident array. That caps the
reachable scale at "fits in memory with headroom for temporaries". A
:class:`ShardStore` removes the cap: the partitioned blocks are spilled
to disk as raw ``.npy`` files — one points/origin(/weights) triple per
shard, written in the exact order the in-RAM pipeline slices them — and
read back as ``np.memmap`` views, so the driver streams one shard at a
time instead of keeping the dataset resident.

Layout of a store directory::

    manifest.json             # schema, shard count, sizes, weight totals
                              # (written to a temp file, then os.replace'd)
    shard_00000.points.npy    # (n_s, dim) float64 block
    shard_00000.origin.npy    # (n_s,) intp global point ids
    shard_00000.weights.npy   # (n_s,) float64 (only for weighted stores)
    ...

**Byte-identity invariant**: ``ShardStore.create(points, labels, ...)``
writes shard ``s`` as ``points[np.flatnonzero(labels == s)]`` — the same
expression the in-RAM payload builder uses — so a coreset built from a
stored block is byte-identical to one built from the resident slice,
and the whole shard-and-conquer result is invariant to where the blocks
live (pinned by the store parity suite).

Workers receive a :class:`StoredShard` — a few paths and integers, a
trivially picklable ref — and open the memmaps *inside* the worker, so
the zero-copy batch transport never ships a point block at all: the OS
page cache is the shared medium.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from tokenize import TokenError

import numpy as np

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.io import _read_npy_header

#: Manifest schema version; bump on incompatible layout changes.
STORE_VERSION = 1

_MANIFEST = "manifest.json"
_FORMAT = "repro-shard-store"
_KEYS = ("version", "shards", "n", "dim", "has_weights", "sizes", "weight_totals")
_INTP_MAX = int(np.iinfo(np.intp).max)


def _manifest_problem(m: dict) -> str | None:
    """Why a manifest holding every key in ``_KEYS`` is not one
    :meth:`ShardStore.create` could have written, or ``None``: counts
    are JSON integers, ``n == sum(sizes)`` over non-empty shards, weight
    totals are finite positive floats, and an unweighted store's totals
    are its sizes."""

    def count(value, low=1):
        return type(value) is int and low <= value <= _INTP_MAX

    for key, low in (("version", 1), ("shards", 1), ("n", 1), ("dim", 0)):
        if not count(m[key], low):
            return f"{key} must be an integer >= {low}, got {m[key]!r}"
    if type(m["has_weights"]) is not bool:
        return f"has_weights must be true or false, got {m['has_weights']!r}"
    sizes, totals = m["sizes"], m["weight_totals"]
    if not (
        isinstance(sizes, list) and isinstance(totals, list)
        and len(sizes) == len(totals) == m["shards"]
    ):
        return f"needs one size and one weight total per shard ({m['shards']})"
    if not all(count(size) for size in sizes) or sum(sizes) != m["n"]:
        return f"shard sizes {sizes!r} must be integers >= 1 summing to n={m['n']!r}"
    if not all(type(t) is float and math.isfinite(t) and t > 0 for t in totals):
        return f"weight totals {totals!r} must be finite and positive"
    if not m["has_weights"] and totals != [float(size) for size in sizes]:
        return f"an unweighted store's weight totals {totals!r} must equal its sizes"
    return None


def _block_name(shard: int, part: str) -> str:
    return f"shard_{shard:05d}.{part}.npy"


def _write_manifest(directory: str, manifest: dict) -> None:
    """Dump the manifest to a temp file in ``directory``, then
    ``os.replace`` it into place: a writer killed mid-dump leaves the
    previous manifest (or none), never a truncated one."""
    path = os.path.join(directory, _MANIFEST)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclass(frozen=True)
class StoredShard:
    """Picklable reference to one shard's on-disk block.

    Carries paths and sizes only; :meth:`load` opens the arrays — as
    read-only memory maps by default — wherever the ref lands (driver
    or worker process).
    """

    points_path: str
    origin_path: str
    weights_path: str | None
    size: int
    dim: int

    def load(self, mmap_mode: str | None = "r"):
        """``(points, weights_or_None, origin)`` views of the block."""
        points = np.load(self.points_path, mmap_mode=mmap_mode)
        origin = np.load(self.origin_path, mmap_mode=mmap_mode)
        weights = (
            None
            if self.weights_path is None
            else np.load(self.weights_path, mmap_mode=mmap_mode)
        )
        return points, weights, origin


class ShardStore:
    """A directory of partitioned point blocks with memory-mapped reads.

    Build one with :meth:`create` (from resident points + labels) or
    :func:`partition_to_store` (partition and spill in one call), reopen
    with :meth:`open`. Instances are cheap handles — all state is the
    manifest plus lazily opened memmaps.
    """

    def __init__(self, directory: str, manifest: dict):
        self.directory = str(directory)
        self._manifest = manifest
        self.shards = int(manifest["shards"])
        self.n = int(manifest["n"])
        self.dim = int(manifest["dim"])
        self.has_weights = bool(manifest["has_weights"])
        self.sizes = np.asarray(manifest["sizes"], dtype=np.intp)
        self.weight_totals = np.asarray(manifest["weight_totals"], dtype=float)

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        points,
        labels,
        shards: int,
        *,
        weights=None,
    ) -> "ShardStore":
        """Spill ``points`` to ``directory`` as per-shard blocks.

        Validation mirrors the in-RAM payload builder exactly (label
        range, no empty shard, strictly positive weights) so a store
        accepts precisely the inputs the resident pipeline would.
        ``points`` may itself be a memmap — blocks are gathered shard
        by shard, so residency stays one shard at a time.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise InvalidParameterError(
                f"points must be a non-empty (n, dim) array, got shape {points.shape}"
            )
        n, dim = points.shape
        labels = np.asarray(labels, dtype=np.intp)
        if labels.shape != (n,):
            raise InvalidParameterError(
                f"labels must have shape ({n},), got {labels.shape}"
            )
        shards = int(shards)
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        if labels.min() < 0 or labels.max() >= shards:
            raise InvalidParameterError(
                f"labels must lie in [0, {shards}); got range "
                f"[{int(labels.min())}, {int(labels.max())}]"
            )
        weights_arr = None
        if weights is not None:
            weights_arr = np.asarray(weights, dtype=float)
            if weights_arr.shape != (n,) or (
                weights_arr.size and weights_arr.min() <= 0
            ):
                raise InvalidParameterError(
                    "weights must be strictly positive, one per point"
                )
        os.makedirs(directory, exist_ok=True)
        sizes = []
        weight_totals = []
        for s in range(shards):
            idx = np.flatnonzero(labels == s)
            if idx.size == 0:
                raise InvalidParameterError(
                    f"shard {s} is empty; labels must cover every shard"
                )
            sizes.append(int(idx.size))
            np.save(os.path.join(directory, _block_name(s, "points")), points[idx])
            np.save(
                os.path.join(directory, _block_name(s, "origin")),
                idx.astype(np.intp),
            )
            if weights_arr is not None:
                block_w = weights_arr[idx]
                np.save(os.path.join(directory, _block_name(s, "weights")), block_w)
                weight_totals.append(float(block_w.sum()))
            else:
                weight_totals.append(float(idx.size))
        manifest = {
            "format": _FORMAT,
            "version": STORE_VERSION,
            "shards": shards,
            "n": int(n),
            "dim": int(dim),
            "has_weights": weights_arr is not None,
            "sizes": sizes,
            "weight_totals": weight_totals,
        }
        _write_manifest(directory, manifest)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: str) -> "ShardStore":
        """Reopen an existing store, verifying the manifest and every
        block's ``.npy`` header (shape and dtype) against it.

        Any manifest or block :meth:`create` could not have written
        raises :class:`~repro.errors.InvalidInstanceError`."""
        path = os.path.join(directory, _MANIFEST)
        if not os.path.isfile(path):
            raise InvalidInstanceError(
                f"{directory!r} is not a shard store (no {_MANIFEST})"
            )
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
            raise InvalidInstanceError(
                f"shard store {directory!r} has an unreadable {_MANIFEST}: {exc}"
            ) from None
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        if fmt != _FORMAT:
            raise InvalidInstanceError(
                f"{directory!r} manifest has format {fmt!r}, expected {_FORMAT!r}"
            )
        for key in _KEYS:
            if key not in manifest:
                raise InvalidInstanceError(
                    f"shard store {directory!r} manifest lacks key {key!r}"
                )
        version = manifest["version"]
        if type(version) is int and version > STORE_VERSION:
            raise InvalidInstanceError(
                f"shard store {directory!r} has schema version "
                f"{version}, newer than supported {STORE_VERSION}"
            )
        problem = _manifest_problem(manifest)
        if problem is not None:
            raise InvalidInstanceError(
                f"shard store {directory!r} manifest is malformed: {problem}"
            )
        store = cls(directory, manifest)
        for s in range(store.shards):
            store._verify_blocks(s)
        return store

    def _verify_blocks(self, s: int) -> None:
        """Check shard ``s``'s block headers against the manifest and the
        dtypes :meth:`create` writes. Only the ``.npy`` header is read;
        the file must also be long enough for the data it announces."""
        ref = self.shard_ref(s)
        blocks = (
            (ref.points_path, (ref.size, ref.dim), np.dtype(np.float64)),
            (ref.origin_path, (ref.size,), np.dtype(np.intp)),
            (ref.weights_path, (ref.size,), np.dtype(np.float64)),
        )
        for path, shape, dtype in blocks:
            if path is None:
                continue
            if not os.path.isfile(path):
                raise InvalidInstanceError(
                    f"shard store {self.directory!r} is missing block file {path!r}"
                )
            try:
                with open(path, "rb") as fh:
                    got_shape, _, got_dtype, data_start = _read_npy_header(fh)
                    spare = os.fstat(fh.fileno()).st_size - data_start
            except (OSError, ValueError, TokenError, InvalidInstanceError) as exc:
                raise InvalidInstanceError(
                    f"shard store {self.directory!r} block {path!r} is unreadable: {exc}"
                ) from None
            if got_shape != shape or got_dtype != dtype:
                raise InvalidInstanceError(
                    f"shard store {self.directory!r} block {path!r} holds "
                    f"{got_dtype}{got_shape}, the manifest expects {dtype}{shape}"
                )
            need = math.prod(shape) * dtype.itemsize
            if spare < need:
                raise InvalidInstanceError(
                    f"shard store {self.directory!r} block {path!r} is unreadable: "
                    f"{spare} data bytes, its header announces {need}"
                )

    # -- access -------------------------------------------------------------

    def _check_shard(self, s: int) -> int:
        s = int(s)
        if not 0 <= s < self.shards:
            raise InvalidParameterError(
                f"shard index must be in [0, {self.shards}), got {s}"
            )
        return s

    def shard_ref(self, s: int) -> StoredShard:
        """Picklable on-disk ref for shard ``s`` (what workers receive)."""
        s = self._check_shard(s)
        return StoredShard(
            points_path=os.path.join(self.directory, _block_name(s, "points")),
            origin_path=os.path.join(self.directory, _block_name(s, "origin")),
            weights_path=(
                os.path.join(self.directory, _block_name(s, "weights"))
                if self.has_weights
                else None
            ),
            size=int(self.sizes[s]),
            dim=self.dim,
        )

    def load_shard(self, s: int, mmap_mode: str | None = "r"):
        """``(points, weights_or_None, origin)`` for shard ``s`` —
        read-only memmap views by default."""
        return self.shard_ref(s).load(mmap_mode=mmap_mode)

    def iter_shards(self, mmap_mode: str | None = "r"):
        """Yield ``(s, points, weights_or_None, origin)`` one shard at a
        time — the streaming access pattern; residency is one block."""
        for s in range(self.shards):
            points, weights, origin = self.load_shard(s, mmap_mode=mmap_mode)
            yield s, points, weights, origin

    @property
    def total_weight(self) -> float:
        return float(self.weight_totals.sum())

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"ShardStore({self.directory!r}, shards={self.shards}, "
            f"n={self.n}, dim={self.dim}, weighted={self.has_weights})"
        )


def partition_to_store(
    points,
    shards: int,
    directory: str,
    *,
    partition: str = "locality",
    weights=None,
    seed=None,
    machine=None,
) -> ShardStore:
    """Partition ``points`` and spill the blocks in one call.

    The labels come from the same :func:`repro.shard.partition
    .make_partition` the resident driver uses (identical partitioner,
    identical seed handling), so a store built here and a resident run
    with the same arguments shard the data identically. When a
    ``machine`` is given the partition pass is charged to its ledger —
    the same ``shard_partition`` charge the driver makes — so model
    accounting is independent of where the blocks end up.
    """
    from repro.shard.partition import make_partition

    points = np.asarray(points, dtype=float)
    labels = make_partition(points, shards, partition, seed=seed)
    store = ShardStore.create(
        directory, points, labels, int(shards), weights=weights
    )
    if machine is not None:
        machine.ledger.charge_basic("shard_partition", points.shape[0])
        machine.bump_round("shard_partition")
    return store
