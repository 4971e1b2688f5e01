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

**One layout, two homes.** Resident points are grouped by shard once,
in :class:`_ResidentShards`, the store's in-memory twin: it runs the
partition checks (points, weights, labels, shard count) and one stable
sort of the labels. :meth:`ShardStore.create` writes its blocks from
that layout, so block ``s`` holds exactly the rows the resident source
hands to shard ``s``'s coreset task, in ascending point order. Both
sources offer the same read surface (``sizes``, ``weight_totals``,
``load_shard``, a per-shard task block, the blocks of a full pass), so
every pipeline stage has one body, and the whole shard-and-conquer
result is invariant to where the blocks live (pinned by the store
parity suite and its ``hypothesis`` property).

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
from repro.shard.partition import (
    _check_labels,
    _check_points,
    _check_shards,
    _check_weights,
    make_partition,
)

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

        The inputs pass the resident source's checks (finite points,
        labels covering every shard, finite strictly positive weights)
        before any file is written, so a store accepts precisely the
        inputs the resident pipeline would. ``points`` may itself be a
        memmap: blocks are gathered shard by shard, so residency stays
        one shard at a time.
        """
        return _ResidentShards.of(points, labels, shards, weights).spill(directory)

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

    def load_checked(self, s: int):
        """:meth:`load_shard`, refusing a block :meth:`create` could not
        have written — a point or weight that is not finite, or a weight
        that is not positive — with
        :class:`~repro.errors.InvalidInstanceError` naming the store and
        the shard. :meth:`open` reads only the block headers, so this is
        where a damaged block body shows, before a KD query meets it."""
        points, weights, origin = self.load_shard(s)
        if not np.isfinite(points).all() or (
            weights is not None and not (np.isfinite(weights).all() and weights.min() > 0)
        ):
            raise InvalidInstanceError(
                f"shard store {self.directory!r} shard {int(s)} holds a point or weight "
                "that is not finite, or a weight that is not positive"
            )
        return points, weights, origin

    #: What shard ``s``'s coreset task receives: the ref, opened inside
    #: whichever process runs the task.
    task_block = shard_ref

    def pass_blocks(self):
        """The blocks a full pass streams: one per shard, checked."""
        return (self.load_checked(s) for s in range(self.shards))

    @property
    def total_weight(self) -> float:
        return float(self.weight_totals.sum())

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"ShardStore({self.directory!r}, shards={self.shards}, "
            f"n={self.n}, dim={self.dim}, weighted={self.has_weights})"
        )


class _ResidentShards:
    """Resident points grouped by shard once: :class:`ShardStore`'s
    in-memory twin, with its read surface. Shard ``s`` is the run
    ``order[indptr[s]:indptr[s + 1]]`` of one stable sort of the labels
    (narrowed so NumPy sorts them by radix): its point ids in ascending
    order, the rows :meth:`ShardStore.create` writes as block ``s``.
    Blocks are gathered from the caller's arrays one shard at a time.
    """

    def __init__(self, points, weights, labels, shards):
        """``points`` and ``weights`` come checked (:meth:`of`,
        :meth:`partitioned`); the shard count and labels are checked here."""
        self.n, self.dim = points.shape
        self.shards = _check_shards(shards, self.n)
        key, self.sizes = _check_labels(labels, self.n, self.shards)
        self._points = points
        self._weights = weights
        self._order = np.argsort(key, kind="stable")
        self._order.flags.writeable = False
        self._indptr = np.concatenate(([0], np.cumsum(self.sizes)))
        self.has_weights = weights is not None
        self.weight_totals = (
            np.asarray([float(weights[self._origin(s)].sum()) for s in range(self.shards)])
            if self.has_weights
            else self.sizes.astype(float)
        )

    @classmethod
    def of(cls, points, labels, shards, weights=None) -> "_ResidentShards":
        points = _check_points(points)
        return cls(points, _check_weights(weights, points.shape[0]), labels, shards)

    @classmethod
    def partitioned(cls, points, shards, method, *, weights=None, seed=None):
        """Check ``points`` and ``weights``, then partition the points
        with :func:`~repro.shard.partition.make_partition` and group
        them: a bad weight is refused before the partitioner runs."""
        points = _check_points(points)
        weights = _check_weights(weights, points.shape[0])
        return cls(points, weights, make_partition(points, shards, method, seed=seed), shards)

    @property
    def total_weight(self) -> float:
        return float(self.weight_totals.sum())

    def _origin(self, s: int) -> np.ndarray:
        return self._order[self._indptr[s]:self._indptr[s + 1]]

    def load_shard(self, s: int):
        """``(points, weights_or_None, origin)`` of shard ``s``: copies
        of its rows and a read-only view of its point ids, in ascending
        point order."""
        origin = self._origin(s)
        weights = None if self._weights is None else self._weights[origin]
        return self._points[origin], weights, origin

    #: What shard ``s``'s coreset task receives: plain arrays, which the
    #: process pool's shared-memory transport carries.
    task_block = load_shard

    #: Resident points and weights were checked at partition.
    load_checked = load_shard

    def pass_blocks(self):
        """The blocks a full pass streams: one, in point order."""
        return [(self._points, self._weights, slice(None))]

    def spill(self, directory: str) -> ShardStore:
        """Write every shard's block, then the manifest, to ``directory``."""
        os.makedirs(directory, exist_ok=True)
        for s in range(self.shards):
            points, weights, origin = self.load_shard(s)
            np.save(os.path.join(directory, _block_name(s, "points")), points)
            np.save(os.path.join(directory, _block_name(s, "origin")), origin)
            if weights is not None:
                np.save(os.path.join(directory, _block_name(s, "weights")), weights)
        manifest = {
            "format": _FORMAT,
            "version": STORE_VERSION,
            "shards": self.shards,
            "n": self.n,
            "dim": self.dim,
            "has_weights": self.has_weights,
            "sizes": self.sizes.tolist(),
            "weight_totals": self.weight_totals.tolist(),
        }
        _write_manifest(directory, manifest)
        return ShardStore(directory, manifest)


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
    with the same arguments shard the data identically. Points and
    weights are checked before the partitioner runs. When a
    ``machine`` is given the partition pass is charged to its ledger —
    the same ``shard_partition`` charge the driver makes — so model
    accounting is independent of where the blocks end up.
    """
    source = _ResidentShards.partitioned(
        points, shards, partition, weights=weights, seed=seed
    )
    store = source.spill(directory)
    if machine is not None:
        machine.ledger.charge_basic("shard_partition", source.n)
        machine.bump_round("shard_partition")
    return store
