"""Instance (de)serialization.

Instances round-trip through NumPy ``.npz`` archives so benchmark
workloads can be frozen to disk and examples can ship reproducible
inputs. The format stores only validated payloads, so loading skips
re-validation of the (possibly large) triangle-inequality check.

**Schema versioning.** Every archive carries a ``version`` field
(:data:`SCHEMA_VERSION` at write time). Weighted instances additionally
write *distinct kind tags* (``…-weighted``): a pre-versioning reader
dispatching on the kind string then fails loudly with "unrecognized
instance kind" instead of silently loading the structure and dropping
the weights — which would mis-evaluate every objective. Readers here
reject archives from a newer schema, and reject kind/version
mismatches (a weighted kind without a ``version ≥ 2`` stamp, or a
legacy kind smuggling weight arrays) explicitly.

**Large instances.** ``save_instance(..., compressed=False)`` writes an
uncompressed archive — same schema, same member names, just ``ZIP_STORED``
entries — because deflate dominates save time at 1M+ points. Uncompressed
archives can additionally be *memory-mapped*: ``load_instance(path,
mmap_mode="r")`` parses each member's position inside the zip and hands
the instance ``np.memmap`` views of the raw ``.npy`` payload bytes, so
loading touches no array data until a solver reads it (the out-of-core
entry point of the shard pipeline).
"""

from __future__ import annotations

import contextlib
import os
import struct
import zipfile
import zlib
from tokenize import TokenError

import numpy as np
from numpy.lib import format as _npy_format

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.space import MetricSpace
from repro.metrics.sparse import SparseClusteringInstance, SparseFacilityLocationInstance

#: Archive schema generation this module writes. v1: unweighted
#: instances, no version field. v2: explicit version field + weighted
#: variants under ``…-weighted`` kind tags.
SCHEMA_VERSION = 2

_KIND_FL = "facility-location"
_KIND_CLUSTER = "clustering"
_KIND_SPARSE_FL = "sparse-facility-location"
_KIND_SPARSE_CLUSTER = "sparse-clustering"
_WEIGHTED_SUFFIX = "-weighted"
#: Kinds whose payload carries a weight vector; they require v ≥ 2.
_WEIGHTED_KINDS = frozenset(
    kind + _WEIGHTED_SUFFIX
    for kind in (_KIND_FL, _KIND_CLUSTER, _KIND_SPARSE_FL, _KIND_SPARSE_CLUSTER)
)
_WEIGHT_FIELDS = ("weights", "client_weights")


def save_instance(path, instance, *, compressed: bool = True) -> None:
    """Write an instance to ``path`` as an ``.npz`` archive.

    ``compressed=False`` writes ``ZIP_STORED`` members instead of
    deflated ones — identical schema and member names, so every reader
    works on both — trading disk size for save speed (compression
    dominates wall-clock at 1M+ points) and enabling memory-mapped
    loading via ``load_instance(path, mmap_mode=...)``.
    """
    if isinstance(instance, FacilityLocationInstance):
        payload = {
            "kind": np.asarray(_KIND_FL),
            "D": instance.D,
            "f": instance.f,
        }
        if instance.metric is not None:
            payload["metric_D"] = instance.metric.D
            payload["facility_ids"] = instance.facility_ids
            payload["client_ids"] = instance.client_ids
        if not instance.has_unit_weights:
            payload["kind"] = np.asarray(_KIND_FL + _WEIGHTED_SUFFIX)
            payload["client_weights"] = instance.client_weights
    elif isinstance(instance, SparseFacilityLocationInstance):
        payload = {
            "kind": np.asarray(_KIND_SPARSE_FL),
            "indptr": instance.indptr,
            "indices": instance.indices,
            "data": instance.data,
            "f": instance.f,
            "fallback": instance.fallback,
            "n_clients": np.asarray(instance.n_clients),
        }
        if not instance.has_unit_weights:
            payload["kind"] = np.asarray(_KIND_SPARSE_FL + _WEIGHTED_SUFFIX)
            payload["client_weights"] = instance.client_weights
    elif isinstance(instance, SparseClusteringInstance):
        payload = {
            "kind": np.asarray(_KIND_SPARSE_CLUSTER),
            "indptr": instance.indptr,
            "indices": instance.indices,
            "data": instance.data,
            "fallback": instance.fallback,
            "k": np.asarray(instance.k),
        }
        if not instance.has_unit_weights:
            payload["kind"] = np.asarray(_KIND_SPARSE_CLUSTER + _WEIGHTED_SUFFIX)
            payload["weights"] = instance.weights
    elif isinstance(instance, ClusteringInstance):
        payload = {
            "kind": np.asarray(_KIND_CLUSTER),
            "D": instance.space.D,
            "k": np.asarray(instance.k),
        }
        if not instance.has_unit_weights:
            payload["kind"] = np.asarray(_KIND_CLUSTER + _WEIGHTED_SUFFIX)
            payload["weights"] = instance.weights
    else:
        raise InvalidInstanceError(f"cannot save object of type {type(instance).__name__}")
    payload["version"] = np.asarray(SCHEMA_VERSION)
    if compressed:
        np.savez_compressed(path, **payload)
    else:
        np.savez(path, **payload)


def _check_schema(data, kind: str, path) -> None:
    """Reject version-tag mismatches before any payload is touched."""
    version = int(data["version"]) if "version" in data else 1
    if version > SCHEMA_VERSION:
        raise InvalidInstanceError(
            f"{path} was written by archive schema v{version}; this reader "
            f"supports ≤ v{SCHEMA_VERSION} — upgrade repro to load it"
        )
    weighted_kind = kind in _WEIGHTED_KINDS
    if weighted_kind and version < 2:
        raise InvalidInstanceError(
            f"{path} declares weighted kind {kind!r} but schema v{version} "
            "(< 2) has no weighted payloads: the version tag and the kind "
            "tag disagree — the archive is corrupt or hand-edited"
        )
    if weighted_kind:
        base = kind[: -len(_WEIGHTED_SUFFIX)]
        expected = "client_weights" if base in (_KIND_FL, _KIND_SPARSE_FL) else "weights"
        if expected not in data:
            raise InvalidInstanceError(
                f"{path} declares weighted kind {kind!r} but carries no "
                f"{expected!r} array: loading it would silently produce a "
                "unit-weight instance (kind/payload mismatch)"
            )
        stray = [f for f in _WEIGHT_FIELDS if f != expected and f in data]
        if stray:
            raise InvalidInstanceError(
                f"{path} carries {stray[0]!r} under kind {kind!r}, which "
                f"stores its weights as {expected!r}; refusing to load an "
                "archive whose weights would be silently dropped"
            )
    elif any(fld in data for fld in _WEIGHT_FIELDS):
        raise InvalidInstanceError(
            f"{path} carries a weight vector under unweighted kind {kind!r}; "
            "refusing to load an archive whose weights would be silently "
            "dropped (kind/payload mismatch)"
        )


#: What zipfile, zlib, struct and NumPy's ``.npy`` reader raise on a
#: damaged archive: a truncated stream, a bad CRC, header or offset, an
#: unsupported compression method or encryption flag, a missing member,
#: an object or non-scalar member where a scalar belongs, a version-1.0
#: header whose brackets do not balance (``TokenError``).
_PARSE_ERRORS = (
    zipfile.BadZipFile,
    TokenError,
    zlib.error,
    struct.error,
    EOFError,
    OSError,
    KeyError,
    ValueError,
    TypeError,
    RuntimeError,
    NotImplementedError,
)

#: ``mmap_mode`` values accepted by :func:`load_instance`. ``r+`` is
#: deliberately rejected: the maps point *into the archive file*, so a
#: writable map would corrupt the zip structure around the payload.
_MMAP_MODES = ("r", "c")


def _read_npy_header(fh):
    """``(shape, fortran, dtype, header_size)`` of the ``.npy`` stream
    at ``fh``'s current position (consumes exactly the header)."""
    version = _npy_format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = _npy_format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = _npy_format.read_array_header_2_0(fh)
    else:  # pragma: no cover - numpy writes 1.0/2.0 for plain arrays
        raise InvalidInstanceError(
            f"unsupported .npy format version {version} for memory-mapping"
        )
    return shape, fortran, dtype, fh.tell()


def _mmap_npz_members(path, mmap_mode: str) -> dict:
    """Memory-map every array member of an *uncompressed* ``.npz``.

    ``np.load``'s ``mmap_mode`` silently ignores zip archives, so this
    walks the archive itself: for each ``ZIP_STORED`` member, the
    payload's absolute file offset is the member's local-header offset
    plus the (30-byte fixed + variable name/extra) local header — read
    from the *local* header, whose extra field legitimately differs
    from the central directory's — plus the ``.npy`` header; the array
    is then an ``np.memmap`` straight into the archive file. 0-d
    members (kind/version/scalars) are read eagerly — there is nothing
    to stream.
    """
    out: dict = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as raw:
        for info in zf.infolist():
            if not info.filename.endswith(".npy"):  # pragma: no cover - defensive
                continue
            name = info.filename[: -len(".npy")]
            if info.compress_type != zipfile.ZIP_STORED:
                raise InvalidInstanceError(
                    f"{path} member {info.filename!r} is compressed and cannot "
                    "be memory-mapped; rewrite the archive with "
                    "save_instance(..., compressed=False) or load without "
                    "mmap_mode"
                )
            with zf.open(info) as fh:
                shape, fortran, dtype, header_size = _read_npy_header(fh)
            if dtype.hasobject:  # pragma: no cover - schema stores no objects
                raise InvalidInstanceError(
                    f"{path} member {info.filename!r} holds objects; refusing "
                    "to memory-map"
                )
            if shape == ():
                with zf.open(info) as fh:
                    out[name] = _npy_format.read_array(fh, allow_pickle=False)
                continue
            raw.seek(info.header_offset + 26)
            fname_len, extra_len = struct.unpack("<HH", raw.read(4))
            data_offset = (
                info.header_offset + 30 + fname_len + extra_len + header_size
            )
            out[name] = np.memmap(
                path,
                dtype=dtype,
                shape=shape,
                order="F" if fortran else "C",
                mode=mmap_mode,
                offset=data_offset,
            )
    return out


def load_instance(path, *, mmap_mode: str | None = None):
    """Read an instance previously written by :func:`save_instance`.

    ``mmap_mode`` (``"r"`` read-only or ``"c"`` copy-on-write) hands
    the instance ``np.memmap`` views into the archive instead of
    resident arrays — no array data is read until used. Requires an
    uncompressed archive (``save_instance(..., compressed=False)``);
    a compressed one is rejected with instructions, never silently
    loaded resident.

    A path that cannot be opened raises its ``OSError`` (e.g.
    ``FileNotFoundError``); any failure to parse an opened file —
    truncated or corrupt zip, missing or malformed members, an unknown
    kind — raises :class:`~repro.errors.InvalidInstanceError` naming the
    path, with the underlying error chained.
    """
    if mmap_mode is not None:
        if mmap_mode not in _MMAP_MODES:
            raise InvalidParameterError(
                f"mmap_mode must be one of {_MMAP_MODES} (or None), "
                f"got {mmap_mode!r}"
            )
        if not isinstance(path, (str, os.PathLike)):
            raise InvalidParameterError(
                "mmap_mode requires a filesystem path, not a file object"
            )
    # Opened outside the parse guard, so a missing or unreadable path
    # keeps its own OSError. np.load reads through this handle: given a
    # path, it leaks the file it opened when the zip directory is bad.
    is_path = isinstance(path, (str, os.PathLike))
    with open(path, "rb") if is_path else contextlib.nullcontext(path) as fh:
        try:
            if mmap_mode is not None:
                return _build_instance(_mmap_npz_members(path, mmap_mode), path)
            with np.load(fh, allow_pickle=False) as data:
                return _build_instance(data, path)
        except _PARSE_ERRORS as exc:
            raise InvalidInstanceError(
                f"{path} is not a readable instance archive: {type(exc).__name__}: {exc}"
            ) from exc


def _build_instance(data, path):
    """Shared kind dispatch over a mapping of payload arrays (an open
    ``NpzFile`` or the memmap-member dict)."""
    kind = str(data["kind"])
    _check_schema(data, kind, path)

    def payload(name):
        # Read-only from the start: the loader holds the only reference,
        # so an instance keeps the array instead of copying it.
        arr = data[name]
        arr.setflags(write=False)
        return arr

    base_kind = kind[: -len(_WEIGHTED_SUFFIX)] if kind in _WEIGHTED_KINDS else kind
    weights = payload("weights") if "weights" in data else None
    client_weights = payload("client_weights") if "client_weights" in data else None
    if base_kind == _KIND_FL:
        if "metric_D" in data:
            metric = MetricSpace(payload("metric_D"), validate=False)
            return FacilityLocationInstance(
                payload("D"),
                payload("f"),
                metric=metric,
                facility_ids=data["facility_ids"],
                client_ids=data["client_ids"],
                client_weights=client_weights,
            )
        return FacilityLocationInstance(
            payload("D"), payload("f"), client_weights=client_weights
        )
    if base_kind == _KIND_SPARSE_FL:
        return SparseFacilityLocationInstance(
            payload("indptr"),
            payload("indices"),
            payload("data"),
            payload("f"),
            n_clients=int(data["n_clients"]),
            fallback=payload("fallback"),
            client_weights=client_weights,
        )
    if base_kind == _KIND_SPARSE_CLUSTER:
        return SparseClusteringInstance(
            payload("indptr"),
            payload("indices"),
            payload("data"),
            int(data["k"]),
            fallback=payload("fallback"),
            weights=weights,
        )
    if base_kind == _KIND_CLUSTER:
        return ClusteringInstance(
            MetricSpace(payload("D"), validate=False), int(data["k"]), weights=weights
        )
    raise InvalidInstanceError(f"unrecognized instance kind {kind!r} in {path}")
