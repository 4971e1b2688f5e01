"""Content-addressed instance/result caching and admission control.

The serving tier stores instances and solved results under
**content hashes** so identical payloads dedupe for free: an instance's
id is a digest over exactly the array members
:func:`repro.metrics.io.save_instance` would write for it (name, dtype,
shape, raw bytes — the ``.npz`` payload, minus the zip container whose
entry timestamps would make byte-hashing the archive nondeterministic).
Two clients uploading the same points get the same ``instance_id``;
a repeated identical solve request is answered from the result cache
without touching the queue.

**Admission control** estimates a request's resident footprint from
byte formulas (:func:`estimate_request_bytes`) — raw point block,
per-shard coreset copies, and the merged kNN CSR with the ~5
edge-sized temporaries the solvers allocate — and requests whose
estimate exceeds the server's budget are rejected up front (HTTP 413)
instead of OOM-ing a worker mid-solve.

Both caches are LRU over a byte budget; eviction never touches entries
for jobs still in flight (the result cache only ever holds finished
payloads — in-flight dedup lives in the job table, not here).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidParameterError


def payload_hash(arrays: dict) -> str:
    """Deterministic digest of an npz payload (named arrays).

    Hashes each member's name, dtype, shape, and C-order bytes in
    sorted-name order — the content of the archive
    :func:`repro.metrics.io.save_instance` writes, independent of zip
    entry metadata (timestamps make hashing archive bytes unstable).
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(a.dtype).encode("ascii"))
        h.update(str(a.shape).encode("ascii"))
        h.update(a.tobytes())
    return h.hexdigest()[:32]


def result_key(instance_id: str, params: dict) -> str:
    """Cache key for one solve: instance content + canonical params.

    ``params`` must be JSON-serializable; key order is canonicalized so
    logically identical requests collide (the point of the cache).
    """
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256()
    h.update(instance_id.encode("ascii"))
    h.update(b"\x00")
    h.update(blob.encode("utf-8"))
    return h.hexdigest()[:32]


def estimate_request_bytes(
    n: int,
    dim: int,
    *,
    k: int,
    shards: int,
    coreset_size: int | None,
    neighbors: int,
) -> int:
    """Resident-footprint estimate for one served solve.

    ``8`` bytes per float64, the merged kNN CSR charged at ``2·neighbors`` directed
    edges per node times ~5 edge-sized arrays (indptr/indices/data plus
    the segmented per-edge temporaries the solvers allocate), plus the
    raw point block twice (input + partition/coreset working copies).
    """
    per_shard = int(coreset_size) if coreset_size else max(16 * int(k), 128)
    merged_n = min(int(n), int(shards) * per_shard)
    csr_bytes = 2 * int(neighbors) * merged_n * 8 * 5
    point_bytes = int(n) * int(dim) * 8
    return 2 * point_bytes + csr_bytes


class AdmissionError(InvalidParameterError):
    """A request was refused by admission control (over budget)."""


@dataclass
class AdmissionController:
    """Byte-budget gate in front of the job queue.

    ``budget_bytes`` bounds the estimated resident footprint of any
    single request (instance + solve temporaries). One number, applied
    identically at instance upload and at solve submission, so a client
    learns about an over-budget workload at the cheapest possible
    moment.
    """

    budget_bytes: int = 256 * 2**20

    def admit_instance(self, n: int, dim: int) -> int:
        """Admit a raw point upload; returns its resident byte size."""
        nbytes = int(n) * int(dim) * 8
        if nbytes > self.budget_bytes:
            raise AdmissionError(
                f"instance of {n} x {dim} points needs {nbytes} bytes resident, "
                f"over the {self.budget_bytes}-byte admission budget"
            )
        return nbytes

    def admit_solve(self, n: int, dim: int, *, k, shards, coreset_size, neighbors) -> int:
        """Admit a solve request; returns the footprint estimate."""
        estimate = estimate_request_bytes(
            n, dim, k=k, shards=shards, coreset_size=coreset_size, neighbors=neighbors
        )
        if estimate > self.budget_bytes:
            raise AdmissionError(
                f"solve over {n} points (k={k}, shards={shards}, "
                f"neighbors={neighbors}) estimates {estimate} bytes resident, "
                f"over the {self.budget_bytes}-byte admission budget"
            )
        return estimate


@dataclass
class _Entry:
    value: object
    nbytes: int


class LruBytesCache:
    """Thread-safe LRU cache bounded by total byte weight.

    ``put`` evicts least-recently-used entries until the new total fits;
    a single entry larger than the budget is simply not cached (the
    caller already passed admission — caching is best-effort).
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def put(self, key: str, value, nbytes: int) -> None:
        nbytes = int(nbytes)
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            while self._bytes + nbytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1
            self._entries[key] = _Entry(value, nbytes)
            self._bytes += nbytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass
class StoredInstance:
    """A submitted instance resident in the cache: the validated point
    block (and optional weights) plus its content id and byte size."""

    instance_id: str
    points: np.ndarray
    weights: np.ndarray | None
    nbytes: int
    meta: dict = field(default_factory=dict)


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a contiguous float array; ragged or non-numeric
    input is a parameter error (a 400 at the HTTP edge), not a crash."""
    try:
        return np.ascontiguousarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"{name} must be a rectangular array of numbers: {exc}"
        ) from exc


def store_points(points, weights=None) -> StoredInstance:
    """Validate and freeze a point payload into a :class:`StoredInstance`."""
    pts = _float_array("points", points)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidParameterError(
            f"points must be a non-empty (n, dim) array, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("points must be finite")
    w = None
    payload = {"points": pts}
    nbytes = pts.nbytes
    if weights is not None:
        w = _float_array("weights", weights)
        if w.shape != (pts.shape[0],):
            raise InvalidParameterError(
                f"weights must have shape ({pts.shape[0]},), got {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidParameterError("weights must be finite and > 0")
        payload["weights"] = w
        nbytes += w.nbytes
    pts.setflags(write=False)
    if w is not None:
        w.setflags(write=False)
    return StoredInstance(
        instance_id=payload_hash(payload),
        points=pts,
        weights=w,
        nbytes=int(nbytes),
        meta={"n": int(pts.shape[0]), "dim": int(pts.shape[1])},
    )
