"""Execution backends: the worker pools that batch tasks run on.

A backend owns a task pool and nothing else. Batches reach it through
one executor, :meth:`repro.faults.Supervisor.submit_batch` (the shard
subsystem's per-shard coreset builds, the serving tier's solves), which
borrows the pool, retries and respawns it. A backend runs no PRAM
primitive: :class:`~repro.pram.machine.PramMachine` executes those as
plain NumPy in the calling thread, so seeded results and the ledger's
model charges are identical on every backend by construction.

* :class:`SerialBackend` — no pool; the Supervisor runs every task in
  the calling thread. The default, and the reference every pool's
  batches are tested against.
* :class:`ThreadBackend` — a ``ThreadPoolExecutor`` task pool. Tasks
  share the caller's memory; NumPy work inside a task releases the GIL.
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` task pool. Large
  ndarrays inside batch items travel by shared-memory *name*, never by
  pickled value (:func:`pack_batch_items`).

A closed pool backend has no pool, so its batches run in the caller.

Backends are constructed directly, through :func:`make_backend`
(``"serial" | "thread" | "process"``), or implicitly via the
``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS`` environment variables
consulted by :func:`shared_backend` when a
:class:`~repro.pram.machine.PramMachine` is built without an explicit
backend instance.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro.errors import InvalidParameterError


_PICKLABLE_FNS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fn_picklable(fn) -> bool:
    """Whether ``fn`` survives ``pickle.dumps`` — cached per function.

    The Supervisor probes the task callable before every process-pool
    fan-out; serializing the
    same module-level function once per batch is pure waste, so the
    verdict is memoized in a :class:`weakref.WeakKeyDictionary` (no
    lifetime extension — a function that dies drops its entry).
    Callables that resist weak references fall back to a direct probe.
    """
    try:
        cached = _PICKLABLE_FNS.get(fn)
    except TypeError:
        cached = None
    if cached is not None:
        return cached
    try:
        pickle.dumps(fn)
        ok = True
    except Exception:
        ok = False
    try:
        _PICKLABLE_FNS[fn] = ok
    except TypeError:
        pass
    return ok


class _TracedResult:
    """Worker-side timing riding back with a batch task's result.

    Created inside the worker (process or thread) by the Supervisor's
    task shim and unwrapped by the parent, which emits the queue-wait and
    exec spans on a per-worker lane. Timestamps are ``perf_counter_ns()``
    microseconds — ``CLOCK_MONOTONIC``, shared across processes on the
    same machine, so they land on the driver's time axis directly.
    """

    __slots__ = ("value", "pid", "tid", "start_us", "end_us", "trace_id")

    def __init__(self, value, pid, tid, start_us, end_us, trace_id=None):
        self.value = value
        self.pid = pid
        self.tid = tid
        self.start_us = start_us
        self.end_us = end_us
        self.trace_id = trace_id

    def __reduce__(self):
        return (
            _TracedResult,
            (self.value, self.pid, self.tid, self.start_us, self.end_us,
             self.trace_id),
        )


def _record_shm_bytes(tracer, shms) -> None:
    """Account shared-memory bytes shipped for a traced batch."""
    if not tracer.enabled or not shms:
        return
    nbytes = int(sum(s.size for s in shms))
    tracer.metrics.counter("backend.shm_bytes_shipped").inc(nbytes)
    tracer.counter_event("shm_bytes", {"shipped": nbytes})


class Backend:
    """Task-pool interface shared by all backends.

    The base backend owns no pool: the Supervisor runs its batch tasks
    in a plain loop on the calling thread — the serial reference.
    Backends are context managers: ``with make_backend("thread") as b``
    guarantees the worker pool is released. ``close`` is idempotent,
    and a closed backend has no pool (see :attr:`closed`).
    """

    name = "abstract"

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (batches then run in the caller)."""
        return False

    def close(self) -> None:
        """Release any worker resources (no-op for serial, idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialBackend(Backend):
    """No pool: batch tasks run in a plain loop on the calling thread
    (the default)."""

    name = "serial"


#: The largest pool a backend builds. A forked process pool starts all
#: its workers at the first submit, so a larger count is refused.
MAX_WORKERS = 32 * (os.cpu_count() or 1)


class _PoolBackend(Backend):
    """Shared scaffolding for worker-pool backends.

    Owns the pool, the close/context-manager lifecycle and the fault
    supervisor's respawn hook. Concrete backends provide ``_make_pool``.
    """

    #: Whether batch tasks cross a pickling boundary (process pools):
    #: gates the Supervisor's fn-picklability probe, and moves ndarray
    #: item arguments by shared-memory segment name instead of pickled
    #: value.
    _batch_requires_pickle = False

    def __init__(self, num_workers: int | None = None):
        workers = num_workers if num_workers is not None else (os.cpu_count() or 1)
        if not 1 <= workers <= MAX_WORKERS:
            raise InvalidParameterError(
                f"num_workers must be in [1, {MAX_WORKERS}], got {num_workers}"
            )
        self.num_workers = int(workers)
        self._pool = self._make_pool() if self.num_workers > 1 else None
        self._closed = False
        # Guards the pool handle against a concurrent close() or respawn.
        self._lock = threading.Lock()

    def _make_pool(self):
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self):
        """Shut the worker pool down (idempotent, thread-safe).

        After closing there is no pool, and the Supervisor runs every
        batch in the caller — the use-after-close contract, asserted by
        the backend test suite. A close racing an in-flight supervised
        batch is deterministic: tasks already running are drained
        (``shutdown(wait=True)`` joins them), tasks still queued are
        cancelled, and the Supervisor reruns each cancelled task in the
        caller, exactly once and without consuming an attempt. No path
        deadlocks: close never waits on anything the batch caller holds.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _respawn_pool(self):
        """Replace a broken/hung worker pool with a fresh one.

        The recovery hook used by :class:`repro.faults.Supervisor`
        after a worker crash (``BrokenProcessPool``) or a process-pool
        timeout: the old pool is abandoned without joining (its workers
        are dead or hung), its queued futures are cancelled, and — on a
        still-open backend — a new pool of the same size takes its
        place. Returns the new pool (``None`` when closed or
        single-worker)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            if not self._closed and self._pool is None and self.num_workers > 1:
                self._pool = self._make_pool()
            return self._pool


class ThreadBackend(_PoolBackend):
    """Thread-pool task execution for supervised batches.

    Batch items are passed by reference, never copied or pickled.

    Parameters
    ----------
    num_workers:
        Worker thread count; defaults to ``os.cpu_count()``. With one
        worker no pool is created and batches run serially.
    """

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.num_workers)


# -- process backend: zero-copy batch transport -----------------------------


def _share_array(a: np.ndarray):
    """Copy ``a`` into a fresh shared-memory segment; return (shm, spec)."""
    a = np.ascontiguousarray(a)
    shm = shared_memory.SharedMemory(create=True, size=max(a.nbytes, 1))
    np.ndarray(a.shape, dtype=a.dtype, buffer=shm.buf)[...] = a
    return shm, (shm.name, a.shape, a.dtype.str)


def _attach_array(spec):
    """Attach to a shared segment by name; return (shm, ndarray view)."""
    name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


#: Arrays below this many bytes ride along pickled inside the task —
#: a shm segment (create + copy + attach round-trip) costs more than
#: pickling a few KiB of data.
SHM_ITEM_MIN_BYTES = 1 << 15


class _ShmItemRef:
    """Placeholder for an ndarray moved into a shared-memory segment.

    Travels inside the pickled batch-task payload in place of the
    array; the worker swaps it back for a read-only view of the
    segment (:func:`_unpack_value`).
    """

    __slots__ = ("spec",)

    def __init__(self, spec):
        self.spec = spec

    def __reduce__(self):
        return (_ShmItemRef, (self.spec,))


def _pack_value(value, shms: list, seen: dict):
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject or value.nbytes < SHM_ITEM_MIN_BYTES:
            return value
        ref = seen.get(id(value))
        if ref is None:
            shm, spec = _share_array(value)
            shms.append(shm)
            ref = _ShmItemRef(spec)
            seen[id(value)] = ref
        return ref
    if isinstance(value, tuple):
        return tuple(_pack_value(v, shms, seen) for v in value)
    if isinstance(value, list):
        return [_pack_value(v, shms, seen) for v in value]
    if isinstance(value, dict):
        return {k: _pack_value(v, shms, seen) for k, v in value.items()}
    return value


def pack_batch_items(items, shms: list | None = None):
    """Replace every large ndarray inside ``items`` with a shm ref.

    Tuples, lists, and dicts are walked recursively; anything else
    passes through pickled as-is. Returns ``(packed_items, segments)``
    — the caller owns the segments and must close + unlink them once
    the batch has drained. An array object appearing in several items
    is shared through a single segment. Passing ``shms`` lets the
    caller observe segments created *before* a mid-pack failure (they
    are appended as created), so nothing leaks on that path.
    """
    if shms is None:
        shms = []
    seen: dict = {}
    return [_pack_value(item, shms, seen) for item in items], shms


def _unpack_value(value, shms: list):
    """Rebuild a packed item in the worker: shared-memory refs become
    read-only array views, each attached segment appended to ``shms``
    for the caller to close.

    Contract: the task must not return live views of its item arrays —
    the worker closes the segments when the task returns, *before* the
    result pickles back. Task functions in this codebase return
    fancy-indexed (hence copied) arrays, so the contract holds by
    construction; it is the same contract the pickled transport imposed
    implicitly (pickling a view copies it).
    """
    if isinstance(value, _ShmItemRef):
        shm, arr = _attach_array(value.spec)
        shms.append(shm)
        arr.flags.writeable = False
        return arr
    if isinstance(value, tuple):
        return tuple(_unpack_value(v, shms) for v in value)
    if isinstance(value, list):
        return [_unpack_value(v, shms) for v in value]
    if isinstance(value, dict):
        return {k: _unpack_value(v, shms) for k, v in value.items()}
    return value


#: Start method for the process pool. Forked workers start fast and
#: inherit the parent's loaded modules; the platform default is used
#: where fork is unavailable.
_MP_CONTEXT = "fork"


class ProcessBackend(_PoolBackend):
    """Process-pool task execution for supervised batches.

    The pool runs the shard subsystem's per-shard jobs, sent by the
    fault supervisor. Large ndarrays inside each batch item are copied
    once into a ``multiprocessing.shared_memory`` segment and cross by
    name; workers attach read-only views, so no point block is ever
    pickled.

    Parameters
    ----------
    num_workers:
        Worker process count; defaults to ``os.cpu_count()``. With one
        worker no pool is created and batches run serially.
    """

    name = "process"
    _batch_requires_pickle = True

    def _make_pool(self):
        try:
            ctx = get_context(_MP_CONTEXT)
        except ValueError:
            ctx = None
        # Start the shared-memory resource tracker *before* any worker
        # forks. Workers fork lazily at first submit; if that first
        # submit carries no shared memory (a batch of small items), the
        # children inherit an unstarted tracker and each spawns its
        # own on first attach — an orphan that only ever sees REGISTERs
        # and warns about phantom "leaked" segments at shutdown.
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker unavailable
            pass
        return ProcessPoolExecutor(max_workers=self.num_workers, mp_context=ctx)


# -- registry & factory -----------------------------------------------------

_BACKEND_REGISTRY: dict = {
    "serial": lambda num_workers: SerialBackend(),
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def available_backends() -> list:
    """Sorted names accepted by :func:`make_backend`."""
    return sorted(_BACKEND_REGISTRY)


def make_backend(spec: "str | Backend" = "serial", *, num_workers: int | None = None) -> Backend:
    """Construct a backend from a name (``Backend`` instances pass through).

    Parameters
    ----------
    spec:
        ``"serial"``, ``"thread"``, ``"process"``, or an existing
        :class:`Backend` (returned unchanged). Any other name raises
        :class:`~repro.errors.InvalidParameterError`.
    num_workers:
        Forwarded to pool backends; ``None`` keeps their default.

    The caller owns the result: close it (or use it as a context
    manager) when a pool backend is no longer needed.
    """
    if isinstance(spec, Backend):
        return spec
    if spec not in _BACKEND_REGISTRY:
        raise InvalidParameterError(
            f"unknown backend {spec!r}; expected one of {available_backends()}"
        )
    return _BACKEND_REGISTRY[spec](num_workers)


# -- shared (environment-default) backends ----------------------------------

_SHARED_BACKENDS: dict = {}


def _env_int(var: str) -> int | None:
    raw = os.environ.get(var, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"{var} must be an integer, got {raw!r}") from exc


def shared_backend(spec: "str | Backend | None" = None) -> Backend:
    """Process-wide cached backend for machines built without one.

    ``spec=None`` reads ``REPRO_BACKEND`` (default ``"serial"``) —
    the hook the CI backend matrix uses to vary the pool that
    :func:`~repro.shard.shard_and_solve` fans out to by default. An
    empty or whitespace-only value counts as unset (CI matrices
    routinely materialize ``REPRO_BACKEND=""`` for the default leg),
    never as a backend literally named ``""``. ``REPRO_NUM_WORKERS``
    sizes pool backends. Instances are cached per ``(name, workers)``
    and shared by every :class:`PramMachine` that did not receive a
    backend object (returned unchanged here, and closed by whoever made
    it), so a test run never stacks up worker pools; they are closed
    atexit.
    """
    if isinstance(spec, Backend):
        return spec
    name = spec if spec is not None else (
        os.environ.get("REPRO_BACKEND", "").strip() or "serial"
    )
    workers = _env_int("REPRO_NUM_WORKERS")
    key = (name, workers)
    backend = _SHARED_BACKENDS.get(key)
    if backend is None or backend.closed:
        backend = make_backend(name, num_workers=workers)
        _SHARED_BACKENDS[key] = backend
    return backend


@atexit.register
def _close_shared_backends() -> None:
    """Close every cached shared backend, tolerating late registrations.

    Closing a pool can itself run drain/atexit-ordered hooks (a serving
    tier flushing its last jobs, a supervisor respawning) that call
    :func:`shared_backend` and register *new* entries — mutating the
    cache mid-iteration. Drain by snapshot: pop a batch, close it, and
    repeat until the cache stays empty. ``Backend.close`` is idempotent,
    so an entry already closed by its owner is a no-op, and a close that
    raises must not strand the remaining pools.

    Bounded: each pass only sees backends registered during the previous
    pass, and the pass cap turns a pathological close→register loop into
    a silent stop instead of a hang at interpreter exit.
    """
    for _ in range(8):
        if not _SHARED_BACKENDS:
            break
        for key in list(_SHARED_BACKENDS):
            backend = _SHARED_BACKENDS.pop(key, None)
            if backend is None:
                continue
            try:
                backend.close()
            except Exception:  # pragma: no cover - defensive at exit
                pass
