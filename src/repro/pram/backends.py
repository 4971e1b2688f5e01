"""Execution backends: the PRAM primitives and the shard task pool.

A backend does two jobs. It runs the PRAM primitives for a
:class:`PramMachine` (``elementwise``/``reduce``/``scan``/``sort``/
``count_votes``/``segmented_reduce``/``fused_axpy``), and it runs
coarse independent tasks through :meth:`Backend.submit_batch` (the
shard subsystem's per-shard jobs). The ledger's model charges are
identical regardless of backend (charges are computed from array
sizes, never from how the kernel executed):

* :class:`SerialBackend` — plain NumPy on the calling thread. The
  default; its kernels are the :class:`Backend` defaults, the
  reference implementation every other backend is property-tested
  against.
* :class:`ThreadBackend` — row-blocked ``ThreadPoolExecutor`` for both
  jobs. NumPy ufuncs release the GIL while crunching, so threads
  deliver genuine wall-clock parallelism on large arrays (this is the
  substitution for physical PRAM processors noted in DESIGN.md: the
  GIL does not serialize NumPy kernels). Arrays smaller than
  ``grain × num_workers`` (or with fewer than two rows) run serially,
  because pool handoff would dominate.
* :class:`ProcessBackend` — a ``ProcessPoolExecutor`` task pool for
  :meth:`~Backend.submit_batch`, the shard-parallel fan-out the fault
  supervisor drives. Large ndarrays inside batch items travel by
  shared-memory *name*, never by pickled value. Its primitives run the
  serial kernels in the calling process: copying each primitive's
  inputs into shared memory and its output back out costs more than
  the row blocks save, a cost the work–depth model never charges.

A closed pool backend keeps producing correct results, serially.

Backends are constructed directly, through :func:`make_backend`
(``"serial" | "thread" | "process" | "auto"``), or implicitly via the
``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS`` / ``REPRO_GRAIN`` (thread
only) environment variables consulted by :func:`shared_backend` when a
:class:`~repro.pram.machine.PramMachine` is built without an explicit
backend instance.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro.errors import InvalidParameterError
from repro.obs.tracer import current_trace_id, current_tracer
from repro.pram.operators import AssociativeOp


def _segmented_reduce_kernel(op, values, indptr):
    """Per-segment reduction over a flat CSR-style array (the shared
    serial kernel behind ``segmented_reduce``).

    ``out[s] = op.reduce(values[indptr[s]:indptr[s+1]])``, with the
    operator identity for empty segments. One ``reduceat`` pass —
    ``O(nnz + n_segments)`` work. ``reduceat`` combines each segment
    left-to-right, so results are deterministic and independent of how
    segments are chunked across workers (a segment is never split).
    """
    n = indptr.size - 1
    lens = np.diff(indptr)
    # Appending the identity keeps the trailing segment well-defined and
    # gives empty segments at position nnz a valid index to read; it
    # also fixes the output dtype by the same promotion rule on every
    # slice (so chunked and whole-array passes agree).
    gathered = np.append(values, np.asarray(op.identity))
    if values.size == 0:
        return np.full(n, op.identity, dtype=gathered.dtype)
    out = op.ufunc.reduceat(gathered, indptr[:-1])
    if np.any(lens == 0):
        out[lens == 0] = op.identity
    return out


def _axpy_kernel(a, x, y, clamp_min, mask, fill):
    """``a*x + y`` with optional lower clamp and mask-select, minimizing
    temporaries (the shared serial kernel behind ``fused_axpy``)."""
    x = np.asarray(x)
    operands = [x] + [np.asarray(v) for v in (y, mask) if isinstance(v, np.ndarray)]
    shape = np.broadcast_shapes(*(v.shape for v in operands))
    out = np.multiply(np.broadcast_to(x, shape), a)
    out += y
    if clamp_min is not None:
        np.maximum(out, clamp_min, out=out)
    if mask is not None:
        out = np.where(mask, out, fill)
    return out


_PICKLABLE_FNS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def fn_picklable(fn) -> bool:
    """Whether ``fn`` survives ``pickle.dumps`` — cached per function.

    ``submit_batch`` (and the faults supervisor on top of it) probes the
    task callable before every process-pool fan-out; serializing the
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

    Created inside the worker (process or thread) by :class:`_TracedTask`
    and unwrapped by the parent, which emits the queue-wait and exec
    spans on a per-worker lane. Timestamps are ``perf_counter_ns()``
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


class _TracedTask:
    """Picklable wrapper that stamps a batch task with worker-local timing.

    Wraps the user's ``fn`` for the duration of one traced
    ``submit_batch``; works identically on every execution path — pool
    worker, thread pool, serial fallback, cancellation rerun — because
    it *is* the fn the backend runs.

    The driver's ambient request trace id (if any) is captured at
    construction and pickled with the task, so the envelope a forked
    worker sends back is already stamped with the request it served —
    the cross-process half of request tracing.
    """

    __slots__ = ("fn", "trace_id")
    _UNSET = object()

    def __init__(self, fn, trace_id=_UNSET):
        self.fn = fn
        self.trace_id = (
            current_trace_id() if trace_id is _TracedTask._UNSET else trace_id
        )

    def __call__(self, item):
        start = time.perf_counter_ns() // 1000
        value = self.fn(item)
        return _TracedResult(
            value,
            os.getpid(),
            threading.get_native_id(),
            start,
            time.perf_counter_ns() // 1000,
            self.trace_id,
        )

    def __reduce__(self):
        return (_TracedTask, (self.fn, self.trace_id))


def _traced_batch(backend, tracer, fn, items) -> list:
    """Run one traced batch: wrap ``fn``, unwrap results, emit spans.

    Per task the trace gains two complete events on the executing
    worker's lane — ``queue_wait`` (submit to exec-start) and ``exec``
    (the task body) — the utilization/straggler raw material. Results
    are returned exactly as the unwrapped ``fn`` produced them, so
    traced and untraced batches are byte-identical.
    """
    submit_ts = tracer.now()
    raw = backend._submit_batch(_TracedTask(fn), items)
    results = []
    exec_hist = tracer.metrics.histogram("backend.exec_us")
    wait_hist = tracer.metrics.histogram("backend.queue_wait_us")
    for i, out in enumerate(raw):
        if isinstance(out, _TracedResult):
            lane = tracer.worker_lane(out.pid, out.tid)
            queued = max(out.start_us - submit_ts, 0)
            dur = max(out.end_us - out.start_us, 0)
            task_args = {"task": i, "backend": backend.name}
            if out.trace_id is not None:
                # the id the task was dispatched under — authoritative
                # even if this thread's ambient context moved on
                task_args["trace_id"] = out.trace_id
            tracer.complete("queue_wait", "backend", submit_ts, queued, tid=lane, args=task_args)
            tracer.complete("exec", "backend", out.start_us, dur, tid=lane, args=task_args)
            wait_hist.observe(queued)
            exec_hist.observe(dur)
            results.append(out.value)
        else:
            # A path that bypassed the wrapper (shouldn't happen, but a
            # raw value must never leak a timing envelope to the caller).
            results.append(out)
    tracer.metrics.counter("backend.batch_tasks").inc(len(items))
    return results


def _record_shm_bytes(shms) -> None:
    """Account shared-memory bytes shipped for a traced batch."""
    tracer = current_tracer()
    if not tracer.enabled or not shms:
        return
    nbytes = int(sum(s.size for s in shms))
    tracer.metrics.counter("backend.shm_bytes_shipped").inc(nbytes)
    tracer.counter_event("shm_bytes", {"shipped": nbytes})


class Backend:
    """Kernel interface shared by all backends.

    The default kernels are plain NumPy on the calling thread — the
    serial reference. Backends are context managers: ``with
    make_backend("thread") as b`` guarantees the worker pool is
    released. ``close`` is idempotent, and a closed backend still
    executes every kernel correctly — it just runs serially (see
    :attr:`closed`).
    """

    name = "abstract"

    def elementwise(self, fn, arrays: tuple[np.ndarray, ...]) -> np.ndarray:
        """Apply vectorized ``fn`` to ``arrays`` (already broadcast)."""
        return fn(*arrays)

    def reduce(self, op: AssociativeOp, a: np.ndarray, axis) -> np.ndarray:
        return op.reduce(a, axis=axis)

    def scan(self, op: AssociativeOp, a: np.ndarray, axis: int) -> np.ndarray:
        return op.scan(a, axis=axis)

    def sort(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.sort(a, axis=axis, kind="stable")

    def argsort(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.argsort(a, axis=axis, kind="stable")

    def count_votes(self, labels: np.ndarray, minlength: int) -> np.ndarray:
        """Segmented count: ``out[i] = #{j : labels[j] == i}``."""
        return np.bincount(labels, minlength=minlength)

    def segmented_reduce(
        self, op: AssociativeOp, values: np.ndarray, indptr: np.ndarray
    ) -> np.ndarray:
        """Per-segment reduction over a flat CSR-style array.

        ``indptr`` (length ``n_segments + 1``) delimits contiguous
        segments of ``values``; empty segments reduce to the operator
        identity. Segments are never split across workers, so results
        are byte-identical on every backend.
        """
        return _segmented_reduce_kernel(op, values, indptr)

    def fused_axpy(self, a, x, y, *, clamp_min=None, mask=None, fill=0.0) -> np.ndarray:
        """One-pass ``a*x + y`` with optional clamp/mask (a is scalar)."""
        return _axpy_kernel(a, x, y, clamp_min, mask, fill)

    def submit_batch(self, fn, items) -> list:
        """Run ``fn`` over ``items``, one task each, preserving order.

        The coarse-grained counterpart of the primitives: used by the
        shard subsystem to execute independent per-shard jobs (e.g.
        coreset builds) over whatever worker pool this backend owns.
        The serial backend — and any closed/pool-less backend — runs
        the tasks in a plain loop, so results are identical on every
        backend provided ``fn`` is deterministic per item. On a process
        pool ``fn`` and each item must be picklable; an unpicklable
        ``fn`` is detected up front and falls back to the serial loop,
        while unpicklable *items* (or return values) and exceptions
        raised by ``fn`` itself propagate to the caller — no task ever
        runs twice.

        When a tracer is active (``REPRO_TRACE`` / ``set_tracer``) each
        task additionally reports worker-local timing that the driver
        turns into per-lane queue-wait and exec spans; results are
        byte-identical to an untraced batch. With tracing off, this
        method is exactly :meth:`_submit_batch` — no wrapper objects
        are created.
        """
        items = list(items)
        tracer = current_tracer()
        if tracer.enabled and items:
            return _traced_batch(self, tracer, fn, items)
        return self._submit_batch(fn, items)

    def _submit_batch(self, fn, items) -> list:
        """Backend-specific batch execution (see :meth:`submit_batch`)."""
        return [fn(item) for item in items]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (kernels then execute serially)."""
        return False

    def close(self) -> None:
        """Release any worker resources (no-op for serial, idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialBackend(Backend):
    """Direct NumPy execution on the calling thread (the default kernels)."""

    name = "serial"


class _PoolBackend(Backend):
    """Shared scaffolding for worker-pool backends.

    Owns the pool, the close/context-manager lifecycle, the fault
    supervisor's respawn hook, and the order-preserving
    :meth:`submit_batch` fan-out. Concrete backends provide
    ``_make_pool`` and, optionally, pool-parallel kernels.
    """

    #: Whether batch tasks cross a pickling boundary (process pools):
    #: gates submit_batch's fn-picklability probe, and moves ndarray
    #: item arguments by shared-memory segment name instead of pickled
    #: value.
    _batch_requires_pickle = False

    def __init__(self, num_workers: int | None = None):
        workers = num_workers if num_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise InvalidParameterError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(workers)
        self._pool = self._make_pool() if self.num_workers > 1 else None
        self._closed = False
        # Guards the pool handle and the in-flight batch futures against
        # a concurrent close(): batches drain deterministically instead
        # of racing shutdown (see close()).
        self._lock = threading.Lock()
        self._inflight: set = set()

    def _make_pool(self):
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self):
        """Shut the worker pool down (idempotent, thread-safe).

        After closing, every kernel keeps working via the serial
        fallback — the pinned-down use-after-close contract, asserted
        by the backend test suite. A close racing an in-flight
        :meth:`submit_batch` is deterministic: batch tasks already
        running are drained (``shutdown(wait=True)`` joins them), tasks
        still queued are cancelled — the batch caller observes the
        cancellation and runs those items serially, exactly once. No
        path deadlocks: close never waits on anything the batch caller
        holds.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            inflight = list(self._inflight)
        for fut in inflight:
            fut.cancel()
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _respawn_pool(self):
        """Replace a broken/hung worker pool with a fresh one.

        The recovery hook used by :class:`repro.faults.Supervisor`
        after a worker crash (``BrokenProcessPool``) or a process-pool
        timeout: the old pool is abandoned without joining (its workers
        are dead or hung), outstanding futures are cancelled, and — on a
        still-open backend — a new pool of the same size takes its
        place. Returns the new pool (``None`` when closed or
        single-worker)."""
        with self._lock:
            pool, self._pool = self._pool, None
            inflight = list(self._inflight)
            self._inflight.clear()
        for fut in inflight:
            fut.cancel()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        with self._lock:
            if not self._closed and self._pool is None and self.num_workers > 1:
                self._pool = self._make_pool()
            return self._pool

    # -- task batches -----------------------------------------------------

    def _submit_batch(self, fn, items) -> list:
        """Fan independent tasks across the pool (order-preserving).

        Batches go to the pool whenever it exists and there is more
        than one task — per-shard jobs are coarse by construction. On a
        process pool an unpicklable ``fn`` is detected by a
        (per-function cached) ``pickle.dumps`` probe *before* anything
        runs and falls back to the serial loop, and large ndarrays
        inside each item cross by shared-memory segment name — the
        pickled task payload carries only refs — with results
        byte-identical to the serial loop (the backend suite asserts
        it).

        Failure contract (pinned by the backend test suite):

        * an exception raised by ``fn`` on item ``i`` cancels every
          outstanding task, waits out whatever is already running, and
          re-raises with the item index attached (``exc.batch_index``
          plus an ``add_note`` line) — never a silent swallow, and no
          task ever executes twice;
        * a concurrent :meth:`close` drains deterministically: tasks it
          cancelled before they started are re-run serially exactly
          once, everything else completes on the pool.
        """
        items = list(items)
        with self._lock:
            pool = None if self._closed else self._pool
        if pool is None or len(items) < 2:
            return self._serial_batch(fn, items)
        if self._batch_requires_pickle and not fn_picklable(fn):
            return self._serial_batch(fn, items)
        item_shms: list = []
        try:
            if self._batch_requires_pickle:
                packed_items, _ = pack_batch_items(items, item_shms)
                _record_shm_bytes(item_shms)
                calls = [(_shm_batch_call, fn, packed) for packed in packed_items]
            else:
                calls = [(fn, item) for item in items]
            try:
                with self._lock:
                    if self._closed or self._pool is None:
                        raise RuntimeError("backend closed under submit_batch")
                    futures = [self._pool.submit(*call) for call in calls]
                    self._inflight.update(futures)
            except RuntimeError:
                # Closed (or pool shut down) between the check and the
                # submit: honor the use-after-close contract serially.
                return self._serial_batch(fn, items)
            try:
                results: list = [None] * len(items)
                for i, fut in enumerate(futures):
                    try:
                        results[i] = fut.result()
                    except CancelledError:
                        # close() cancelled it before it started — run the
                        # item serially, its one and only execution.
                        try:
                            results[i] = fn(items[i])
                        except Exception as exc:
                            self._annotate_batch_failure(exc, i, len(items))
                            raise
                    except Exception as exc:
                        for later in futures[i + 1:]:
                            later.cancel()
                        wait(futures[i + 1:])
                        self._annotate_batch_failure(exc, i, len(items))
                        raise
                return results
            finally:
                with self._lock:
                    self._inflight.difference_update(futures)
        finally:
            # By here every future is done or cancelled-before-start
            # (the result loop waits them out on all paths), so no
            # worker is mid-attach: unlinking the item segments is safe.
            for shm in item_shms:
                shm.close()
                shm.unlink()

    def _annotate_batch_failure(self, exc, index: int, total: int) -> None:
        """Attach the failing item's position to a batch exception —
        the failure contract above."""
        exc.batch_index = index
        exc.add_note(
            f"submit_batch: item {index} of {total} failed on the "
            f"{self.name} backend"
        )

    def _serial_batch(self, fn, items) -> list:
        """Pool-less fallback loop with the same failure annotation as
        the pool path."""
        results = []
        for i, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:
                self._annotate_batch_failure(exc, i, len(items))
                raise
        return results


class ThreadBackend(_PoolBackend):
    """Row-blocked thread-parallel execution.

    Parameters
    ----------
    num_workers:
        Worker thread count; defaults to ``os.cpu_count()``.
    grain:
        Minimum elements per task; arrays smaller than
        ``grain * num_workers`` run serially to avoid dispatch overhead.
    """

    name = "thread"

    def __init__(self, num_workers: int | None = None, *, grain: int = 1 << 14):
        self.grain = int(grain)
        super().__init__(num_workers)

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.num_workers)

    # -- dispatch policy --------------------------------------------------

    def _pool_worthy(self, shape: tuple) -> bool:
        """Single dispatch policy for every kernel: run on the pool only
        when there are rows to split and enough elements per worker."""
        return not (
            self._pool is None
            or len(shape) == 0
            or shape[0] < 2
            or int(np.prod(shape)) < self.grain * self.num_workers
        )

    def _too_small(self, a: np.ndarray) -> bool:
        return not self._pool_worthy(a.shape)

    def _row_chunks(self, n_rows: int):
        """Split ``range(n_rows)`` into at most ``num_workers`` slices."""
        per = -(-n_rows // self.num_workers)
        return [slice(s, min(s + per, n_rows)) for s in range(0, n_rows, per)]

    def _parallel_over_rows(self, a: np.ndarray, task):
        chunks = self._row_chunks(a.shape[0])
        parts = list(self._pool.map(task, chunks))
        return parts, chunks

    # -- kernel interface ---------------------------------------------------

    def elementwise(self, fn, arrays):
        arrs = [np.asarray(x) for x in arrays]
        try:
            shape = np.broadcast_shapes(*(a.shape for a in arrs))
        except ValueError:
            # Not mutually broadcastable (fn handles shapes itself).
            return super().elementwise(fn, arrays)
        if not self._pool_worthy(shape):
            return super().elementwise(fn, arrays)
        # Broadcast every argument up front (views, no copies) so
        # mixed-shape maps — e.g. an (n_f, 1) cost column against an
        # (n_f, n_c) matrix — run on the pool instead of silently
        # dropping to serial.
        views = [np.broadcast_to(a, shape) for a in arrs]
        chunks = self._row_chunks(shape[0])
        parts = list(self._pool.map(lambda sl: fn(*(v[sl] for v in views)), chunks))
        return np.concatenate(parts, axis=0)

    def reduce(self, op, a, axis):
        if self._too_small(a):
            return super().reduce(op, a, axis)
        if axis in (1, -1) and a.ndim == 2:
            # Independent row reductions: perfectly row-parallel.
            parts, _ = self._parallel_over_rows(a, lambda sl: op.reduce(a[sl], axis=1))
            return np.concatenate(parts, axis=0)
        if axis is None:
            parts, _ = self._parallel_over_rows(a, lambda sl: op.reduce(a[sl], axis=None))
            return op.reduce(np.asarray(parts), axis=None)
        if axis == 0 and a.ndim == 2:
            # Tree-combine partial column reductions from row blocks.
            parts, _ = self._parallel_over_rows(a, lambda sl: op.reduce(a[sl], axis=0))
            return op.reduce(np.stack(parts, axis=0), axis=0)
        return super().reduce(op, a, axis)

    def scan(self, op, a, axis):
        if self._too_small(a) or not (a.ndim == 2 and axis in (1, -1)):
            return super().scan(op, a, axis)
        parts, _ = self._parallel_over_rows(a, lambda sl: op.scan(a[sl], axis=1))
        return np.concatenate(parts, axis=0)

    def sort(self, a, axis):
        if self._too_small(a) or not (a.ndim == 2 and axis in (1, -1)):
            return super().sort(a, axis)
        parts, _ = self._parallel_over_rows(a, lambda sl: np.sort(a[sl], axis=1, kind="stable"))
        return np.concatenate(parts, axis=0)

    def argsort(self, a, axis):
        if self._too_small(a) or not (a.ndim == 2 and axis in (1, -1)):
            return super().argsort(a, axis)
        parts, _ = self._parallel_over_rows(
            a, lambda sl: np.argsort(a[sl], axis=1, kind="stable")
        )
        return np.concatenate(parts, axis=0)

    def count_votes(self, labels, minlength):
        if not self._pool_worthy(labels.shape):
            return super().count_votes(labels, minlength)
        slices = self._row_chunks(labels.size)
        parts = list(
            self._pool.map(lambda sl: np.bincount(labels[sl], minlength=minlength), slices)
        )
        return np.sum(np.stack(parts, axis=0), axis=0)

    def segmented_reduce(self, op, values, indptr):
        n_seg = indptr.size - 1
        if (
            self._pool is None
            or n_seg < 2
            or values.size < self.grain * self.num_workers
        ):
            return super().segmented_reduce(op, values, indptr)
        # Chunk by whole segments: each worker runs the serial kernel on
        # its segment range, so per-segment results are bit-identical to
        # a single-threaded pass.
        chunks = self._row_chunks(n_seg)
        parts = list(
            self._pool.map(
                lambda sl: _segmented_reduce_kernel(
                    op,
                    values[indptr[sl.start] : indptr[sl.stop]],
                    indptr[sl.start : sl.stop + 1] - indptr[sl.start],
                ),
                chunks,
            )
        )
        return np.concatenate(parts)

    def fused_axpy(self, a, x, y, *, clamp_min=None, mask=None, fill=0.0):
        x = np.asarray(x)
        operands = [x] + [np.asarray(v) for v in (y, mask) if isinstance(v, np.ndarray)]
        shape = np.broadcast_shapes(*(v.shape for v in operands))
        if not self._pool_worthy(shape):
            return super().fused_axpy(a, x, y, clamp_min=clamp_min, mask=mask, fill=fill)
        xv = np.broadcast_to(x, shape)
        yv = np.broadcast_to(np.asarray(y), shape) if isinstance(y, np.ndarray) else y
        mv = np.broadcast_to(mask, shape) if isinstance(mask, np.ndarray) else mask
        chunks = self._row_chunks(shape[0])
        parts = list(
            self._pool.map(
                lambda sl: _axpy_kernel(
                    a,
                    xv[sl],
                    yv[sl] if isinstance(yv, np.ndarray) else yv,
                    clamp_min,
                    mv[sl] if isinstance(mv, np.ndarray) else mv,
                    fill,
                ),
                chunks,
            )
        )
        return np.concatenate(parts, axis=0)


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
    segment (see :func:`_shm_batch_call`).
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


def _shm_batch_call(fn, packed):
    """Worker-side batch shim: rebuild the item (shared-memory refs →
    read-only array views) and run ``fn`` on it.

    Contract: ``fn`` must not return live views of its item arrays —
    the segments close when this call returns, *before* the result
    pickles back to the parent. Task functions in this codebase return
    fancy-indexed (hence copied) arrays, so the contract holds by
    construction; it is the same contract the pickled transport imposed
    implicitly (pickling a view copies it).
    """
    shms: list = []
    try:
        return fn(_unpack_value(packed, shms))
    finally:
        for shm in shms:
            shm.close()


#: Start method for the process pool. Forked workers start fast and
#: inherit the parent's loaded modules; the platform default is used
#: where fork is unavailable.
_MP_CONTEXT = "fork"


class ProcessBackend(_PoolBackend):
    """Process-pool task execution for :meth:`~Backend.submit_batch`.

    The pool runs the shard subsystem's per-shard jobs (under the fault
    supervisor when one is configured). Large ndarrays inside each
    batch item are copied once into a ``multiprocessing.shared_memory``
    segment and cross by name; workers attach read-only views, so no
    point block is ever pickled. The PRAM primitives run the serial
    NumPy kernels in the calling process — results and ledger charges
    are those of :class:`SerialBackend` by construction.

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

#: Instance sizes (elements) below which ``make_backend("auto")`` keeps
#: the serial backend: on smaller inputs the pool's dispatch constant
#: costs more than the row-blocked kernels save.
AUTO_BACKEND_MIN_SIZE = 1 << 16


def _thread_kwargs(grain):
    return {} if grain is None else {"grain": int(grain)}


_BACKEND_REGISTRY: dict = {
    "serial": lambda num_workers, grain: SerialBackend(),
    "thread": lambda num_workers, grain: ThreadBackend(num_workers, **_thread_kwargs(grain)),
    "process": lambda num_workers, grain: ProcessBackend(num_workers),
}


def available_backends() -> list:
    """Sorted names accepted by :func:`make_backend` (besides ``"auto"``)."""
    return sorted(_BACKEND_REGISTRY)


def resolve_backend_name(name: str, size: int | None = None) -> str:
    """Resolve ``"auto"`` (and validate any other name) to a registry key.

    The ``"auto"`` policy is a size threshold: serial below
    ``AUTO_BACKEND_MIN_SIZE`` elements (or when the host has a single
    CPU), thread-parallel otherwise. Threads, not processes, are the
    auto choice: NumPy kernels release the GIL, while the process
    backend runs every primitive serially and parallelizes only
    :meth:`~Backend.submit_batch` tasks.
    """
    if name == "auto":
        if (os.cpu_count() or 1) < 2:
            return "serial"
        if size is not None and size < AUTO_BACKEND_MIN_SIZE:
            return "serial"
        return "thread"
    if name not in _BACKEND_REGISTRY:
        raise InvalidParameterError(
            f"unknown backend {name!r}; expected 'auto' or one of {available_backends()}"
        )
    return name


def make_backend(
    spec: "str | Backend" = "serial",
    *,
    num_workers: int | None = None,
    grain: int | None = None,
    size: int | None = None,
) -> Backend:
    """Construct a backend from a name (``Backend`` instances pass through).

    Parameters
    ----------
    spec:
        ``"serial"``, ``"thread"``, ``"process"``, ``"auto"`` (see
        :func:`resolve_backend_name`), or an existing :class:`Backend`
        (returned unchanged).
    num_workers:
        Forwarded to pool backends; ``None`` keeps their default.
    grain:
        The thread backend's dispatch threshold (elements per task);
        other built-in backends ignore it. ``None`` keeps the default.
    size:
        Instance element count steering the ``"auto"`` policy.

    The caller owns the result: close it (or use it as a context
    manager) when a pool backend is no longer needed.
    """
    if isinstance(spec, Backend):
        return spec
    name = resolve_backend_name(spec, size)
    return _BACKEND_REGISTRY[name](num_workers, grain)


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


def shared_backend(spec: "str | Backend | None" = None, *, size: int | None = None) -> Backend:
    """Process-wide cached backend for machines built without one.

    ``spec=None`` reads ``REPRO_BACKEND`` (default ``"serial"``) —
    the hook the CI backend matrix uses to run the whole test suite on
    a different substrate. An empty or whitespace-only value counts as
    unset (CI matrices routinely materialize ``REPRO_BACKEND=""`` for
    the default leg), never as a backend literally named ``""``.
    ``REPRO_NUM_WORKERS`` sizes pool backends; ``REPRO_GRAIN`` tunes
    the thread backend only.
    Instances are cached per resolved configuration and shared by every
    :class:`PramMachine` that did not receive an explicit backend
    object, so a test run never stacks up worker pools; they are closed
    atexit, and ``PramMachine.close`` deliberately leaves them open.
    """
    if isinstance(spec, Backend):
        return spec
    name = spec if spec is not None else (
        os.environ.get("REPRO_BACKEND", "").strip() or "serial"
    )
    workers = _env_int("REPRO_NUM_WORKERS")
    grain = _env_int("REPRO_GRAIN")
    name = resolve_backend_name(name, size)
    key = (name, workers, grain)
    backend = _SHARED_BACKENDS.get(key)
    if backend is None or backend.closed:
        backend = make_backend(name, num_workers=workers, grain=grain)
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
