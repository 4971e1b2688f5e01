"""Span-based tracer emitting Chrome trace-event JSONL.

One line per event, in the trace-event format that Perfetto and
``chrome://tracing`` load directly (the JSON-array wrapper is optional
in both viewers, so JSONL — append-only, crash-tolerant — is the file
format). Four event phases are used:

- ``"X"`` complete events: spans with ``ts``/``dur`` in microseconds
  (PRAM primitives, backend task exec, shard-pipeline stages);
- ``"i"`` instant events: point-in-time marks (supervisor retries,
  crashes, round boundaries);
- ``"C"`` counter events: numeric series (shm bytes shipped, metrics
  snapshots at flush);
- ``"M"`` metadata: lane names, so worker processes render as labelled
  rows.

Timestamps come from ``time.perf_counter_ns()``, which on Linux is
``CLOCK_MONOTONIC`` — shared by every process on the machine, so spans
timed *inside* pool workers land on the same axis as driver spans and
queue-wait is a plain subtraction across the process boundary.

Activation, cheapest-first:

- off (the default): every instrumented call site sees
  :data:`NULL_TRACER`, whose ``enabled`` is ``False``. Call sites guard
  on that flag and skip instrumentation entirely — the disabled path
  is the uninstrumented code, not a stack of no-op calls.
- ``REPRO_TRACE=/path/to/trace.jsonl``: a process-wide tracer writing
  to that path, closed at interpreter exit. A path that cannot be
  opened for writing raises :class:`~repro.errors.InvalidParameterError`
  from :func:`current_tracer`, before any work starts.
- explicit: ``set_tracer(Tracer(path))`` or the :func:`trace_to`
  context manager; explicit wins over the environment.

Safety property: a :class:`Tracer` records the pid that created it and
refuses to write from any other process. Forked pool workers inherit
the parent's tracer object but must never interleave writes into the
parent's file — worker-side timing instead rides back to the driver
inside task results (``repro.pram.backends._TracedResult``, created and
unwrapped by :class:`repro.faults.Supervisor`, the one batch executor)
and is emitted from the driver on per-worker lanes.
"""

from __future__ import annotations

import atexit
import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager

from repro.errors import InvalidParameterError
from repro.obs.metrics import MetricsRegistry

#: Environment variable holding the trace output path.
TRACE_ENV = "REPRO_TRACE"


def check_env_path(variable: str, path: str) -> None:
    """Raise :class:`InvalidParameterError` unless ``path``, the value
    of the environment ``variable``, opens for writing.

    Opens in append mode and writes nothing, so an existing file — the
    driver's trace, when a forked worker checks the same path — is
    never truncated. The ``OSError`` is chained.
    """
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise InvalidParameterError(
            f"{variable}={path!r} cannot be opened for writing: {exc}"
        ) from exc


def _now_us() -> int:
    """Microseconds on the machine-wide monotonic clock."""
    return time.perf_counter_ns() // 1000


# -- request trace context ----------------------------------------------
#
# A request-scoped trace id rides a ContextVar: the serving tier sets it
# around each request (HTTP edge, async worker task, executor thread)
# and every span/instant the tracer emits while it is set gets a
# ``trace_id`` arg stamped in. Because all driver-side emission for a
# solve (pram primitives, backend unwrap, shard stages, fault marks)
# happens in the thread running that solve, one ``trace_context`` around
# the solve correlates the whole pipeline. Worker-process envelopes
# additionally carry the id explicitly (see the supervisor's
# ``_supervised_call``) so spans timed inside forked workers ride back
# already attributed.

_TRACE_ID: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """Mint a 16-hex-char trace id.

    Uses :func:`os.urandom`, not numpy/random — minting ids must never
    perturb the RNG streams the solvers' byte-identity rests on.
    """
    return os.urandom(8).hex()


def current_trace_id() -> "str | None":
    """The ambient request trace id, or ``None`` outside any request."""
    return _TRACE_ID.get()


def set_trace_id(trace_id):
    """Set the ambient trace id; returns the previous value.

    Prefer :func:`trace_context` — this exists for call sites that
    cannot use a ``with`` block (e.g. long-lived worker loops).
    """
    previous = _TRACE_ID.get()
    _TRACE_ID.set(str(trace_id) if trace_id is not None else None)
    return previous


@contextmanager
def trace_context(trace_id):
    """Scope the ambient trace id to a block (``None`` clears it)."""
    token = _TRACE_ID.set(str(trace_id) if trace_id is not None else None)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


def _stamp_trace(args):
    """Return ``args`` with the ambient trace id added (copy, not mutate).

    An explicit ``trace_id`` already in ``args`` wins — envelopes from
    worker processes carry the id they were dispatched under, which is
    authoritative even if the unwrapping thread's context moved on.
    """
    trace_id = _TRACE_ID.get()
    if trace_id is None:
        return args
    if args is None:
        return {"trace_id": trace_id}
    if "trace_id" in args:
        return args
    out = dict(args)
    out["trace_id"] = trace_id
    return out


class _NullSpan:
    """Reusable no-op context manager for :class:`NullTracer` spans."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every method is a no-op, ``enabled`` is False.

    A single shared instance (:data:`NULL_TRACER`) is handed to every
    call site when tracing is off, so the off path allocates nothing.
    The registry exists (API compatibility) but is never populated —
    instrumented code guards recording on ``enabled``.
    """

    enabled = False
    path = None

    def __init__(self):
        self.metrics = MetricsRegistry()

    def now(self) -> int:
        return _now_us()

    def emit(self, event) -> None:
        pass

    def complete(self, name, cat, ts, dur, *, tid=None, args=None) -> None:
        pass

    def instant(self, name, cat, *, ts=None, tid=None, args=None) -> None:
        pass

    def counter_event(self, name, values, *, ts=None) -> None:
        pass

    def worker_lane(self, pid, tid) -> int:
        return int(tid)

    def bump_lane_epoch(self) -> None:
        pass

    def span(self, name, cat="app", args=None):
        return _NULL_SPAN

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: The shared disabled tracer. ``current_tracer()`` returns this when no
#: tracer is configured; identity checks against it are allowed.
NULL_TRACER = NullTracer()


class Tracer:
    """Enabled tracer writing trace-event JSONL to ``path``.

    ``path=None`` is an enabled *drop sink*: instrumentation runs and
    metrics accumulate, but events are discarded instead of written.
    The bench harness uses it to measure the wrapper overhead ceiling
    without I/O in the loop.

    Thread-safe (one lock around the line write); the file opens
    lazily on first emit so constructing a tracer never touches disk.
    """

    enabled = True

    def __init__(self, path=None):
        self.path = os.fspath(path) if path is not None else None
        self.metrics = MetricsRegistry()
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._fh = None
        # Lane bookkeeping has its own lock: ``worker_lane`` must not
        # hold the emit lock (not reentrant) while writing metadata.
        self._lane_lock = threading.Lock()
        self._lanes: dict = {}  # lane key -> lane int
        self._lane_taken: set = set()  # lane ints already assigned
        self._lane_epoch = 0

    def now(self) -> int:
        return _now_us()

    # -- event emission -------------------------------------------------

    def emit(self, event: dict) -> None:
        """Write one raw trace event (a dict) as a JSONL line.

        Silently drops events from processes other than the creator —
        forked workers share this object but must not interleave writes
        into the driver's file.
        """
        if self.path is None or os.getpid() != self._pid:
            return
        line = json.dumps(event, separators=(",", ":"), default=str)
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "w")
                self._fh.write(
                    json.dumps(
                        {
                            "name": "process_name",
                            "ph": "M",
                            "pid": self._pid,
                            "tid": 0,
                            "args": {"name": "repro-driver"},
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            self._fh.write(line + "\n")

    def complete(self, name, cat, ts, dur, *, tid=None, args=None) -> None:
        """Span: ``ts``/``dur`` in microseconds on the monotonic clock.

        When a request :func:`trace_context` is active its trace id is
        stamped into ``args`` (into a copy — the caller's dict is never
        mutated); an explicit ``trace_id`` key in ``args`` wins.
        """
        event = {
            "name": str(name),
            "cat": str(cat),
            "ph": "X",
            "ts": int(ts),
            "dur": max(int(dur), 0),
            "pid": self._pid,
            "tid": int(tid) if tid is not None else threading.get_native_id(),
        }
        args = _stamp_trace(args)
        if args:
            event["args"] = args
        self.emit(event)

    def instant(self, name, cat, *, ts=None, tid=None, args=None) -> None:
        """Point event (thread-scoped) — retries, crashes, round marks."""
        event = {
            "name": str(name),
            "cat": str(cat),
            "ph": "i",
            "s": "t",
            "ts": int(ts) if ts is not None else self.now(),
            "pid": self._pid,
            "tid": int(tid) if tid is not None else threading.get_native_id(),
        }
        args = _stamp_trace(args)
        if args:
            event["args"] = args
        self.emit(event)

    def counter_event(self, name, values: dict, *, ts=None) -> None:
        """Counter series sample; ``values`` maps series name -> number."""
        self.emit(
            {
                "name": str(name),
                "cat": "metrics",
                "ph": "C",
                "ts": int(ts) if ts is not None else self.now(),
                "pid": self._pid,
                "tid": 0,
                "args": values,
            }
        )

    def worker_lane(self, pid: int, tid: int) -> int:
        """Resolve a (pid, tid) observed in a task result to a trace lane.

        Work executed in a pool process gets a lane per worker pid; work
        executed in-driver (serial fallback, thread pool) gets a lane
        per native thread id. The first sighting of a lane emits its
        ``thread_name`` metadata so viewers label the row.

        Lane assignment is lock-guarded (concurrent first sightings of
        one lane must emit exactly one metadata line) and worker lanes
        are keyed by pool epoch: after the supervisor respawns a pool
        (:meth:`bump_lane_epoch`) a recycled OS pid gets a *fresh* lane
        instead of silently interleaving two workers' spans on one row.
        """
        pid, tid = int(pid), int(tid)
        if pid == self._pid:
            key = ("driver", tid)
            lane, label = tid, f"driver-thread-{tid}"
        else:
            with self._lane_lock:
                epoch = self._lane_epoch
            key = ("worker", epoch, pid)
            lane = pid
            label = f"worker-{pid}" if epoch == 0 else f"worker-{pid}-g{epoch}"
        with self._lane_lock:
            existing = self._lanes.get(key)
            if existing is not None:
                return existing
            # Collision: the natural lane int is already another row
            # (pid reuse across epochs, or a driver tid matching a dead
            # worker pid) — shift to a free synthetic lane id.
            while lane in self._lane_taken:
                lane += 1_000_000
            self._lanes[key] = lane
            self._lane_taken.add(lane)
        self.emit(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self._pid,
                "tid": lane,
                "args": {"name": label},
            }
        )
        return lane

    def bump_lane_epoch(self) -> None:
        """Advance the worker-lane epoch (call after a pool respawn).

        Subsequent worker pids map to fresh lanes even when the OS
        recycles a pid from the torn-down pool.
        """
        with self._lane_lock:
            self._lane_epoch += 1

    @contextmanager
    def span(self, name, cat="app", args=None):
        """Context manager emitting a complete event around the block.

        ``args`` may be a dict the caller mutates inside the block —
        it is serialized at exit, so late-filled fields (sizes known
        only after the stage ran) are captured.
        """
        ts = self.now()
        try:
            yield self
        finally:
            self.complete(name, cat, ts, self.now() - ts, args=args)

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        """Emit a metrics snapshot as counter events and flush the file."""
        snap = self.metrics.snapshot()
        if snap["counters"]:
            self.counter_event("repro.counters", snap["counters"])
        if snap["gauges"]:
            self.counter_event("repro.gauges", snap["gauges"])
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        if os.getpid() != self._pid:
            return
        self.flush()
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# -- process-wide tracer selection --------------------------------------

_explicit: "Tracer | NullTracer | None" = None
_env_tracer: "Tracer | None" = None
_env_path: "str | None" = None
_env_lock = threading.Lock()


def set_tracer(tracer) -> "Tracer | NullTracer | None":
    """Install ``tracer`` as the process-wide tracer; returns the previous.

    Pass ``None`` to fall back to the environment (``REPRO_TRACE``) or
    the shared null tracer. The caller keeps ownership: ``set_tracer``
    never closes anything.
    """
    global _explicit
    previous = _explicit
    _explicit = tracer
    return previous


def current_tracer():
    """The active tracer: explicit > ``REPRO_TRACE`` env > disabled.

    The environment is consulted on every call (cheap dict lookup), so
    setting ``REPRO_TRACE`` before the first solve is enough — no
    import-order dance. The env-derived tracer is cached per path and
    closed at interpreter exit; a path that cannot be opened for writing
    raises :class:`InvalidParameterError` (see :func:`check_env_path`).
    """
    if _explicit is not None:
        return _explicit
    path = os.environ.get(TRACE_ENV, "").strip()
    if not path:
        return NULL_TRACER
    global _env_tracer, _env_path
    with _env_lock:
        if _env_tracer is None or _env_path != path:
            check_env_path(TRACE_ENV, path)
            _env_tracer = Tracer(path)
            _env_path = path
        return _env_tracer


@contextmanager
def trace_to(path):
    """Scoped tracing: install a tracer for the block, close it after.

    >>> with trace_to("run.jsonl") as tracer:
    ...     shard_and_solve(points, k, ...)
    """
    tracer = Tracer(path)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()


@atexit.register
def _close_env_tracer() -> None:
    with _env_lock:
        if _env_tracer is not None:
            _env_tracer.close()
