"""Structured event log: JSONL records with trace-id correlation.

Where the tracer answers *when inside the request* and the registry
answers *how many*, the event log answers *what happened*: jobs
submitted, retries fired, pools respawned, requests rejected — one JSON
object per line, each stamped with the wall-clock time, the pid, and
(when a request :func:`~repro.obs.tracer.trace_context` is active) the
request's ``trace_id``, so ``grep trace_id log.jsonl`` reconstructs one
request's story across server, job queue, and supervisor.

Activation mirrors the tracer, cheapest-first:

- off (default): every call site sees :data:`NULL_LOG` whose
  ``enabled`` is ``False`` — the disabled path is a guard on that flag,
  not a formatting call.
- ``REPRO_LOG=/path/to/log.jsonl``: a process-wide log, closed at
  interpreter exit. A path that cannot be opened for writing raises
  :class:`~repro.errors.InvalidParameterError` from :func:`current_log`.
- explicit: :func:`set_log` / the :func:`log_to` context manager;
  explicit wins over the environment.

The file opens in append mode (logs from successive runs accumulate,
unlike traces which are one-run artifacts) and the same pid guard as
the tracer applies: forked workers inherit the object but never write.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager

from repro.obs.tracer import check_env_path, current_trace_id

#: Environment variable holding the structured-log output path.
LOG_ENV = "REPRO_LOG"


class NullLog:
    """Disabled log: ``event`` is a no-op, ``enabled`` is False."""

    enabled = False
    path = None

    def event(self, event: str, **fields) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared disabled log, returned by :func:`current_log` when nothing is
#: configured.
NULL_LOG = NullLog()


class EventLog:
    """Enabled structured log writing JSONL records to ``path``.

    ``path=None`` is an enabled drop sink (records are built then
    discarded) — used by tests to exercise the enabled path without
    touching disk. Thread-safe; lazily opens the file on first event.
    """

    enabled = True

    def __init__(self, path=None, *, stream=None):
        self.path = os.fspath(path) if path is not None else None
        self._stream = stream
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._fh = None

    def event(self, event: str, **fields) -> None:
        """Record one event; keyword fields become JSON keys.

        ``ts`` (epoch seconds), ``pid``, and the ambient ``trace_id``
        (if any) are stamped automatically; an explicit non-``None``
        ``trace_id`` keyword wins over the ambient one. ``None``-valued
        fields are omitted (absence, not ``null``, encodes "no value").
        """
        if os.getpid() != self._pid:
            return
        record = {"ts": round(time.time(), 6), "event": str(event),
                  "pid": self._pid}
        trace_id = current_trace_id()
        if trace_id is not None:
            record["trace_id"] = trace_id
        record.update({k: v for k, v in fields.items() if v is not None})
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._stream is not None:
                self._stream.write(line + "\n")
                return
            if self.path is None:
                return
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        if os.getpid() != self._pid:
            return
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def read_log(path) -> list:
    """Load a JSONL event log into a list of dicts (blank lines skipped)."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


# -- process-wide log selection ------------------------------------------

_explicit: "EventLog | NullLog | None" = None
_env_log: "EventLog | None" = None
_env_path: "str | None" = None
_env_lock = threading.Lock()


def set_log(log) -> "EventLog | NullLog | None":
    """Install ``log`` process-wide; returns the previous. ``None``
    falls back to ``REPRO_LOG`` / disabled. Caller keeps ownership."""
    global _explicit
    previous = _explicit
    _explicit = log
    return previous


def current_log():
    """The active event log: explicit > ``REPRO_LOG`` env > disabled.

    A ``REPRO_LOG`` path that cannot be opened for writing raises
    :class:`~repro.errors.InvalidParameterError` (see
    :func:`~repro.obs.tracer.check_env_path`).
    """
    if _explicit is not None:
        return _explicit
    path = os.environ.get(LOG_ENV, "").strip()
    if not path:
        return NULL_LOG
    global _env_log, _env_path
    with _env_lock:
        if _env_log is None or _env_path != path:
            check_env_path(LOG_ENV, path)
            _env_log = EventLog(path)
            _env_path = path
        return _env_log


@contextmanager
def log_to(path):
    """Scoped logging: install an :class:`EventLog` for the block."""
    log = EventLog(path)
    previous = set_log(log)
    try:
        yield log
    finally:
        set_log(previous)
        log.close()


@atexit.register
def _close_env_log() -> None:
    with _env_lock:
        if _env_log is not None:
            _env_log.close()
