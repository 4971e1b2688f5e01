"""Supervised batch execution: retry, timeout, backoff, and crash
recovery over any :class:`~repro.pram.backends.Backend`.

:meth:`Supervisor.submit_batch` is the one executor that sends a batch
of independent tasks to a backend's worker pool; a backend only owns
the pool. A bare pool's failure model is poor: one hung worker stalls
the batch forever, one crashed process poisons every outstanding
future, and a raised exception aborts everything with a raw traceback.
The :class:`Supervisor` gives every batch an explicit failure contract
governed by a :class:`RetryPolicy` (``NO_RETRY`` for fail-fast
callers):

* **per-task timeouts** — the supervisor stops waiting on a task after
  ``policy.timeout`` seconds (measured from when it turns to that
  task), classifies it as :class:`~repro.errors.TaskTimeoutError`, and
  on process pools abandons + respawns the pool so the hung worker
  cannot wedge later rounds;
* **crash detection and attribution** — ``BrokenProcessPool`` poisons
  every outstanding future, so the supervisor plants a *sentinel flag
  array* in shared memory that each task stamps at start and finish.
  After a crash, tasks that never started are collateral and rerun for
  free; tasks observed mid-run are *suspects* (the crasher is
  indistinguishable in-band from an innocent task on a worker torn
  down with the pool) and are rerun one-at-a-time on the respawned
  pool — a lone task that breaks the pool again is attributed exactly
  (attempt consumed, :class:`~repro.errors.WorkerCrashError`) while
  innocents simply complete;
* **retries with exponential backoff + deterministic jitter** — failed
  tasks are resubmitted up to ``policy.max_attempts`` times; the delay
  between rounds grows by ``policy.backoff`` with a jitter derived from
  the task index (never from wall-clock entropy, so reruns are
  reproducible);
* **structured failure records** — a task that exhausts its budget
  yields a :class:`TaskFailure` (index, attempts, classified error with
  ``__cause__`` chaining, total duration) instead of a traceback; the
  caller decides whether to raise or degrade.

Fault injection for tests rides on the same machinery: a
:class:`~repro.faults.plan.FaultPlan` is consulted per ``(task,
attempt)`` and applied inside the worker, so every recovery path above
is exercised deterministically in CI.

Supervised functions must be **deterministic per item**: recovery rests
on reruns being byte-identical to the run that failed (the shard
pipeline guarantees this by deriving each task's seed from a
``SeedSequence`` spawn carried in the item itself).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, CancelledError
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import (
    ConvergenceError,
    ExecutionError,
    InvalidParameterError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.faults.plan import (
    FaultPlan,
    InjectedCrashError,
    apply_fault_after,
    apply_fault_before,
)
from repro.obs.log import current_log
from repro.obs.tracer import current_trace_id, current_tracer
from repro.pram.backends import (
    _record_shm_bytes,
    _TracedResult,
    _unpack_value,
    fn_picklable,
    pack_batch_items,
)
from repro.util.validation import (
    check_nonnegative,
    check_positive_float,
    check_positive_int,
)

#: Sentinel flag values stamped by workers into the shared flag array.
_IDLE, _STARTED, _FINISHED = 0, 1, 2


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats a failing task.

    Parameters
    ----------
    max_attempts:
        Total runs a task may consume through *attributed* failures
        (crash while running, timeout, raised exception, rejected
        result). Collateral reruns after someone else's crash are free.
    base_delay / backoff / jitter:
        The wait before retry round ``a`` is
        ``base_delay · backoff^(a-1) · (1 + jitter·u)`` with ``u ∈
        [0, 1)`` derived deterministically from the task index — spread
        without wall-clock entropy.
    timeout:
        Per-task wait bound in seconds (``None`` = wait forever). On
        pool-less (serial/closed) execution the task cannot be
        preempted; it is classified as timed out after the fact.
    retryable_exceptions:
        Which *task-raised* exception types consume a retry rather than
        failing immediately. Infrastructure failures
        (:class:`WorkerCrashError`, :class:`TaskTimeoutError`) are
        always retryable — the task itself did nothing wrong.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    jitter: float = 0.1
    timeout: float | None = None
    retryable_exceptions: tuple = (Exception,)

    def __post_init__(self):
        check_positive_int(self.max_attempts, name="max_attempts")
        check_nonnegative(self.base_delay, name="base_delay")
        check_nonnegative(self.jitter, name="jitter")
        if not float(self.backoff) >= 1.0:
            raise InvalidParameterError(
                f"backoff must be >= 1 (delays may not shrink), got {self.backoff!r}"
            )
        if self.timeout is not None:
            check_positive_float(self.timeout, name="timeout")
        excs = tuple(self.retryable_exceptions)
        for e in excs:
            if not (isinstance(e, type) and issubclass(e, Exception)):
                raise InvalidParameterError(
                    f"retryable_exceptions must be Exception subclasses, got {e!r}"
                )
        object.__setattr__(self, "retryable_exceptions", excs)

    def delay(self, attempt: int, index: int = 0) -> float:
        """Backoff before the ``attempt``-th retry of task ``index``."""
        if self.base_delay == 0.0:
            return 0.0
        d = self.base_delay * self.backoff ** (max(int(attempt), 1) - 1)
        if self.jitter:
            u = float(np.random.default_rng([abs(int(index)), max(int(attempt), 1)]).random())
            d *= 1.0 + self.jitter * u
        return d


#: Fail fast: a single attempt, no waiting — supervision reduced to
#: classification + structured failure records.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)


@dataclass
class TaskFailure:
    """One task's terminal failure: which task, how many attempts it
    consumed, the classified error (original exception chained as
    ``error.__cause__``), and the wall-clock spent across attempts."""

    index: int
    attempts: int
    error: ExecutionError
    duration: float

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"task {self.index} failed after {self.attempts} attempt(s) "
            f"({self.duration:.3f}s): {self.error}"
        )


@dataclass(frozen=True)
class TaskAttempt:
    """One run of one task, successful or not.

    Where :class:`TaskFailure` exists only for tasks that exhausted
    their budget, the supervisor's :attr:`Supervisor.attempt_log` keeps
    a :class:`TaskAttempt` for *every* run of every task — including
    the retries behind a task that ultimately succeeded, which
    previously left no record at all.

    ``outcome`` is one of ``"ok"``, ``"fail"``, ``"timeout"``,
    ``"crash"``, ``"rejected"`` (validation refused the result),
    ``"suspect"`` (mid-run during a pool breakage, rerun in isolation),
    or ``"free"`` (collateral rerun, no attempt consumed).
    """

    index: int
    attempt: int
    outcome: str
    error: str | None
    duration: float


def _supervised_call(payload):
    """Run one supervised task inside a worker (module-level: must
    pickle to process pools). Stamps the sentinel flag array — shared
    memory attached by name — at start and finish, applies the injected
    fault (if any) around the real function. ``packed`` marks an item
    whose ndarrays crossed by shared-memory name (zero-copy process
    transport); it is materialized into read-only views here, under the
    same tracker suppression as the flags segment — the parent owns
    every segment's lifetime. ``trace`` asks for worker-local timing:
    the raw result (with any injected corruption already applied, so
    fault semantics are identical either way) rides back wrapped in a
    timing envelope the parent unwraps before validation. ``trace_id``
    is the request trace id the round was dispatched under (or None);
    it rides back inside the envelope so worker spans are attributed to
    the request even across the process boundary."""
    fn, item, spec, flags_name, slot, packed, trace, trace_id = payload
    shm = None
    flags = None
    item_shms: list = []
    if flags_name is not None or packed:
        # On this Python, *attaching* registers the segment with the
        # resource tracker, so a worker killed mid-task (the exact
        # event we supervise) would leave a dangling registration that
        # later unlinks the segment out from under the parent. The
        # parent owns the lifetime; suppress the worker-side
        # registration entirely. (Workers run tasks one at a time, so
        # the swap cannot race another attach in this process.)
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            if flags_name is not None:
                try:
                    shm = shared_memory.SharedMemory(name=flags_name)
                except (FileNotFoundError, OSError):
                    # The segment vanished (parent already tore the round
                    # down): run unstamped — worst case the task is reported
                    # as a suspect and re-proven in isolation.
                    shm = None
            if packed:
                item = _unpack_value(item, item_shms)
        finally:
            resource_tracker.register = orig_register
        if shm is not None:
            flags = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)
            flags[slot] = _STARTED
    try:
        start_us = time.perf_counter_ns() // 1000 if trace else 0
        apply_fault_before(spec)
        result = apply_fault_after(spec, fn(item))
        if flags is not None:
            flags[slot] = _FINISHED
        if trace:
            result = _TracedResult(
                result,
                os.getpid(),
                threading.get_native_id(),
                start_us,
                time.perf_counter_ns() // 1000,
                trace_id,
            )
        return result
    finally:
        for item_shm in item_shms:
            item_shm.close()
        if shm is not None:
            shm.close()


@dataclass
class _Outcome:
    """One task's result for one round: ``kind`` ∈ ``ok`` (value), ``fail``
    (classified error, attempt consumed), ``free`` (collateral — rerun
    without consuming an attempt), ``suspect`` (was mid-run when the
    pool broke; rerun *in isolation* so a repeat crash attributes it
    exactly, without consuming an attempt yet)."""

    kind: str
    value: object = None
    error: ExecutionError | None = None
    duration: float = 0.0


class Supervisor:
    """Fault-tolerant batch execution over an existing backend.

    The supervisor never owns the backend — it borrows whatever pool the
    backend currently holds, falling back to in-process execution when
    there is none (serial backend, closed backend, unpicklable ``fn`` on
    a process pool). Every task of a batch goes to the pool, a
    one-task batch included. Results are order-preserving;
    :meth:`submit_batch` returns ``(results, failures)`` where a failed
    task's slot holds ``None`` and its :class:`TaskFailure` explains
    why. Every run of every task — retries behind eventual successes
    included — is additionally recorded in :attr:`attempt_log` (reset
    per :meth:`submit_batch`), and, when a tracer is active, emitted as
    ``cat="fault"`` trace events plus ``supervisor.attempts_total`` /
    ``supervisor.tasks_retried`` counters.
    """

    def __init__(
        self,
        backend,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        tracer=None,
    ):
        self.backend = backend
        self.policy = policy if policy is not None else RetryPolicy()
        if not isinstance(self.policy, RetryPolicy):
            raise InvalidParameterError(
                f"policy must be a RetryPolicy, got {type(self.policy).__name__}"
            )
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise InvalidParameterError(
                f"fault_plan must be a FaultPlan, got {type(fault_plan).__name__}"
            )
        self.fault_plan = fault_plan
        self.tracer = tracer
        #: :class:`TaskAttempt` records from the most recent
        #: :meth:`submit_batch`, in processing order.
        self.attempt_log: list[TaskAttempt] = []

    # -- public API ---------------------------------------------------------

    def submit_batch(self, fn, items, *, validate=None):
        """Run ``fn`` over ``items`` under supervision.

        ``validate(index, result)`` — when given — is called in the
        parent on every successful result; raising rejects the result
        (the corrupt-result detection hook) and consumes an attempt like
        any task failure.

        Returns ``(results, failures)``: ``results[i]`` is the task's
        value or ``None`` if it terminally failed, ``failures`` the
        index-sorted :class:`TaskFailure` records (empty on full
        success).
        """
        items = list(items)
        n = len(items)
        tracer = self.tracer if self.tracer is not None else current_tracer()
        self.attempt_log = []
        retried: set = set()
        results: list = [None] * n
        attempts = [1] * n  # attempt number of the task's NEXT run
        spent = [0.0] * n
        failures: list[TaskFailure] = []
        pending = list(range(n))
        rounds = 0
        isolate = False
        # Each failing round attributes at least one attempt, so rounds
        # are bounded by n·max_attempts (+1 clean final round); the
        # guard turns a logic bug into a loud error, not a hang.
        guard = self.policy.max_attempts * max(n, 1) + 8
        while pending:
            rounds += 1
            if rounds > guard:  # pragma: no cover - safety valve
                raise ConvergenceError(
                    f"supervised batch did not settle in {guard} rounds"
                )
            if isolate and len(pending) > 1:
                # Post-breakage round: run each suspect alone on the
                # pool. A lone task that breaks the pool *is* the
                # crasher — exact attribution; innocents that were
                # merely mid-run when someone else died just succeed.
                outcomes = []
                for idx in pending:
                    outcomes.extend(self._run_round(fn, items, [idx], attempts, tracer))
            else:
                outcomes = self._run_round(fn, items, pending, attempts, tracer)
            isolate = False
            retry: list[int] = []
            burned: list[int] = []
            for idx, outcome in zip(pending, outcomes):
                rejected = False
                if outcome.kind == "ok":
                    spent[idx] += outcome.duration
                    error = self._validated(validate, idx, outcome.value)
                    if error is None:
                        results[idx] = outcome.value
                        self._record(tracer, idx, attempts[idx], "ok", None, outcome.duration)
                        continue
                    outcome = _Outcome("fail", error=error)
                    rejected = True
                if outcome.kind == "suspect":
                    self._record(tracer, idx, attempts[idx], "suspect", None, outcome.duration)
                    isolate = True
                    retry.append(idx)
                    continue
                if outcome.kind == "free":
                    self._record(tracer, idx, attempts[idx], "free", None, outcome.duration)
                    retry.append(idx)
                    continue
                spent[idx] += outcome.duration
                error = outcome.error
                self._record(
                    tracer,
                    idx,
                    attempts[idx],
                    "rejected" if rejected else self._outcome_name(error),
                    error,
                    outcome.duration,
                )
                if attempts[idx] >= self.policy.max_attempts or not self._retryable(error):
                    failures.append(
                        TaskFailure(idx, attempts[idx], error, spent[idx])
                    )
                else:
                    attempts[idx] += 1
                    if idx not in retried:
                        retried.add(idx)
                        if tracer.enabled:
                            tracer.metrics.counter("supervisor.tasks_retried").inc()
                    burned.append(idx)
                    retry.append(idx)
            if burned:
                delay = max(self.policy.delay(attempts[i] - 1, i) for i in burned)
                if tracer.enabled:
                    tracer.instant(
                        "retry_wait",
                        "fault",
                        args={"tasks": list(burned), "delay_s": delay},
                    )
                time.sleep(delay)
            pending = retry
        failures.sort(key=lambda f: f.index)
        return results, failures

    # -- attempt accounting -------------------------------------------------

    @staticmethod
    def _outcome_name(error) -> str:
        if isinstance(error, TaskTimeoutError):
            return "timeout"
        if isinstance(error, WorkerCrashError):
            return "crash"
        return "fail"

    def _record(self, tracer, index, attempt, outcome, error, duration) -> None:
        """Append one :class:`TaskAttempt`; mirror it into the tracer.

        The log itself is unconditional (it is how successful-task
        retry history became observable at all); trace events and
        counters only fire when tracing is on.
        """
        self.attempt_log.append(
            TaskAttempt(
                index,
                attempt,
                outcome,
                str(error) if error is not None else None,
                duration,
            )
        )
        log = current_log()
        if log.enabled and outcome != "ok":
            log.event(
                f"supervisor.task_{outcome}",
                task=index,
                attempt=attempt,
                error=str(error)[:200] if error is not None else None,
                duration_s=duration,
            )
        if not tracer.enabled:
            return
        if outcome not in ("free", "suspect"):
            tracer.metrics.counter("supervisor.attempts_total").inc()
        if outcome != "ok":
            tracer.instant(
                f"task_{outcome}",
                "fault",
                args={
                    "task": index,
                    "attempt": attempt,
                    "error": str(error)[:200] if error is not None else None,
                },
            )

    # -- round execution ----------------------------------------------------

    def _spec(self, index: int, attempt: int):
        return self.fault_plan.lookup(index, attempt) if self.fault_plan else None

    def _retryable(self, error: ExecutionError) -> bool:
        if isinstance(error, (WorkerCrashError, TaskTimeoutError)):
            return True  # infrastructure failed, not the task
        cause = error.__cause__ if error.__cause__ is not None else error
        return isinstance(cause, self.policy.retryable_exceptions)

    @staticmethod
    def _validated(validate, index, value) -> ExecutionError | None:
        if validate is None:
            return None
        try:
            validate(index, value)
            return None
        except Exception as exc:
            error = ExecutionError(
                f"task {index} returned a rejected result: {exc}"
            )
            error.__cause__ = exc
            return error

    def _run_round(self, fn, items, pending, attempts, tracer) -> list[_Outcome]:
        backend = self.backend
        pool = getattr(backend, "_pool", None)
        if pool is None or getattr(backend, "closed", False):
            return self._run_inline(fn, items, pending, attempts, tracer)
        if getattr(backend, "_batch_requires_pickle", False):
            if not fn_picklable(fn):
                return self._run_inline(fn, items, pending, attempts, tracer)
            return self._run_pool(fn, items, pending, attempts, tracer, pool, sentinel=True)
        return self._run_pool(fn, items, pending, attempts, tracer, pool, sentinel=False)

    @staticmethod
    def _unwrap_traced(tracer, value, idx, attempt, submit_ts):
        """Strip a worker timing envelope, emitting its spans.

        Returns the raw task value. Per task run the trace gains an
        ``exec`` span (the task body) on the executing worker's lane,
        and, for pool rounds, a ``queue_wait`` span measured from the
        round's submit timestamp (``None`` for inline execution, which
        has no queue) — the utilization/straggler raw material, mirrored
        into the ``backend.exec_us`` / ``backend.queue_wait_us``
        histograms and the ``backend.batch_tasks`` counter.
        """
        if not isinstance(value, _TracedResult):
            return value
        lane = tracer.worker_lane(value.pid, value.tid)
        args = {"task": idx, "attempt": attempt}
        if value.trace_id is not None:
            # the id the round was dispatched under — authoritative even
            # if the unwrapping thread's ambient context moved on
            args["trace_id"] = value.trace_id
        metrics = tracer.metrics
        if submit_ts is not None:
            queued = max(value.start_us - submit_ts, 0)
            tracer.complete("queue_wait", "backend", submit_ts, queued, tid=lane, args=args)
            metrics.histogram("backend.queue_wait_us").observe(queued)
        dur = max(value.end_us - value.start_us, 0)
        tracer.complete("exec", "backend", value.start_us, dur, tid=lane, args=args)
        metrics.histogram("backend.exec_us").observe(dur)
        metrics.counter("backend.batch_tasks").inc()
        return value.value

    def _run_inline(self, fn, items, pending, attempts, tracer) -> list[_Outcome]:
        """Pool-less execution in the calling thread. Nothing can be
        preempted here, so timeouts are classified after the fact and a
        ``crash`` fault surfaces as :class:`InjectedCrashError`."""
        trace = tracer.enabled
        outcomes = []
        for idx in pending:
            spec = self._spec(idx, attempts[idx])
            t0 = time.perf_counter()
            try:
                value = _supervised_call(
                    (fn, items[idx], spec, None, 0, False, trace,
                     current_trace_id())
                )
                value = self._unwrap_traced(tracer, value, idx, attempts[idx], None)
            except Exception as exc:
                outcomes.append(
                    _Outcome(
                        "fail",
                        error=self._classify(exc, idx),
                        duration=time.perf_counter() - t0,
                    )
                )
                continue
            duration = time.perf_counter() - t0
            if self.policy.timeout is not None and duration > self.policy.timeout:
                error = TaskTimeoutError(
                    f"task {idx} ran {duration:.3f}s, past the "
                    f"{self.policy.timeout}s timeout (in-process execution "
                    f"cannot be preempted; flagged post-hoc)"
                )
                outcomes.append(_Outcome("fail", error=error, duration=duration))
            else:
                outcomes.append(_Outcome("ok", value=value, duration=duration))
        return outcomes

    def _run_pool(self, fn, items, pending, attempts, tracer, pool, *, sentinel) -> list[_Outcome]:
        """One round over the backend's worker pool.

        ``sentinel=True`` (process pools) plants the shared flag array
        for crash attribution and moves the round's large item arrays
        by shared memory (:func:`~repro.pram.backends.pack_batch_items`,
        materialized by ``_supervised_call``); thread pools deliver
        exceptions in-band and share items directly.
        """
        trace = tracer.enabled
        flags_shm = None
        flags = None
        if sentinel:
            flags_shm = shared_memory.SharedMemory(create=True, size=max(len(pending), 1))
            flags = np.ndarray((flags_shm.size,), dtype=np.uint8, buffer=flags_shm.buf)
            flags[:] = _IDLE
        item_shms: list = []
        round_items = [items[idx] for idx in pending]
        try:
            if sentinel:
                round_items, _ = pack_batch_items(round_items, item_shms)
                _record_shm_bytes(tracer, item_shms)
            submit_ts = tracer.now() if trace else None
            trace_id = current_trace_id()
            futures = []
            for slot, idx in enumerate(pending):
                spec = self._spec(idx, attempts[idx])
                payload = (
                    fn,
                    round_items[slot],
                    spec,
                    flags_shm.name if sentinel else None,
                    slot,
                    sentinel,
                    trace,
                    trace_id,
                )
                try:
                    futures.append(pool.submit(_supervised_call, payload))
                except (RuntimeError, BrokenExecutor):
                    # The pool died (or was shut down) before this task
                    # entered it: collateral, rerun for free next round.
                    futures.append(None)
            broke = False
            timed_out = False
            raw: list = []
            for slot, (idx, fut) in enumerate(zip(pending, futures)):
                if fut is None:
                    broke = True
                    raw.append(_Outcome("free"))
                    continue
                t0 = time.perf_counter()
                try:
                    value = fut.result(timeout=self.policy.timeout)
                    value = self._unwrap_traced(tracer, value, idx, attempts[idx], submit_ts)
                    raw.append(
                        _Outcome("ok", value=value, duration=time.perf_counter() - t0)
                    )
                except _FuturesTimeout:
                    timed_out = True
                    error = TaskTimeoutError(
                        f"task {idx} exceeded the {self.policy.timeout}s timeout"
                    )
                    raw.append(
                        _Outcome("fail", error=error, duration=time.perf_counter() - t0)
                    )
                except (BrokenExecutor, CancelledError) as exc:
                    # Pool breakage poisons every outstanding future;
                    # attribution is resolved below via the sentinel.
                    broke = True
                    duration = time.perf_counter() - t0
                    started = sentinel and flags is not None and flags[slot] == _STARTED
                    if started and len(pending) == 1:
                        # The task was alone on the pool: exact
                        # attribution, consume its attempt.
                        error = WorkerCrashError(
                            f"worker died while task {idx} was running"
                        )
                        error.__cause__ = exc
                        raw.append(_Outcome("fail", error=error, duration=duration))
                    elif started:
                        # Mid-run during someone's crash — could be the
                        # crasher, could be collateral on a healthy
                        # worker torn down with the pool. Rerun in
                        # isolation to find out.
                        raw.append(_Outcome("suspect", duration=duration))
                    else:
                        raw.append(_Outcome("free", duration=duration))
                except Exception as exc:
                    raw.append(
                        _Outcome(
                            "fail",
                            error=self._classify(exc, idx),
                            duration=time.perf_counter() - t0,
                        )
                    )
            if broke and sentinel and not any(
                o.kind == "suspect"
                or (o.kind == "fail" and isinstance(o.error, WorkerCrashError))
                for o in raw
            ):
                # Breakage with no task observed mid-run (a worker died
                # between tasks, or flags were lost): escalate the
                # collaterals to suspects so the isolation rounds keep
                # the round count bounded.
                for slot, outcome in enumerate(raw):
                    if outcome.kind == "free":
                        raw[slot] = _Outcome("suspect", duration=outcome.duration)
            if broke or (timed_out and sentinel):
                # A broken pool is unusable; a hung process worker would
                # wedge later rounds. Respawn before retrying. (Thread
                # pools survive both: a timed-out thread just finishes
                # late.)
                respawn = getattr(self.backend, "_respawn_pool", None)
                if respawn is not None:
                    if trace:
                        tracer.instant(
                            "pool_respawn",
                            "fault",
                            args={
                                "backend": getattr(self.backend, "name", "?"),
                                "broke": broke,
                                "timed_out": timed_out,
                            },
                        )
                        tracer.metrics.counter("supervisor.pool_respawns").inc()
                    log = current_log()
                    if log.enabled:
                        log.event(
                            "supervisor.pool_respawn",
                            backend=getattr(self.backend, "name", "?"),
                            broke=broke,
                            timed_out=timed_out,
                        )
                    respawn()
                    # the torn-down pool's pids may be recycled by the
                    # OS: retire their trace lanes so replacement
                    # workers get fresh rows
                    if trace:
                        tracer.bump_lane_epoch()
            return raw
        finally:
            for item_shm in item_shms:
                item_shm.close()
                try:
                    item_shm.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
            if flags_shm is not None:
                flags_shm.close()
                try:
                    flags_shm.unlink()
                except FileNotFoundError:
                    # A dying worker's dangling resource-tracker
                    # registration can unlink first; gone is gone.
                    pass

    @staticmethod
    def _classify(exc, idx) -> ExecutionError:
        """Wrap a task-raised exception in the execution taxonomy with
        ``__cause__`` chaining."""
        if isinstance(exc, InjectedCrashError):
            error: ExecutionError = WorkerCrashError(
                f"task {idx} crashed (simulated in-process crash)"
            )
        else:
            error = ExecutionError(
                f"task {idx} raised {type(exc).__name__}: {exc}"
            )
        error.__cause__ = exc
        return error


def supervised_submit_batch(
    backend,
    fn,
    items,
    *,
    policy: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    validate=None,
    tracer=None,
):
    """One-shot convenience: ``Supervisor(backend, policy,
    fault_plan).submit_batch(fn, items, validate=validate)``.

    Returns ``(results, failures)``; a fail-fast caller passes
    ``policy=NO_RETRY`` and raises on the first failure itself."""
    return Supervisor(backend, policy, fault_plan, tracer=tracer).submit_batch(
        fn, items, validate=validate
    )
