"""Fault-tolerant execution: supervision, retries, and fault injection.

The ROADMAP's "clustering-as-a-service" north star needs the execution
layer to survive partial failure: a million-point
:func:`~repro.shard.shard_and_solve` run fans per-shard work across a
process pool, and without this package one hung or crashed worker aborts
the whole solve. Two halves:

* :mod:`repro.faults.supervisor` — :class:`Supervisor`, the one
  executor that sends batches to a backend's task pool, gives every
  batch per-task timeouts, crash detection
  (sentinel start/finish flags in shared memory plus isolation reruns
  attribute ``BrokenProcessPool`` to the task that actually crashed,
  not to collateral tasks the breakage tore down), retries under a
  :class:`RetryPolicy` (exponential backoff, deterministic jitter),
  pool respawn, and structured :class:`TaskFailure` records.
* :mod:`repro.faults.plan` — :class:`FaultPlan` injects deterministic
  crashes / stalls / transient raises / corrupted results into
  supervised execution, so every recovery path is exercised in CI
  without flaky sleeps. ``REPRO_FAULT_PLAN`` activates a plan from the
  environment.

The error taxonomy lives in :mod:`repro.errors`
(:class:`~repro.errors.WorkerCrashError`,
:class:`~repro.errors.TaskTimeoutError`,
:class:`~repro.errors.ShardFailedError`, all chained via
``__cause__``). Degraded-mode solving — proceeding on surviving shards
with a widened, coverage-aware certificate — is wired into
:func:`repro.shard.shard_and_solve` via ``on_shard_failure="drop"``.
"""

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    InjectedCrashError,
    InjectedFaultError,
    apply_fault_after,
    apply_fault_before,
    corrupt_result,
)
from repro.faults.supervisor import (
    NO_RETRY,
    RetryPolicy,
    Supervisor,
    TaskAttempt,
    TaskFailure,
    supervised_submit_batch,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedCrashError",
    "InjectedFaultError",
    "apply_fault_after",
    "apply_fault_before",
    "corrupt_result",
    "NO_RETRY",
    "RetryPolicy",
    "Supervisor",
    "TaskAttempt",
    "TaskFailure",
    "supervised_submit_batch",
]
