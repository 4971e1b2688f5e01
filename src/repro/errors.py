"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidInstanceError(ReproError):
    """An instance violates a structural requirement.

    Examples: non-square distance matrix, negative distances or opening
    costs, triangle-inequality violation beyond tolerance, empty facility
    or client sets.
    """


class InvalidParameterError(ReproError):
    """An algorithm parameter is outside its documented domain.

    Examples: ``epsilon <= 0``, ``k <= 0`` or ``k > n``, a non-positive
    block size for the cache model.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm exceeded its round/iteration safety bound.

    The parallel algorithms in the paper have high-probability round
    bounds; the implementations enforce a generous multiple of those
    bounds and raise this error rather than looping forever if the bound
    is breached (which would indicate a bug, not bad luck).
    """


class LPSolveError(ReproError):
    """The LP substrate failed to find an optimal solution.

    Raised when ``scipy.optimize.linprog`` reports anything other than
    successful convergence for the facility-location primal or dual.
    """


class InfeasibleSolutionError(ReproError):
    """A produced solution violates a verified invariant.

    Raised by checkers when, e.g., a dual solution is infeasible or a
    k-clustering opens more than ``k`` centers.
    """


class ExecutionError(ReproError):
    """Base class for execution-layer (fault-tolerance) failures.

    Raised by the supervised execution path (:mod:`repro.faults`) when a
    task could not be completed — as opposed to the modelling errors
    above, which describe bad inputs or broken invariants. Concrete
    subclasses carry the original cause via ``__cause__`` chaining, so
    ``raise TaskTimeoutError(...) from exc`` preserves the full story.
    """


class WorkerCrashError(ExecutionError):
    """A worker died while (or before) executing a task.

    On a process pool this wraps ``BrokenProcessPool`` — the pool is
    unusable afterwards and the supervisor respawns it. On in-process
    execution it wraps an injected/simulated crash (the caller cannot
    take the interpreter down without taking the suite with it).
    """


class TaskTimeoutError(ExecutionError):
    """A supervised task exceeded its :class:`~repro.faults.RetryPolicy`
    timeout.

    The task may still be running (neither an in-process task nor an
    already-started pool task can be preempted); the supervisor stops
    waiting, counts the attempt, and — on a pool — abandons and
    respawns it so a hung worker cannot wedge later rounds.
    """


class ShardFailedError(ExecutionError):
    """A shard's task exhausted its retry budget (or degradation was
    refused).

    Raised by :func:`repro.shard.shard_and_solve` when
    ``on_shard_failure`` is ``"raise"``/``"retry"`` and a shard still
    fails after all permitted attempts, or when ``"drop"`` would push
    the covered weight below the configured coverage floor. The first
    underlying :class:`~repro.faults.TaskFailure`'s error is chained as
    ``__cause__``.
    """
