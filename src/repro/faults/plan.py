"""Deterministic fault injection: what breaks, where, and on which attempt.

A :class:`FaultPlan` is an explicit, picklable description of the
faults a test (or a CI smoke run) wants injected into supervised
execution — *never* a source of randomness at execution time. Each
:class:`FaultSpec` names a task index, the attempt it fires on, and one
of four kinds:

* ``"crash"`` — take the worker down. Inside a process-pool worker this
  is a genuine ``os._exit`` (the parent sees ``BrokenProcessPool``); on
  an in-process run it raises :class:`InjectedCrashError` instead,
  because the caller cannot die without taking the interpreter (and the
  test suite) with it.
* ``"sleep"`` — stall for ``duration`` seconds before running the task,
  driving the supervisor's timeout path without flaky ad-hoc sleeps in
  tests.
* ``"raise"`` — raise :class:`InjectedFaultError` instead of running
  the task: the transient-failure path.
* ``"corrupt"`` — run the task, then mutate its result (negated
  ``weights`` for coreset-shaped results) so result validation has
  something real to catch.

Plans are deterministic by construction: a spec either matches a
``(task index, attempt)`` pair or it does not, so every recovery path
is exercised identically on every run and on every backend. The
seed-driven constructor :meth:`FaultPlan.random` derives its specs from
a ``numpy`` generator once, up front — the resulting plan is as
explicit as a hand-written one.

``REPRO_FAULT_PLAN`` (see :meth:`FaultPlan.from_env`) lets CI inject a
plan into :func:`repro.shard.shard_and_solve` without touching code::

    REPRO_FAULT_PLAN="crash@1,raise@3#2,sleep@0:0.5"
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError, ReproError

_KINDS = ("crash", "sleep", "raise", "corrupt")


class InjectedFaultError(ReproError):
    """The transient failure raised by a ``"raise"`` fault spec."""


class InjectedCrashError(ReproError):
    """The simulated worker crash raised by a ``"crash"`` fault spec on
    substrates where a real crash would kill the test process (serial
    in-process execution)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``kind`` fires for task ``index`` on attempt
    ``attempt`` (1-based; ``None`` = every attempt). ``duration`` is the
    stall in seconds for ``"sleep"`` faults."""

    kind: str
    index: int
    attempt: int | None = 1
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if int(self.index) < 0:
            raise InvalidParameterError(f"fault index must be >= 0, got {self.index!r}")
        if self.attempt is not None and int(self.attempt) < 1:
            raise InvalidParameterError(
                f"fault attempt must be >= 1 (or None for every attempt), "
                f"got {self.attempt!r}"
            )
        if float(self.duration) < 0.0:
            raise InvalidParameterError(
                f"fault duration must be >= 0, got {self.duration!r}"
            )

    def matches(self, index: int, attempt: int) -> bool:
        return self.index == index and (self.attempt is None or self.attempt == attempt)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec`; the first spec
    matching a ``(task, attempt)`` pair wins."""

    specs: tuple

    def __post_init__(self):
        specs = tuple(self.specs)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise InvalidParameterError(f"fault plan entries must be FaultSpec, got {spec!r}")
        object.__setattr__(self, "specs", specs)

    def lookup(self, index: int, attempt: int) -> FaultSpec | None:
        """The fault (if any) to inject into ``index``'s ``attempt``-th run."""
        for spec in self.specs:
            if spec.matches(index, attempt):
                return spec
        return None

    def __len__(self) -> int:
        return len(self.specs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def single(cls, kind: str, index: int = 0, *, attempt: int | None = 1,
               duration: float = 0.0) -> "FaultPlan":
        """One fault on one task — the common test-matrix case."""
        return cls(specs=(FaultSpec(kind, index, attempt=attempt, duration=duration),))

    @classmethod
    def random(cls, seed, n_tasks: int, *, n_faults: int = 1,
               kinds=("crash", "raise"), duration: float = 0.0) -> "FaultPlan":
        """Seed-driven plan: ``n_faults`` distinct first-attempt faults over
        ``n_tasks`` tasks, kinds drawn round-robin-free from ``kinds``.
        Deterministic — the generator is consumed here, not at fire time."""
        if int(n_tasks) < 1:
            raise InvalidParameterError(f"n_tasks must be >= 1, got {n_tasks!r}")
        n_faults = int(n_faults)
        if not 0 <= n_faults <= int(n_tasks):
            raise InvalidParameterError(
                f"n_faults must be in [0, {n_tasks}], got {n_faults!r}"
            )
        rng = np.random.default_rng(seed)
        targets = rng.choice(int(n_tasks), size=n_faults, replace=False)
        picks = rng.integers(0, len(tuple(kinds)), size=n_faults)
        kinds = tuple(kinds)
        return cls(specs=tuple(
            FaultSpec(kinds[int(k)], int(t), attempt=1, duration=duration)
            for t, k in zip(targets, picks)
        ))

    @classmethod
    def from_env(cls, var: str = "REPRO_FAULT_PLAN") -> "FaultPlan | None":
        """Parse a plan from the environment (``None`` when unset/empty).

        Grammar, comma-separated: ``KIND@INDEX[:DURATION][#ATTEMPT]``
        with ``#*`` meaning every attempt — e.g.
        ``"crash@1,sleep@0:0.5,raise@3#2,corrupt@2#*"``.
        """
        raw = os.environ.get(var, "").strip()
        if not raw:
            return None
        specs = []
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                kind, _, rest = token.partition("@")
                attempt: int | None = 1
                if "#" in rest:
                    rest, _, att = rest.partition("#")
                    attempt = None if att.strip() == "*" else int(att)
                duration = 0.0
                if ":" in rest:
                    rest, _, dur = rest.partition(":")
                    duration = float(dur)
                specs.append(
                    FaultSpec(kind.strip(), int(rest), attempt=attempt, duration=duration)
                )
            except (ValueError, InvalidParameterError) as exc:
                raise InvalidParameterError(
                    f"{var} entry {token!r} is not KIND@INDEX[:DURATION][#ATTEMPT] "
                    f"with KIND in {_KINDS}"
                ) from exc
        return cls(specs=tuple(specs)) if specs else None


# -- worker-side application (module-level: must pickle to process pools) ----


def in_worker_process() -> bool:
    """Whether we are inside a multiprocessing child — where a ``crash``
    fault may genuinely take the process down."""
    return multiprocessing.parent_process() is not None


def apply_fault_before(spec: FaultSpec | None) -> None:
    """Fire the pre-execution side of ``spec`` (crash / sleep / raise)."""
    if spec is None:
        return
    if spec.kind == "sleep":
        time.sleep(spec.duration)
    elif spec.kind == "raise":
        raise InjectedFaultError(
            f"injected transient fault on task {spec.index}"
        )
    elif spec.kind == "crash":
        if in_worker_process():
            # A real crash: the parent observes BrokenProcessPool.
            os._exit(13)
        raise InjectedCrashError(f"injected worker crash on task {spec.index}")


def apply_fault_after(spec: FaultSpec | None, result):
    """Fire the post-execution side of ``spec`` (result corruption)."""
    if spec is None or spec.kind != "corrupt":
        return result
    return corrupt_result(result)


def corrupt_result(result):
    """Deterministically damage a task result.

    Results carrying a ``weights`` ndarray (coresets) get it negated —
    exactly the damage the shard pipeline's result validation must
    catch. Bare arrays are negated; anything else is replaced with
    ``None`` (a shape the caller cannot mistake for success).
    """
    weights = getattr(result, "weights", None)
    if isinstance(weights, np.ndarray) and dataclasses.is_dataclass(result):
        return dataclasses.replace(result, weights=-weights)
    if isinstance(result, np.ndarray):
        return -result
    return None
