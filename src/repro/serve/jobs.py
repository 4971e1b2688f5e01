"""Job lifecycle and the worker-side solve runner.

A :class:`Job` is one accepted solve request moving through
``queued → running → done|failed``. The :class:`JobTable` owns every
job the server has seen, plus the **in-flight index**: a map from
result-cache key to the job currently computing it, so concurrent
identical requests coalesce onto one solve instead of racing the cache
(the second client waits on the first client's job and both read the
same result).

:class:`SolveRunner` is the blocking worker-side entry point executed
on the server's executor threads. It runs
:func:`repro.shard.shard_and_solve` over the cached point block on the
server's shared backend under the PR 6 supervised-retry contract
(``on_shard_failure="retry"``), so a worker crash mid-request is
retried with the byte-identity guarantee — the response a client sees
after a crash is bit-for-bit the response of an unfailed run. Jobs are
seeded from their request parameters, never from server state, which is
what makes results cacheable and reruns identical.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.local_search import swap_round_cap
from repro.core.primal_dual import check_schedule
from repro.errors import InvalidParameterError
from repro.faults.plan import FaultPlan
from repro.faults.supervisor import RetryPolicy
from repro.obs.log import current_log
from repro.pram.machine import PramMachine
from repro.serve.cache import StoredInstance, result_key
from repro.shard.solve import _SOLVERS, shard_and_solve
from repro.util.validation import (
    check_epsilon,
    check_k,
    check_nonnegative,
    check_positive_int,
)

#: Request parameters a client may set, with server-side defaults filled
#: by :func:`normalize_params`. The normalized dict *is* the cacheable
#: identity of a solve (together with the instance content hash).
_PARAM_DEFAULTS = {
    "solver": "kmedian",
    "shards": 2,
    "coreset_size": None,
    "neighbors": 32,
    "epsilon": 0.5,
    "seed": 0,
    "fallback_slack": 1.0,
}


#: The ``epsilon`` ceiling each solver's own check enforces
#: (``check_epsilon``'s ``upper``): local search needs ε < 1, the
#: Lagrangian k-median any ε > 0, and k-center takes no ε at all.
_EPSILON_UPPER = {
    "kmedian": 1.0 - 1e-9,
    "kmeans": 1.0 - 1e-9,
    "kmedian_lagrangian": None,
}


def _as_int(name: str, value) -> int:
    """A JSON integer (``3``, or an integral number such as ``3.0``);
    bools, text and fractional or non-finite numbers are malformed."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InvalidParameterError(
        f"malformed solve parameter {name!r}: expected an integer, got {value!r}"
    )


def _as_finite(name: str, value) -> float:
    """A finite JSON number; bools, text, NaN and infinities are malformed."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidParameterError(
        f"malformed solve parameter {name!r}: expected a finite number, got {value!r}"
    )


def normalize_params(
    body: dict, *, defaults: dict | None = None, n: int | None = None
) -> dict:
    """Validate and canonicalize a solve request's parameters.

    Unknown keys are rejected (a typo'd parameter silently falling back
    to a default would cache the wrong identity); the result is a flat
    JSON-safe dict usable directly as the cache-key payload. Counts and
    the seed must be integers and ``epsilon``/``fallback_slack`` finite
    numbers — never truncated or coerced from text — and each value must
    pass the check its solver would run, so a bad request is refused at
    submit rather than failing as a job. ``n`` (the instance's point
    count) adds ``1 <= k <= n`` and refuses an ``epsilon`` that every
    instance the request can build would refuse: for
    ``kmedian_lagrangian`` one whose primal–dual schedule is too long
    (:func:`~repro.core.primal_dual.check_schedule`), for ``kmedian``
    and ``kmeans`` one whose §7 round cap overflows a float
    (:func:`~repro.core.local_search.swap_round_cap`).
    """
    merged = dict(_PARAM_DEFAULTS)
    if defaults:
        merged.update(defaults)
    if "k" not in body:
        raise InvalidParameterError("solve request requires 'k'")
    allowed = set(merged) | {"k"}
    unknown = set(body) - allowed
    if unknown:
        raise InvalidParameterError(
            f"unknown solve parameter(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    merged.update(body)
    params = {
        "k": _as_int("k", merged["k"]),
        "solver": str(merged["solver"]),
        "shards": _as_int("shards", merged["shards"]),
        "coreset_size": (
            None
            if merged["coreset_size"] is None
            else _as_int("coreset_size", merged["coreset_size"])
        ),
        "neighbors": _as_int("neighbors", merged["neighbors"]),
        "epsilon": _as_finite("epsilon", merged["epsilon"]),
        "seed": _as_int("seed", merged["seed"]),
        "fallback_slack": _as_finite("fallback_slack", merged["fallback_slack"]),
    }
    if params["solver"] not in _SOLVERS:
        raise InvalidParameterError(
            f"unknown solver {params['solver']!r}; expected one of {sorted(_SOLVERS)}"
        )
    for name in ("k", "shards", "neighbors"):
        check_positive_int(params[name], name=name)
    if params["coreset_size"] is not None:
        check_positive_int(params["coreset_size"], name="coreset_size")
    if params["seed"] < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {params['seed']}")
    if params["solver"] in _EPSILON_UPPER:
        check_epsilon(params["epsilon"], upper=_EPSILON_UPPER[params["solver"]])
    check_nonnegative(params["fallback_slack"], name="fallback_slack")
    if n is not None:
        check_k(params["k"], n)
        if params["solver"] == "kmedian_lagrangian":
            # Each probe runs the §5 primal–dual on the merged kNN
            # instance: at most n points, each with at most n and (the
            # graph is symmetrized) on average 2·neighbors candidates.
            check_schedule(params["epsilon"], n * min(n, 2 * params["neighbors"]))
        elif params["solver"] in ("kmedian", "kmeans"):
            # The §7 round cap is evaluated on the largest instance the
            # request can build: n points, which a one-shard job solves
            # directly. An epsilon that overflows the cap there is
            # refused, even if smaller shards would not overflow.
            swap_round_cap(n, params["k"], params["epsilon"], params["solver"])
    return params


@dataclass
class Job:
    """One accepted solve request and its terminal payload."""

    job_id: str
    instance_id: str
    key: str
    params: dict
    status: str = "queued"
    result: dict | None = None
    error: str | None = None
    cached: bool = False
    coalesced: bool = False
    #: The request trace id the job was submitted under (None when the
    #: submit carried none) — the key that joins a polled job to its
    #: spans in a trace file (``GET /trace/<job_id>``).
    trace_id: str | None = None
    submitted_s: float = field(default_factory=time.perf_counter)
    started_s: float | None = None
    finished_s: float | None = None

    def to_json(self) -> dict:
        out = {
            "job_id": self.job_id,
            "instance_id": self.instance_id,
            "status": self.status,
            "params": self.params,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.finished_s is not None:
            out["wall_s"] = self.finished_s - self.submitted_s
        return out


class JobTable:
    """Thread-safe registry of every job plus the in-flight dedup index."""

    def __init__(self):
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}
        self._counter = 0
        self._lock = threading.Lock()

    def create(
        self, instance_id: str, params: dict, *, trace_id: str | None = None
    ) -> "tuple[Job, bool]":
        """Register a job for ``(instance, params)``.

        Returns ``(job, fresh)``: when an identical request is already
        in flight, the existing job rides again (``fresh=False``,
        ``coalesced=True`` on the caller's view, and the job keeps the
        *original* submitter's trace id — the trace belongs to the
        request that actually solves) — one solve serves every
        concurrent identical client.
        """
        key = result_key(instance_id, params)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                job = self._jobs[existing]
                if job.status in ("queued", "running"):
                    return job, False
            self._counter += 1
            job = Job(
                job_id=f"job-{self._counter:06d}",
                instance_id=instance_id,
                key=key,
                params=params,
                trace_id=trace_id,
            )
            self._jobs[job.job_id] = job
            self._inflight[key] = job.job_id
        log = current_log()
        if log.enabled:
            log.event(
                "job.created", job_id=job.job_id, instance_id=instance_id,
                k=params.get("k"), seed=params.get("seed"),
            )
        return job, True

    def add_completed(
        self, instance_id: str, params: dict, result: dict,
        *, trace_id: str | None = None,
    ) -> Job:
        """Register a pre-completed job (a result-cache hit) so polling
        works uniformly whether the answer was solved or served."""
        with self._lock:
            self._counter += 1
            job = Job(
                job_id=f"job-{self._counter:06d}",
                instance_id=instance_id,
                key=result_key(instance_id, params),
                params=params,
                status="done",
                result=result,
                cached=True,
                trace_id=trace_id,
            )
            job.finished_s = time.perf_counter()
            self._jobs[job.job_id] = job
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def finish(self, job: Job, *, result: dict | None = None, error: str | None = None):
        with self._lock:
            job.finished_s = time.perf_counter()
            if error is not None:
                job.status = "failed"
                job.error = error
            else:
                job.status = "done"
                job.result = result
            self._inflight.pop(job.key, None)
        log = current_log()
        if log.enabled:
            log.event(
                "job.finished",
                job_id=job.job_id,
                status=job.status,
                wall_s=job.finished_s - job.submitted_s,
                error=error,
                trace_id=job.trace_id,
            )

    def fail_queued(self, reason: str) -> int:
        """Terminal sweep at shutdown: jobs still queued when the server
        stops are failed loudly instead of left hanging for pollers."""
        failed = 0
        with self._lock:
            for job in self._jobs.values():
                if job.status == "queued":
                    job.status = "failed"
                    job.error = reason
                    job.finished_s = time.perf_counter()
                    self._inflight.pop(job.key, None)
                    failed += 1
        return failed

    def counts(self) -> dict:
        with self._lock:
            out = {"total": len(self._jobs)}
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
            return out


class SolveRunner:
    """Blocking per-job solver executed on the server's worker threads.

    Every job builds a fresh :class:`PramMachine` (own ledger, seeded
    from the request) over the server's *shared* backend — one worker
    pool serves every request, which is the whole point of the tier.
    ``shard_and_solve`` runs under the supervised-retry contract so a
    crashed solve retries with byte-identical recovery; the optional
    ``fault_plan`` is the same deterministic injection hook CI uses
    (``REPRO_FAULT_PLAN`` is consulted when it is ``None``).
    """

    def __init__(
        self,
        backend,
        *,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.backend = backend
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
        )
        self.fault_plan = fault_plan

    def solve(self, instance: StoredInstance, params: dict) -> dict:
        p = dict(params)
        n = instance.points.shape[0]
        shards = min(p["shards"], n)
        machine = PramMachine(backend=self.backend, seed=p["seed"])
        t0 = time.perf_counter()
        sol = shard_and_solve(
            instance.points,
            p["k"],
            shards=shards,
            coreset_size=p["coreset_size"],
            solver=p["solver"],
            neighbors=p["neighbors"],
            fallback_slack=p["fallback_slack"],
            epsilon=p["epsilon"],
            weights=instance.weights,
            seed=p["seed"],
            machine=machine,
            on_shard_failure="retry",
            retry_policy=self.retry_policy,
            fault_plan=self.fault_plan,
        )
        wall = time.perf_counter() - t0
        return {
            "centers": [int(c) for c in np.sort(sol.centers)],
            "cost": float(sol.cost),
            "true_cost": float(sol.true_cost),
            "objective": sol.objective,
            "shards": int(sol.shards),
            "movement": float(sol.movement),
            "degraded": bool(sol.degraded),
            "covered_weight_fraction": float(sol.covered_weight_fraction),
            "solve_s": wall,
        }
