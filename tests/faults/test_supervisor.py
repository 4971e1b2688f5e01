"""Supervisor: retry/timeout/backoff/crash recovery over real pools."""

import time

import numpy as np
import pytest

from repro.errors import (
    ExecutionError,
    InvalidParameterError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.faults import (
    NO_RETRY,
    FaultPlan,
    RetryPolicy,
    Supervisor,
    TaskFailure,
    supervised_submit_batch,
)
from repro.pram.backends import ProcessBackend, SerialBackend, ThreadBackend

FAST = RetryPolicy(base_delay=0.0, jitter=0.0)


def _square(x):
    return x * x


def _sleepy(x):
    time.sleep(x)
    return x


@pytest.fixture(params=["serial", "thread", "process"])
def backend(request):
    b = {
        "serial": SerialBackend,
        "thread": lambda: ThreadBackend(2),
        "process": lambda: ProcessBackend(2),
    }[request.param]
    b = b() if request.param != "serial" else SerialBackend()
    yield b
    b.close()


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(max_attempts=0),
            dict(max_attempts=-2),
            dict(base_delay=-0.1),
            dict(jitter=-1.0),
            dict(backoff=0.5),
            dict(timeout=0.0),
            dict(timeout=-1.0),
            dict(timeout=float("nan")),
            dict(retryable_exceptions=("ValueError",)),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(**kw)

    def test_delay_grows_and_is_deterministic(self):
        p = RetryPolicy(base_delay=0.1, backoff=2.0, jitter=0.5)
        d1, d2 = p.delay(1, index=3), p.delay(2, index=3)
        assert 0.1 <= d1 <= 0.15
        assert 0.2 <= d2 <= 0.3
        assert d1 == p.delay(1, index=3)  # no wall-clock entropy

    def test_no_retry_constant(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.delay(1) == 0.0


class TestSupervisorBasics:
    def test_clean_batch_matches_serial(self, backend):
        results, failures = Supervisor(backend, FAST).submit_batch(
            _square, list(range(8))
        )
        assert results == [x * x for x in range(8)]
        assert failures == []

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            Supervisor(SerialBackend(), policy="retry-lots")
        with pytest.raises(InvalidParameterError):
            Supervisor(SerialBackend(), fault_plan="crash@1")

    def test_unpicklable_fn_runs_inline_on_process_pool(self):
        seen = []

        def closure(x):
            seen.append(x)
            return x + 1

        with ProcessBackend(2) as b:
            results, failures = Supervisor(b, FAST).submit_batch(closure, [1, 2])
        assert results == [2, 3] and failures == [] and seen == [1, 2]


class TestTransientFaults:
    def test_raise_retried_to_success(self, backend):
        plan = FaultPlan.single("raise", 2)  # attempt 1 only
        results, failures = Supervisor(backend, FAST, plan).submit_batch(
            _square, list(range(5))
        )
        assert results == [x * x for x in range(5)]
        assert failures == []

    def test_exhausted_budget_yields_failure_record(self, backend):
        plan = FaultPlan.single("raise", 1, attempt=None)  # every attempt
        results, failures = Supervisor(backend, FAST, plan).submit_batch(
            _square, [5, 6, 7]
        )
        assert results == [25, None, 49]
        (f,) = failures
        assert isinstance(f, TaskFailure)
        assert f.index == 1
        assert f.attempts == FAST.max_attempts
        assert isinstance(f.error, ExecutionError)
        assert f.error.__cause__ is not None
        assert f.duration >= 0.0

    def test_non_retryable_exception_fails_fast(self, backend):
        policy = RetryPolicy(base_delay=0.0, jitter=0.0, retryable_exceptions=(KeyError,))
        plan = FaultPlan.single("raise", 0, attempt=None)
        _, failures = Supervisor(backend, policy, plan).submit_batch(_square, [1, 2])
        (f,) = failures
        assert f.attempts == 1  # InjectedFaultError is not a KeyError


class TestCrashFaults:
    @pytest.mark.parametrize("make", [lambda: ThreadBackend(2),
                                      lambda: ProcessBackend(2)])
    def test_crash_retried_to_success(self, make):
        with make() as b:
            results, failures = Supervisor(b, FAST, FaultPlan.single("crash", 1)).submit_batch(
                _square, list(range(6))
            )
        assert results == [x * x for x in range(6)]
        assert failures == []

    def test_process_crash_attributed_to_one_task(self):
        """Pool breakage poisons every future; the sentinel flags must
        pin the failure on the crashed task alone — collateral tasks
        rerun for free even under NO_RETRY."""
        with ProcessBackend(2) as b:
            results, failures = Supervisor(
                b, NO_RETRY, FaultPlan.single("crash", 1, attempt=None)
            ).submit_batch(_square, list(range(8)))
            assert [i for i, r in enumerate(results) if r is None] == [1]
            (f,) = failures
            assert isinstance(f.error, WorkerCrashError)
            # the pool was respawned: the backend still works
            assert Supervisor(b, NO_RETRY).submit_batch(_square, [2, 3]) == ([4, 9], [])

    def test_inline_crash_is_simulated(self):
        results, failures = Supervisor(
            SerialBackend(), NO_RETRY, FaultPlan.single("crash", 0, attempt=None)
        ).submit_batch(_square, [3, 4])
        assert results == [None, 16]
        assert isinstance(failures[0].error, WorkerCrashError)


class TestTimeouts:
    def test_process_timeout_classified_and_pool_respawned(self):
        policy = RetryPolicy(
            max_attempts=1, base_delay=0.0, jitter=0.0, timeout=0.2
        )
        with ProcessBackend(2) as b:
            t0 = time.perf_counter()
            results, failures = Supervisor(
                b, policy, FaultPlan.single("sleep", 0, attempt=None, duration=2.0)
            ).submit_batch(_sleepy, [0.0, 0.01])
            wall = time.perf_counter() - t0
            assert results[0] is None and results[1] == 0.01
            assert isinstance(failures[0].error, TaskTimeoutError)
            assert wall < 1.5  # did not wait out the 2s sleep
            assert Supervisor(b, NO_RETRY).submit_batch(_square, [5]) == ([25], [])

    def test_inline_timeout_flagged_post_hoc(self):
        policy = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0, timeout=0.05)
        results, failures = Supervisor(SerialBackend(), policy).submit_batch(
            _sleepy, [0.12]
        )
        assert results == [None]
        assert isinstance(failures[0].error, TaskTimeoutError)
        assert failures[0].duration >= 0.05


class TestValidation:
    def test_rejected_result_retries_then_succeeds(self, backend):
        plan = FaultPlan.single("corrupt", 0)  # attempt 1 only
        arrays = [np.full(3, float(i + 1)) for i in range(3)]

        def validate(index, value):
            if np.any(value <= 0):
                raise ValueError("negative result")

        results, failures = supervised_submit_batch(
            backend, _double, arrays, policy=FAST, fault_plan=plan, validate=validate
        )
        assert failures == []
        for i, r in enumerate(results):
            assert np.array_equal(r, arrays[i] * 2)

    def test_rejected_result_exhausts_budget(self, backend):
        plan = FaultPlan.single("corrupt", 1, attempt=None)

        def validate(index, value):
            if np.any(np.asarray(value) <= 0):
                raise ValueError("negative result")

        results, failures = supervised_submit_batch(
            backend, _double, [np.ones(2), np.ones(2)],
            policy=FAST, fault_plan=plan, validate=validate,
        )
        assert results[1] is None
        (f,) = failures
        assert "rejected result" in str(f.error)
        assert isinstance(f.error.__cause__, ValueError)


def _double(a):
    return a * 2
