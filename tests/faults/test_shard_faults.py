"""The fault matrix over ``shard_and_solve``:

{thread, process} × {crash, timeout, transient-raise, corrupt-result}
× {raise, retry, drop} — plus the headline determinism property: a
recovered run is byte-identical to one that never failed, and a
degraded run carries a valid widened certificate.
"""

import os
import time

import numpy as np
import pytest

from repro.analysis import DegradedCoresetBound
from repro.errors import InvalidParameterError, ShardFailedError
from repro.faults import NO_RETRY, FaultPlan, RetryPolicy
from repro.pram.backends import ProcessBackend, ThreadBackend
from repro.pram.machine import PramMachine
from repro.shard import shard_and_solve

SEED = 31
K = 4
SHARDS = 4
TARGET = 1  # the shard every fault hits

_rng = np.random.default_rng(5)
POINTS = _rng.normal(size=(1200, 2)) + _rng.integers(0, K, size=(1200, 1)) * 5.0

SOLVE_KW = dict(
    shards=SHARDS, coreset_size=32, neighbors=16, seed=SEED, solver="kmedian"
)


def _backend(name):
    return ThreadBackend(3) if name == "thread" else ProcessBackend(3)


def _solve(backend, **kw):
    machine = PramMachine(backend=backend, seed=SEED)
    return shard_and_solve(POINTS, K, machine=machine, **SOLVE_KW, **kw)


def _plan(kind, *, every):
    return FaultPlan.single(
        kind,
        TARGET,
        attempt=None if every else 1,
        duration=0.8 if kind == "sleep" else 0.0,
    )


def _policy(kind, *, retries):
    return RetryPolicy(
        max_attempts=3 if retries else 1,
        base_delay=0.0,
        jitter=0.0,
        timeout=0.25 if kind == "sleep" else None,
    )


_BASELINE: dict = {}


def _baseline(backend_name):
    if backend_name not in _BASELINE:
        with _backend(backend_name) as b:
            _BASELINE[backend_name] = _solve(b)
    return _BASELINE[backend_name]


def _assert_byte_identical(sol, base):
    assert np.array_equal(sol.centers, base.centers)
    assert np.array_equal(sol.merged_centers, base.merged_centers)
    assert sol.cost == base.cost
    assert sol.true_cost == base.true_cost
    assert sol.movement == base.movement
    assert np.array_equal(sol.coreset_sizes, base.coreset_sizes)
    assert not sol.degraded and sol.failures == []


def _assert_valid_degradation(sol, base):
    assert sol.degraded
    assert sol.failed_shards.tolist() == [TARGET]
    assert 0.0 < sol.covered_weight_fraction < 1.0
    assert sol.coreset_sizes[TARGET] == 0
    assert len(sol.failures) >= 1
    assert isinstance(sol.bound, DegradedCoresetBound)
    assert sol.bound.dropped_movement > 0.0
    assert sol.bound.covered_weight_fraction == sol.covered_weight_fraction
    # widened: the additive term exceeds the surviving-movement one
    assert sol.bound.additive_term > (sol.bound.solver_ratio + 1.0) * sol.movement
    # the verifiable triangle-inequality sandwich over the full input
    rhs = (
        sol.extra["merged_cost_exact"]
        + sol.movement
        + sol.extra["dropped_movement"]
        + sol.extra["dropped_rep_service"]
    )
    assert sol.true_cost <= rhs * (1.0 + 1e-9)
    # degrading can only lose demand: it never beats the clean optimum
    # by covering less, so the reported true cost stays comparable
    assert sol.true_cost >= base.true_cost * 0.5


@pytest.mark.parametrize("backend_name", ["thread", "process"])
@pytest.mark.parametrize("kind", ["crash", "sleep", "raise", "corrupt"])
class TestFaultMatrix:
    def test_raise_mode_surfaces_shard_failure(self, backend_name, kind):
        with _backend(backend_name) as b:
            with pytest.raises(ShardFailedError) as ei:
                _solve(
                    b,
                    on_shard_failure="raise",
                    fault_plan=_plan(kind, every=True),
                    retry_policy=_policy(kind, retries=False),
                )
        assert ei.value.__cause__ is not None

    def test_retry_mode_recovers_byte_identical(self, backend_name, kind):
        with _backend(backend_name) as b:
            sol = _solve(
                b,
                on_shard_failure="retry",
                fault_plan=_plan(kind, every=False),  # attempt 1 only
                retry_policy=_policy(kind, retries=True),
            )
        _assert_byte_identical(sol, _baseline(backend_name))

    def test_drop_mode_degrades_with_valid_certificate(self, backend_name, kind):
        with _backend(backend_name) as b:
            sol = _solve(
                b,
                on_shard_failure="drop",
                fault_plan=_plan(kind, every=True),
                retry_policy=_policy(kind, retries=False),
            )
        _assert_valid_degradation(sol, _baseline(backend_name))


class TestSupervisedCleanRuns:
    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_zero_faults_byte_identical_to_unsupervised(self, backend_name):
        with _backend(backend_name) as b:
            sol = _solve(b, on_shard_failure="retry")
        _assert_byte_identical(sol, _baseline(backend_name))


class TestDegradationProperties:
    def test_drop_deterministic_across_backends(self):
        """Dropping the same shard yields byte-identical degraded
        results on thread and process pools — surviving coresets are
        seed-determined, never scheduling-determined."""
        sols = []
        for name in ("thread", "process"):
            with _backend(name) as b:
                sols.append(
                    _solve(
                        b,
                        on_shard_failure="drop",
                        fault_plan=_plan("crash", every=True),
                        retry_policy=NO_RETRY,
                    )
                )
        a, b_ = sols
        assert np.array_equal(a.centers, b_.centers)
        assert a.true_cost == b_.true_cost
        assert a.covered_weight_fraction == b_.covered_weight_fraction

    def test_coverage_floor_refuses_to_degrade(self):
        plan = FaultPlan(
            specs=tuple(
                FaultPlan.single("raise", s, attempt=None).specs[0] for s in (0, 1, 2)
            )
        )
        with _backend("thread") as b:
            with pytest.raises(ShardFailedError, match="coverage_floor"):
                _solve(
                    b,
                    on_shard_failure="drop",
                    fault_plan=plan,
                    retry_policy=NO_RETRY,
                    coverage_floor=0.9,
                )

    def test_all_shards_failed_raises(self):
        plan = FaultPlan(
            specs=tuple(
                FaultPlan.single("raise", s, attempt=None).specs[0]
                for s in range(SHARDS)
            )
        )
        with _backend("thread") as b:
            with pytest.raises(ShardFailedError, match="every shard"):
                _solve(
                    b,
                    on_shard_failure="drop",
                    fault_plan=plan,
                    retry_policy=NO_RETRY,
                    coverage_floor=0.01,
                )

    def test_env_fault_plan_activates_supervision(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", f"raise@{TARGET}#*")
        with _backend("thread") as b:
            sol = _solve(b, on_shard_failure="drop", retry_policy=NO_RETRY)
        assert sol.degraded and sol.failed_shards.tolist() == [TARGET]

    def test_weighted_input_coverage_accounting(self):
        w = np.ones(POINTS.shape[0])
        with _backend("thread") as b:
            sol = _solve(
                b,
                weights=w * 2.0,
                on_shard_failure="drop",
                fault_plan=_plan("raise", every=True),
                retry_policy=NO_RETRY,
            )
        assert sol.degraded
        # uniform weights: covered fraction equals covered point fraction
        covered_points = sol.shard_sizes.sum() - sol.shard_sizes[TARGET]
        assert sol.covered_weight_fraction == pytest.approx(
            covered_points / sol.shard_sizes.sum()
        )


class TestParameterValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidParameterError, match="on_shard_failure"):
            shard_and_solve(POINTS, K, on_shard_failure="panic", **SOLVE_KW)

    @pytest.mark.parametrize("floor", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_coverage_floor_rejected(self, floor):
        with pytest.raises(InvalidParameterError, match="coverage_floor"):
            shard_and_solve(POINTS, K, coverage_floor=floor, **SOLVE_KW)

    def test_bad_retry_policy_rejected(self):
        with pytest.raises(InvalidParameterError, match="retry_policy"):
            shard_and_solve(POINTS, K, retry_policy="three", **SOLVE_KW)


@pytest.mark.skipif(
    os.environ.get("REPRO_SLOW_FAULTS") != "1",
    reason="250k recovery run; set REPRO_SLOW_FAULTS=1 (CI fault leg)",
)
class TestRecoveryAtScale:
    """The acceptance run: 250k points, process backend, one injected
    crash mid-build."""

    N = 250_000

    def _points(self):
        rng = np.random.default_rng(17)
        return rng.normal(size=(self.N, 3)) + rng.integers(
            0, 8, size=(self.N, 1)
        ) * 6.0

    def _solve(self, backend, **kw):
        machine = PramMachine(backend=backend, seed=SEED)
        return shard_and_solve(
            self._points(), 8, machine=machine, shards=8,
            coreset_size=256, seed=SEED, solver="kmedian", **kw,
        )

    def test_crash_recovery_and_degradation(self):
        with ProcessBackend(4) as b:
            t0 = time.perf_counter()
            base = self._solve(b)
            base_wall = time.perf_counter() - t0

            plan = FaultPlan.single("crash", 2)
            recovered = self._solve(
                b, on_shard_failure="retry", fault_plan=plan,
                retry_policy=RetryPolicy(base_delay=0.0, jitter=0.0),
            )
            assert np.array_equal(recovered.centers, base.centers)
            assert recovered.true_cost == base.true_cost
            assert not recovered.degraded

            t0 = time.perf_counter()
            dropped = self._solve(
                b, on_shard_failure="drop",
                fault_plan=FaultPlan.single("crash", 2, attempt=None),
                retry_policy=NO_RETRY,
            )
            drop_wall = time.perf_counter() - t0
            assert dropped.degraded
            assert dropped.covered_weight_fraction < 1.0
            rhs = (
                dropped.extra["merged_cost_exact"]
                + dropped.movement
                + dropped.extra["dropped_movement"]
                + dropped.extra["dropped_rep_service"]
            )
            assert dropped.true_cost <= rhs * (1.0 + 1e-9)
            assert drop_wall < 2.0 * base_wall + 1.0
