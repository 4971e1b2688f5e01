"""Fault-tolerant execution walkthrough — surviving crashes mid-solve.

Four acts:

1. *Supervision*: a transient fault injected into a supervised batch
   is retried with deterministic backoff and never reaches the caller.
2. *Byte-identical recovery*: a worker crash mid-coreset-build is
   attributed, the shard is retried on its original seed, and the
   recovered solution equals the never-failed one byte for byte.
3. *Certified degradation*: when a shard is unrecoverable,
   ``on_shard_failure="drop"`` proceeds on the survivors, reports the
   covered demand fraction, and widens the certificate by the dropped
   movement — with a verifiable triangle-inequality sandwich.
4. *The floor*: losing too much demand weight is refused loudly.

Run:  python examples/fault_tolerance.py          (~30 seconds)
"""

import numpy as np

from repro import (
    NO_RETRY,
    FaultPlan,
    RetryPolicy,
    ShardFailedError,
    Supervisor,
    shard_and_solve,
)
from repro.pram.backends import ProcessBackend
from repro.pram.machine import PramMachine

SEED = 7
K = 8
SHARDS = 8
rng = np.random.default_rng(SEED)
POINTS = rng.normal(size=(60_000, 2)) + rng.integers(0, K, size=(60_000, 1)) * 6.0

SOLVE_KW = dict(
    shards=SHARDS, coreset_size=128, neighbors=32, seed=SEED, solver="kmedian"
)


def _square(x):
    return x * x


def act_1_supervision(backend):
    print("— act 1: transient faults are retried, not raised —")
    plan = FaultPlan.single("raise", 3)  # task 3 fails on attempt 1 only
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.5)
    results, failures = Supervisor(backend, policy, plan).submit_batch(
        _square, list(range(8))
    )
    assert results == [x * x for x in range(8)] and failures == []
    print("  8/8 tasks succeeded; the injected fault cost one retry, "
          "with seeded jitter (no wall-clock entropy)")


def _solve(backend, **kw):
    machine = PramMachine(backend=backend, seed=SEED)
    return shard_and_solve(POINTS, K, machine=machine, **SOLVE_KW, **kw)


def act_2_recovery(backend, base):
    print("\n— act 2: crash recovery is byte-identical —")
    recovered = _solve(
        backend,
        on_shard_failure="retry",
        fault_plan=FaultPlan.single("crash", SHARDS // 2),  # attempt 1 only
        retry_policy=RetryPolicy(base_delay=0.0, jitter=0.0),
    )
    assert np.array_equal(recovered.centers, base.centers)
    assert recovered.true_cost == base.true_cost
    assert not recovered.degraded
    print(f"  worker killed mid-build of shard {SHARDS // 2}; retried on its "
          "original seed — same centers, same cost, same certificate")


def act_3_degradation(backend, base):
    print("\n— act 3: an unrecoverable shard degrades with a certificate —")
    sol = _solve(
        backend,
        on_shard_failure="drop",
        fault_plan=FaultPlan.single("crash", SHARDS // 2, attempt=None),
        retry_policy=NO_RETRY,
    )
    assert sol.degraded and sol.failed_shards.tolist() == [SHARDS // 2]
    print(f"  dropped shards {sol.failed_shards.tolist()}: "
          f"{sol.covered_weight_fraction:.1%} of demand weight survives")
    print(f"  clean bound:    {base.bound.statement}")
    print(f"  degraded bound: {sol.bound.statement}")
    rhs = (
        sol.extra["merged_cost_exact"] + sol.movement
        + sol.extra["dropped_movement"] + sol.extra["dropped_rep_service"]
    )
    assert sol.true_cost <= rhs * (1.0 + 1e-9)
    print(f"  sandwich holds: true_cost {sol.true_cost:.1f} ≤ {rhs:.1f} "
          "(merged cost + movement + dropped charges)")


def act_4_floor(backend):
    print("\n— act 4: losing too much weight is refused —")
    plan = FaultPlan(specs=tuple(
        FaultPlan.single("raise", s, attempt=None).specs[0]
        for s in range(SHARDS - 1)
    ))
    try:
        _solve(backend, on_shard_failure="drop", fault_plan=plan,
               retry_policy=NO_RETRY, coverage_floor=0.5)
    except ShardFailedError as exc:
        print(f"  ShardFailedError: {exc}")
    else:
        raise AssertionError("expected the coverage floor to refuse")


def main():
    with ProcessBackend(4) as backend:
        act_1_supervision(backend)
        base = _solve(backend)
        act_2_recovery(backend, base)
        act_3_degradation(backend, base)
        act_4_floor(backend)
    print("\nall acts passed")


if __name__ == "__main__":
    main()
