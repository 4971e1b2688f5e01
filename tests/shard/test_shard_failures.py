"""The default coreset stage runs under the one batch executor.

``shard_and_solve`` with ``on_shard_failure="raise"`` and no policy
sends its coreset builds through the fault Supervisor (fail-fast), like
every other mode: a broken worker pool is respawned, never bypassed by
running the batch in the driver, and a shard whose build fails — a
store block deleted after the store was opened — surfaces as
:class:`ShardFailedError` with the original error in its cause chain.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.errors import ShardFailedError
from repro.obs import trace_to
from repro.obs.report import load_trace
from repro.pram.backends import ProcessBackend
from repro.shard import ShardStore, make_partition, shard_and_solve

_rng = np.random.default_rng(11)
POINTS = _rng.normal(size=(3000, 2)) + _rng.integers(0, 4, size=(3000, 1)) * 5.0
KW = dict(shards=4, coreset_size=48, neighbors=16, solver="kmedian", seed=5)


def _exit_worker(_):
    os._exit(1)


def _cause_chain(exc) -> list:
    chain = []
    while exc is not None:
        chain.append(exc)
        exc = exc.__cause__
    return chain


def test_broken_pool_is_respawned_not_bypassed(tmp_path):
    """One worker crash outside any batch breaks the pool. The next
    default-mode solve must respawn it and run its coreset builds on
    worker processes, returning the answer a fresh backend returns."""
    with ProcessBackend(2) as fresh:
        want = shard_and_solve(POINTS, 4, backend=fresh, **KW)
    path = tmp_path / "broken.jsonl"
    with ProcessBackend(2) as b:
        shard_and_solve(POINTS[:600], 4, backend=b, **KW)  # warm the pool
        with pytest.raises(BrokenExecutor):
            b._pool.submit(_exit_worker, None).result(timeout=60)
        with trace_to(path) as tracer:
            got = shard_and_solve(POINTS, 4, backend=b, **KW)
            tracer.flush()
    assert np.array_equal(got.centers, want.centers)
    assert got.cost == want.cost and got.true_cost == want.true_cost
    assert got.movement == want.movement

    events = load_trace(path)
    lane_names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    exec_lanes = [
        e["tid"] for e in events if e.get("cat") == "backend" and e["name"] == "exec"
    ]
    assert len(exec_lanes) == KW["shards"]
    assert all(lane_names[lane].startswith("worker-") for lane in exec_lanes), [
        lane_names[lane] for lane in exec_lanes
    ]


def test_missing_block_raises_shard_failed(tmp_path):
    """A block deleted from an already-open store is a failed shard:
    ``ShardFailedError``, with the ``FileNotFoundError`` as a cause."""
    labels = make_partition(POINTS, 4, "locality", seed=0)
    ShardStore.create(str(tmp_path / "st"), POINTS, labels, 4)
    store = ShardStore.open(str(tmp_path / "st"))
    os.remove(os.path.join(store.directory, "shard_00001.points.npy"))
    with pytest.raises(ShardFailedError, match="shards \\[1\\]") as ei:
        shard_and_solve(store, 4)
    assert any(isinstance(e, FileNotFoundError) for e in _cause_chain(ei.value))
