"""Out-of-core walkthrough — the same bits, wherever they live.

Three acts, one invariant each:

1. *The shard store*: partitioned blocks spilled to disk as raw
   ``.npy`` files and streamed back as memmaps produce byte-identical
   coresets, centers, and certificates to the resident run.
2. *Memory-mapped archives*: ``save_instance(..., compressed=False)``
   plus ``load_instance(..., mmap_mode="r")`` feed a solver straight
   off the file — seeded output identical to the eager load.
3. *Zero-copy process transport*: a supervised batch on a
   ``ProcessBackend`` (``supervised_submit_batch``) ships large arrays
   by shared-memory name instead of pickling them; results match the
   in-process loop exactly.

Run:  python examples/out_of_core.py          (~30 seconds)
      python examples/out_of_core.py --big    (adds a 2M-point spill)
"""

import os
import sys
import tempfile
import time

import numpy as np

from repro import load_instance, parallel_kmedian, save_instance, shard_and_solve
from repro.faults import NO_RETRY, supervised_submit_batch
from repro.metrics.generators import knn_clustering_instance
from repro.pram.backends import ProcessBackend, SerialBackend
from repro.shard import ShardStore


def _blobs(n, seed=0, clusters=32):
    rng = np.random.default_rng(seed)
    centers = rng.random((clusters, 2))
    return centers[rng.integers(0, clusters, n)] + rng.normal(
        scale=0.02, size=(n, 2)
    )


def act_1_shard_store(tmp):
    print("— act 1: the shard store is the resident pipeline, on disk —")
    points = _blobs(60_000, seed=0)
    kw = dict(shards=8, coreset_size=128, neighbors=32, solver="kmedian", seed=3)

    resident = shard_and_solve(points, 16, **kw)
    spilled = shard_and_solve(
        points, 16, spill_dir=os.path.join(tmp, "spill"), **kw
    )
    assert np.array_equal(resident.centers, spilled.centers)
    assert resident.true_cost == spilled.true_cost
    print(f"  spill_dir run: identical centers, true cost {spilled.true_cost:.2f}")

    store = ShardStore.open(os.path.join(tmp, "spill"))
    reopened = shard_and_solve(store, 16, **{k: v for k, v in kw.items() if k != "shards"})
    assert np.array_equal(resident.centers, reopened.centers)
    blocks = sum(
        os.path.getsize(os.path.join(store.directory, f))
        for f in os.listdir(store.directory)
    )
    print(
        f"  reopened store ({store.shards} shards, {blocks / 2**20:.1f} MiB of "
        "blocks): still byte-identical"
    )


def act_2_mmap_archives(tmp):
    print("\n— act 2: solvers fed straight off the file —")
    inst = knn_clustering_instance(2000, 25, neighbors=64, seed=1)
    path = os.path.join(tmp, "instance.npz")
    save_instance(path, inst, compressed=False)

    eager = parallel_kmedian(load_instance(path), seed=5)
    mapped_inst = load_instance(path, mmap_mode="r")
    mapped = parallel_kmedian(mapped_inst, seed=5)
    assert np.array_equal(eager.centers, mapped.centers)
    assert isinstance(mapped_inst.data.base, np.memmap)
    print(
        f"  mmap_mode='r': CSR arrays are file mappings, seeded solve "
        f"byte-identical (cost {mapped.cost:.2f})"
    )


def _block_cost(item):
    pts, centers = item
    d = np.linalg.norm(np.asarray(pts)[:, None] - centers[None], axis=2)
    return float(d.min(axis=1).sum())


def act_3_zero_copy():
    print("\n— act 3: zero-copy process batches —")
    rng = np.random.default_rng(2)
    blocks = [rng.normal(size=(50_000, 2)) for _ in range(6)]
    centers = rng.normal(size=(8, 2))
    items = [(b, centers) for b in blocks]

    t0 = time.perf_counter()
    serial, _ = supervised_submit_batch(
        SerialBackend(), _block_cost, items, policy=NO_RETRY
    )
    serial_s = time.perf_counter() - t0
    with ProcessBackend(2) as backend:
        t0 = time.perf_counter()
        zero_copy, failures = supervised_submit_batch(
            backend, _block_cost, items, policy=NO_RETRY
        )
        zero_copy_s = time.perf_counter() - t0
    assert failures == [] and zero_copy == serial
    print(
        f"  6×50k-point blocks: in-process {serial_s:.2f}s vs "
        f"zero-copy pool {zero_copy_s:.2f}s — identical floats out"
    )


def act_4_scale(tmp):
    print("\n— act 4 (--big): 2M points through the store —")
    points = _blobs(2_000_000, seed=9, clusters=64)
    t0 = time.perf_counter()
    sol = shard_and_solve(
        points, 32, shards=16, coreset_size=512, neighbors=64,
        solver="kmedian", seed=0, spill_dir=os.path.join(tmp, "big"),
    )
    print(
        f"  2M points -> {sol.centers.size} centers in "
        f"{time.perf_counter() - t0:.1f}s, true cost {sol.true_cost:.1f}; "
        f"blocks on disk, driver streamed one shard at a time"
    )


def main():
    with tempfile.TemporaryDirectory(prefix="repro-out-of-core-") as tmp:
        act_1_shard_store(tmp)
        act_2_mmap_archives(tmp)
        act_3_zero_copy()
        if "--big" in sys.argv[1:]:
            act_4_scale(tmp)
    print("\nevery act: identical bits — the storage and transport layers are invisible to results")


if __name__ == "__main__":
    main()
