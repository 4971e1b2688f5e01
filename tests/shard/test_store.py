"""Out-of-core shard store: layout, validation, and the byte-identity
parity suite — a pipeline run whose blocks live on disk must produce
bit-for-bit the same centers, costs, and certificates as the resident
run it spilled from.
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.faults import NO_RETRY, FaultPlan
from repro.pram.backends import ProcessBackend, ThreadBackend
from repro.pram.machine import PramMachine
from repro.shard import (
    STORE_VERSION,
    ShardStore,
    StoredShard,
    make_partition,
    partition_to_store,
    shard_and_solve,
    supervised_shard_coresets,
)

SEED = 17
K = 4
SHARDS = 4

_rng = np.random.default_rng(3)
POINTS = _rng.normal(size=(900, 2)) + _rng.integers(0, K, size=(900, 1)) * 4.0
LABELS = make_partition(POINTS, SHARDS, "locality", seed=SEED)
WEIGHTS = _rng.uniform(0.5, 2.0, POINTS.shape[0])

SOLVE_KW = dict(
    shards=SHARDS, coreset_size=32, neighbors=16, seed=SEED, solver="kmedian"
)


@pytest.fixture
def store(tmp_path):
    return ShardStore.create(str(tmp_path / "st"), POINTS, LABELS, SHARDS)


@pytest.fixture
def wstore(tmp_path):
    return ShardStore.create(
        str(tmp_path / "wst"), POINTS, LABELS, SHARDS, weights=WEIGHTS
    )


# -- layout and round-trip --------------------------------------------------


class TestCreateOpen:
    def test_blocks_match_resident_slices(self, store):
        assert store.n == POINTS.shape[0] and store.dim == 2
        assert not store.has_weights
        for s, pts, w, origin in store.iter_shards():
            idx = np.flatnonzero(LABELS == s)
            np.testing.assert_array_equal(np.asarray(pts), POINTS[idx])
            np.testing.assert_array_equal(np.asarray(origin), idx)
            assert w is None
            assert store.sizes[s] == idx.size
        assert store.sizes.sum() == store.n

    def test_weighted_blocks_and_totals(self, wstore):
        assert wstore.has_weights
        for s, _, w, origin in wstore.iter_shards():
            np.testing.assert_array_equal(np.asarray(w), WEIGHTS[np.asarray(origin)])
        assert wstore.total_weight == pytest.approx(
            sum(wstore.weight_totals), rel=0, abs=0
        )

    def test_reopen_round_trip(self, store):
        re = ShardStore.open(store.directory)
        assert re.shards == store.shards and re.n == store.n
        np.testing.assert_array_equal(re.sizes, store.sizes)
        a = store.load_shard(1)[0]
        b = re.load_shard(1)[0]
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_loads_are_readonly_memmaps(self, store):
        pts, _, origin = store.load_shard(0)
        assert isinstance(pts, np.memmap) and isinstance(origin, np.memmap)
        with pytest.raises(ValueError):
            pts[0, 0] = 99.0

    def test_eager_load_mode(self, store):
        pts, _, _ = store.load_shard(0, mmap_mode=None)
        assert isinstance(pts, np.ndarray) and not isinstance(pts, np.memmap)

    def test_stored_shard_ref_is_picklable(self, store):
        ref = store.shard_ref(2)
        assert isinstance(ref, StoredShard)
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        pts, _, origin = clone.load()
        np.testing.assert_array_equal(
            np.asarray(pts), POINTS[np.flatnonzero(LABELS == 2)]
        )
        assert pts.shape == (ref.size, ref.dim) and origin.shape == (ref.size,)

    def test_partition_to_store_matches_manual_create(self, tmp_path):
        st = partition_to_store(
            POINTS, SHARDS, str(tmp_path / "auto"), partition="locality", seed=SEED
        )
        for s in range(SHARDS):
            np.testing.assert_array_equal(
                np.asarray(st.load_shard(s)[0]),
                POINTS[np.flatnonzero(LABELS == s)],
            )

    def test_partition_to_store_charges_machine(self, tmp_path):
        m = PramMachine(seed=0)
        partition_to_store(
            POINTS, SHARDS, str(tmp_path / "ch"), seed=SEED, machine=m
        )
        assert m.ledger.work >= POINTS.shape[0]
        assert m.ledger.rounds["shard_partition"] == 1


class TestValidation:
    def test_create_rejects_bad_shapes(self, tmp_path):
        d = str(tmp_path / "bad")
        with pytest.raises(InvalidParameterError, match="non-empty"):
            ShardStore.create(d, np.empty((0, 2)), np.array([]), 1)
        with pytest.raises(InvalidParameterError, match="labels"):
            ShardStore.create(d, POINTS, LABELS[:-1], SHARDS)
        with pytest.raises(InvalidParameterError, match="shards must be >= 1"):
            ShardStore.create(d, POINTS, LABELS, 0)
        with pytest.raises(InvalidParameterError, match=r"lie in \[0"):
            ShardStore.create(d, POINTS, LABELS, 2)
        with pytest.raises(InvalidParameterError, match="strictly positive"):
            ShardStore.create(d, POINTS, LABELS, SHARDS, weights=np.zeros(POINTS.shape[0]))
        with pytest.raises(InvalidParameterError, match="finite and strictly positive"):
            ShardStore.create(d, POINTS, LABELS, SHARDS, weights=np.full(POINTS.shape[0], np.nan))
        with pytest.raises(InvalidParameterError, match="points must be finite"):
            ShardStore.create(d, np.where(LABELS[:, None] == 1, np.nan, POINTS), LABELS, SHARDS)
        assert not os.path.exists(d)

    def test_create_rejects_empty_shard(self, tmp_path):
        labels = np.zeros(POINTS.shape[0], dtype=np.intp)
        with pytest.raises(InvalidParameterError, match="shard 1 is empty"):
            ShardStore.create(str(tmp_path / "e"), POINTS, labels, 2)

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(InvalidInstanceError, match="not a shard store"):
            ShardStore.open(str(tmp_path))

    def test_open_rejects_wrong_format_and_newer_version(self, store, tmp_path):
        d = str(tmp_path / "fmt")
        os.makedirs(d)
        with open(os.path.join(d, "manifest.json"), "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(InvalidInstanceError, match="format"):
            ShardStore.open(d)

        mpath = os.path.join(store.directory, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["version"] = STORE_VERSION + 1
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(InvalidInstanceError, match="newer than supported"):
            ShardStore.open(store.directory)

    def test_open_rejects_missing_block(self, store):
        os.remove(os.path.join(store.directory, "shard_00002.origin.npy"))
        with pytest.raises(InvalidInstanceError, match="missing block"):
            ShardStore.open(store.directory)

    def test_open_rejects_truncated_manifest(self, store):
        mpath = os.path.join(store.directory, "manifest.json")
        with open(mpath) as fh:
            text = fh.read()
        with open(mpath, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(InvalidInstanceError, match="unreadable manifest"):
            ShardStore.open(store.directory)

    def test_open_rejects_manifest_missing_key(self, store):
        mpath = os.path.join(store.directory, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        del manifest["sizes"]
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(InvalidInstanceError, match="lacks.*sizes"):
            ShardStore.open(store.directory)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda m: [m], "format None"),
            (lambda m: {**m, "shards": "four"}, "malformed"),
            (lambda m: {**m, "sizes": m["sizes"][:-1]}, "one size"),
        ],
        ids=["not-an-object", "non-integer-shards", "short-sizes"],
    )
    def test_open_rejects_malformed_manifest(self, store, edit, match):
        mpath = os.path.join(store.directory, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        with open(mpath, "w") as fh:
            json.dump(edit(manifest), fh)
        with pytest.raises(InvalidInstanceError, match=match):
            ShardStore.open(store.directory)

    def test_open_rejects_truncated_block(self, store):
        path = os.path.join(store.directory, "shard_00000.points.npy")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 16)
        with pytest.raises(InvalidInstanceError, match="unreadable"):
            ShardStore.open(store.directory)

    def test_open_rejects_block_of_wrong_shape(self, store):
        np.save(os.path.join(store.directory, "shard_00001.points.npy"), np.zeros((3, 5)))
        with pytest.raises(InvalidInstanceError, match=r"float64\(3, 5\)"):
            ShardStore.open(store.directory)

    def test_open_rejects_block_of_wrong_dtype(self, wstore):
        path = os.path.join(wstore.directory, "shard_00002.weights.npy")
        np.save(path, np.load(path).astype(np.float32))
        with pytest.raises(InvalidInstanceError, match="float32"):
            ShardStore.open(wstore.directory)

    def test_manifest_write_is_atomic(self, tmp_path, monkeypatch):
        """A writer that dies mid-dump leaves no manifest at all (so
        ``open`` reports "not a shard store"), never a truncated one."""
        import repro.shard.store as store_mod

        def dump_then_die(obj, fh, **kw):
            fh.write('{"format": "repro-shard-store", "shar')
            raise KeyboardInterrupt

        monkeypatch.setattr(store_mod.json, "dump", dump_then_die)
        d = str(tmp_path / "dying")
        with pytest.raises(KeyboardInterrupt):
            ShardStore.create(d, POINTS, LABELS, SHARDS)
        assert not any(name.startswith("manifest") for name in os.listdir(d))

    def test_shard_index_bounds(self, store):
        with pytest.raises(InvalidParameterError, match="shard index"):
            store.load_shard(SHARDS)
        with pytest.raises(InvalidParameterError, match="shard index"):
            store.shard_ref(-1)


# -- coreset parity ---------------------------------------------------------


def _coresets(*args, **kwargs):
    """Every shard's coreset, built fail-fast."""
    coresets, failures = supervised_shard_coresets(*args, policy=NO_RETRY, **kwargs)
    assert failures == []
    return coresets


class TestCoresetParity:
    def test_store_coresets_byte_identical_to_resident(self, store):
        res = _coresets(POINTS, LABELS, SHARDS, 32, seed=SEED)
        via = _coresets(store, size=32, seed=SEED)
        assert len(via) == len(res)
        for a, b in zip(via, res):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.origin, b.origin)

    def test_weighted_store_coresets_byte_identical(self, wstore):
        res = _coresets(
            POINTS, LABELS, SHARDS, 32, weights=WEIGHTS, seed=SEED
        )
        via = _coresets(wstore, size=32, seed=SEED)
        for a, b in zip(via, res):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_store_coresets_parallel_backends(self, store, backend_name):
        res = _coresets(POINTS, LABELS, SHARDS, 32, seed=SEED)
        backend = (
            ThreadBackend(2)
            if backend_name == "thread"
            else ProcessBackend(2)
        )
        with backend as b:
            m = PramMachine(backend=b, seed=0)
            via = _coresets(store, size=32, seed=SEED, machine=m)
        for a, b_ in zip(via, res):
            np.testing.assert_array_equal(a.points, b_.points)
            np.testing.assert_array_equal(a.weights, b_.weights)

    def test_store_rejects_conflicting_resident_args(self, store):
        with pytest.raises(InvalidParameterError, match="ShardStore"):
            supervised_shard_coresets(store, LABELS, SHARDS, 32, seed=SEED)
        with pytest.raises(InvalidParameterError, match="ShardStore"):
            supervised_shard_coresets(store, weights=WEIGHTS, size=32, seed=SEED)

    def test_supervised_store_coresets_match_unsupervised(self, store):
        res = _coresets(store, size=32, seed=SEED)
        with ThreadBackend(2) as b:
            m = PramMachine(backend=b, seed=0)
            via, failures = supervised_shard_coresets(store, size=32, seed=SEED, machine=m)
        assert failures == []
        for a, b_ in zip(via, res):
            np.testing.assert_array_equal(a.points, b_.points)


# -- driver parity ----------------------------------------------------------


def _assert_same_solution(a, b):
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.merged_centers, b.merged_centers)
    assert a.cost == b.cost
    assert a.true_cost == b.true_cost
    assert a.movement == b.movement
    np.testing.assert_array_equal(a.coreset_sizes, b.coreset_sizes)


class TestDriverParity:
    def test_store_source_byte_identical_to_resident(self, tmp_path):
        resident = shard_and_solve(POINTS, K, **SOLVE_KW)
        st = partition_to_store(
            POINTS, SHARDS, str(tmp_path / "drv"), partition="locality", seed=SEED
        )
        kw = {k: v for k, v in SOLVE_KW.items() if k != "shards"}
        via = shard_and_solve(st, K, **kw)
        _assert_same_solution(via, resident)
        assert via.extra["store"] and not resident.extra["store"]

    def test_spill_dir_byte_identical_to_resident(self, tmp_path):
        resident = shard_and_solve(POINTS, K, **SOLVE_KW)
        via = shard_and_solve(
            POINTS, K, spill_dir=str(tmp_path / "spill"), **SOLVE_KW
        )
        _assert_same_solution(via, resident)
        assert via.extra["store"]
        # the spill is a valid, reopenable store
        re = ShardStore.open(str(tmp_path / "spill"))
        assert re.n == POINTS.shape[0] and re.shards == SHARDS

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_store_source_parallel_backends(self, tmp_path, backend_name):
        resident = shard_and_solve(POINTS, K, **SOLVE_KW)
        st = partition_to_store(
            POINTS, SHARDS, str(tmp_path / "bk"), partition="locality", seed=SEED
        )
        backend = (
            ThreadBackend(3)
            if backend_name == "thread"
            else ProcessBackend(3)
        )
        kw = {k: v for k, v in SOLVE_KW.items() if k != "shards"}
        with backend as b:
            m = PramMachine(backend=b, seed=SEED)
            via = shard_and_solve(st, K, machine=m, **kw)
        _assert_same_solution(via, resident)

    def test_weighted_store_source(self, tmp_path):
        resident = shard_and_solve(POINTS, K, weights=WEIGHTS, **SOLVE_KW)
        st = ShardStore.create(
            str(tmp_path / "w"), POINTS, LABELS, SHARDS, weights=WEIGHTS
        )
        kw = {k: v for k, v in SOLVE_KW.items() if k != "shards"}
        via = shard_and_solve(st, K, **kw)
        _assert_same_solution(via, resident)

    def test_store_source_rejects_conflicting_args(self, store, tmp_path):
        with pytest.raises(InvalidParameterError, match="weights"):
            shard_and_solve(store, K, weights=WEIGHTS, seed=SEED)
        with pytest.raises(InvalidParameterError, match="spill_dir"):
            shard_and_solve(store, K, spill_dir=str(tmp_path / "x"), seed=SEED)

    def test_spill_dir_requires_raw_points(self, tmp_path):
        from repro.metrics.generators import knn_clustering_instance

        inst = knn_clustering_instance(120, 3, neighbors=32, seed=1)
        with pytest.raises(InvalidParameterError, match="spill_dir"):
            shard_and_solve(
                inst, 3, shards=1, seed=SEED, spill_dir=str(tmp_path / "no")
            )

    def test_degraded_drop_parity_with_resident(self, tmp_path):
        """Dropping the same shard out-of-core reproduces the resident
        degraded solution: same centers, same true cost, same widened
        certificate and covered fraction — both sources take coverage
        from their per-shard weight totals."""
        plan = FaultPlan.single("raise", 1, attempt=None)
        common = dict(
            on_shard_failure="drop",
            fault_plan=plan,
            retry_policy=NO_RETRY,
            coverage_floor=0.1,
        )
        with ThreadBackend(3) as b:
            m = PramMachine(backend=b, seed=SEED)
            resident = shard_and_solve(POINTS, K, machine=m, **SOLVE_KW, **common)
        st = partition_to_store(
            POINTS, SHARDS, str(tmp_path / "deg"), partition="locality", seed=SEED
        )
        kw = {k: v for k, v in SOLVE_KW.items() if k != "shards"}
        with ThreadBackend(3) as b:
            m = PramMachine(backend=b, seed=SEED)
            via = shard_and_solve(st, K, machine=m, **kw, **common)
        assert via.degraded and resident.degraded
        assert via.failed_shards.tolist() == resident.failed_shards.tolist()
        np.testing.assert_array_equal(via.centers, resident.centers)
        assert via.true_cost == resident.true_cost
        assert via.covered_weight_fraction == resident.covered_weight_fraction

    def test_kcenter_and_kmeans_store_parity(self, tmp_path):
        for solver in ("kcenter", "kmeans"):
            kw = dict(SOLVE_KW, solver=solver)
            resident = shard_and_solve(POINTS, K, **kw)
            via = shard_and_solve(
                POINTS, K, spill_dir=str(tmp_path / solver), **kw
            )
            np.testing.assert_array_equal(via.centers, resident.centers)
            assert via.true_cost == resident.true_cost
