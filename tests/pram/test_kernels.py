"""The segmented NumPy kernels and their machine primitives.

The kernels are the only implementation of the segmented scatter/scan
primitives: scatters combine in flat array order (``ufunc.at``), the
ragged scan accumulates left-to-right per segment. A machine runs them
in the calling thread whatever its backend, so each primitive is
byte-identical, with identical ledger charges, on serial, thread and
process machines.
"""

import numpy as np
import pytest

from repro.pram import kernels
from repro.pram.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.pram.machine import PramMachine

from tests.pram.test_segmented import ragged_case


class TestNumpyReference:
    """The kernels are exactly the ``ufunc.at`` / per-segment loops."""

    def test_scatter_min_is_minimum_at(self):
        rng = np.random.default_rng(0)
        v = rng.random(50)
        idx = rng.integers(0, 7, 50)
        ref = np.full(7, np.inf)
        np.minimum.at(ref, idx, v)
        np.testing.assert_array_equal(kernels.scatter_min(v, idx, 7), ref)

    def test_scatter_add_is_add_at(self):
        rng = np.random.default_rng(1)
        v = rng.random(50)
        idx = rng.integers(0, 7, 50)
        ref = np.zeros(7)
        np.add.at(ref, idx, v)
        np.testing.assert_array_equal(kernels.scatter_add(v, idx, 7), ref)

    def test_segmented_argmin_first_min_and_empty(self):
        out = kernels.segmented_argmin(
            np.array([3.0, 1.0, 1.0, 9.0, 2.0]), np.array([0, 3, 3, 5], dtype=np.intp)
        )
        np.testing.assert_array_equal(out, [1, -1, 4])

    @pytest.mark.parametrize("seed", range(6))
    def test_segmented_argmin_is_the_per_segment_loop(self, seed):
        """Ties, empty runs at either end and in between, +inf, and a
        NaN, which makes its segment's minimum NaN: equal to nothing, so
        the segment reads −1 like an empty one."""
        values, indptr = ragged_case(seed, n_seg=60, max_len=6)
        values = np.floor(values * 3)
        rng = np.random.default_rng(seed)
        values[rng.random(values.size) < 0.1] = np.inf
        values[rng.integers(0, values.size)] = np.nan
        indptr = np.concatenate(([0, 0], indptr, [indptr[-1]] * 2)).astype(np.intp)
        ref = []
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            hits = np.flatnonzero(values[lo:hi] == np.min(values[lo:hi], initial=np.inf))
            ref.append(lo + hits[0] if hits.size else -1)
        out = kernels.segmented_argmin(values, indptr)
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, ref)

    def test_segmented_scan_left_to_right(self):
        values, indptr = ragged_case(4)
        out = kernels.segmented_scan_add(values.copy(), indptr)
        ref = np.concatenate(
            [np.cumsum(values[indptr[i]:indptr[i + 1]]) for i in range(indptr.size - 1)]
        )
        np.testing.assert_array_equal(out, ref)


class TestBackendParityMatrix:
    """{serial, thread, process}: every segmented primitive, and every
    seeded solve built on them, byte-identical to the serial machine,
    with identical ledger charges."""

    @pytest.fixture(scope="class")
    def backends(self):
        pool = {
            "serial": SerialBackend(),
            "thread": ThreadBackend(2),
            "process": ProcessBackend(2),
        }
        yield pool
        for b in pool.values():
            b.close()

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_primitives_byte_identical(self, backends, backend_name, seed):
        values, indptr = ragged_case(seed, n_seg=40, max_len=12)
        n_seg = indptr.size - 1
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_seg, values.size)

        ref = PramMachine(backend=backends["serial"], seed=0)
        m = PramMachine(backend=backends[backend_name], seed=0)
        pairs = [
            (ref.scatter_min(values, idx, n_seg), m.scatter_min(values, idx, n_seg)),
            (ref.scatter_add(values, idx, n_seg), m.scatter_add(values, idx, n_seg)),
            (ref.segmented_argmin(values, indptr), m.segmented_argmin(values, indptr)),
            (ref.segmented_scan(values, indptr, "add"), m.segmented_scan(values, indptr, "add")),
        ]
        for want, got in pairs:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert m.ledger.work == ref.ledger.work
        assert m.ledger.depth == ref.ledger.depth

    def test_degenerate_shapes(self):
        m = PramMachine()
        np.testing.assert_array_equal(
            m.scatter_min(np.array([]), np.array([], dtype=np.intp), 3),
            [np.inf, np.inf, np.inf],
        )
        np.testing.assert_array_equal(
            m.scatter_add(np.array([]), np.array([], dtype=np.intp), 2), [0.0, 0.0]
        )
        np.testing.assert_array_equal(
            m.segmented_argmin(np.array([]), np.array([0, 0])), [-1]
        )
        np.testing.assert_array_equal(
            m.segmented_scan(np.array([]), np.array([0, 0]), "add"), []
        )

    def test_scatter_ties_keep_flat_order_semantics(self):
        # Equal values on one target: min keeps the value (order
        # irrelevant for min), add accumulates in flat order — the
        # ufunc.at semantics.
        v = np.array([0.1, 0.1, 0.3, 0.2])
        idx = np.array([0, 0, 1, 1], dtype=np.intp)
        m = PramMachine()
        np.testing.assert_array_equal(m.scatter_min(v, idx, 2), [0.1, 0.2])
        np.testing.assert_array_equal(m.scatter_add(v, idx, 2), [0.2, 0.5])

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_seeded_solver_outputs_byte_identical(self, backends, backend_name):
        """The acceptance invariant: a seeded sparse solve is
        byte-identical whichever backend runs the machine."""
        from repro.core.local_search import parallel_kmedian
        from repro.metrics.generators import knn_clustering_instance

        inst = knn_clustering_instance(300, 4, neighbors=32, seed=5)
        ref_m = PramMachine(backend=backends["serial"], seed=0)
        want = parallel_kmedian(inst, machine=ref_m)
        m = PramMachine(backend=backends[backend_name], seed=0)
        got = parallel_kmedian(inst, machine=m)
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.cost == want.cost
        assert m.ledger.work == ref_m.ledger.work

    @pytest.mark.parametrize("backend_name", ["thread", "process"])
    def test_sharded_solve_byte_identical(self, backends, backend_name):
        from repro.shard import shard_and_solve

        rng = np.random.default_rng(2)
        pts = rng.normal(size=(600, 2))
        want = shard_and_solve(
            pts, 5, shards=3, seed=9,
            machine=PramMachine(backend=backends["serial"], seed=0),
        )
        got = shard_and_solve(
            pts, 5, shards=3, seed=9,
            machine=PramMachine(backend=backends[backend_name], seed=0),
        )
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.true_cost == want.true_cost
