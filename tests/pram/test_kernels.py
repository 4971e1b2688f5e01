"""Kernel-provider layer: registry, selection, and the parity matrix.

The provider contract is *byte-identity*: every provider must reproduce
the numpy reference bit-for-bit on every segmented primitive, on every
backend, and through every seeded solver — swapping ``REPRO_KERNELS``
may move wall-clock, never results and never ledger charges. The numba
leg of the matrix runs only where numba is installed (CI's
optional-numba job); everywhere else it skips, it does not fail.
"""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.pram.backends import ProcessBackend, SerialBackend, ThreadBackend
from repro.pram.kernels import (
    KERNELS_ENV,
    KernelProvider,
    NumbaKernels,
    NumpyKernels,
    available_kernel_providers,
    make_kernel_provider,
    numba_available,
    register_kernel_provider,
    shared_kernel_provider,
    _PROVIDER_REGISTRY,
)
from repro.pram.machine import PramMachine

from tests.pram.test_segmented import ragged_case

#: Providers constructible on this host (numpy always; numba when the
#: optional dependency is installed — the CI numba leg).
PROVIDERS = available_kernel_providers()


def reference_machine(backend=None):
    return PramMachine(backend=backend, seed=0, kernels=NumpyKernels())


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in PROVIDERS

    def test_numba_listed_only_when_importable(self):
        assert ("numba" in PROVIDERS) == numba_available()

    def test_make_unknown_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel provider"):
            make_kernel_provider("cuda")

    @pytest.mark.skipif(numba_available(), reason="numba installed here")
    def test_numba_unavailable_raises_with_guidance(self):
        with pytest.raises(InvalidParameterError, match="numba"):
            NumbaKernels()

    def test_instance_passes_through(self):
        prov = NumpyKernels()
        assert make_kernel_provider(prov) is prov
        assert shared_kernel_provider(prov) is prov

    def test_shared_provider_cached_per_name(self):
        assert shared_kernel_provider("numpy") is shared_kernel_provider("numpy")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        assert isinstance(make_kernel_provider(), NumpyKernels)
        monkeypatch.setenv(KERNELS_ENV, "not-a-provider")
        with pytest.raises(InvalidParameterError, match="unknown kernel provider"):
            make_kernel_provider()

    def test_register_extension_hook(self):
        class Doubling(NumpyKernels):
            name = "test-doubling"

        register_kernel_provider("test-doubling", Doubling)
        try:
            assert isinstance(make_kernel_provider("test-doubling"), Doubling)
            assert "test-doubling" in available_kernel_providers()
        finally:
            _PROVIDER_REGISTRY.pop("test-doubling", None)

    def test_register_rejects_empty_name(self):
        with pytest.raises(InvalidParameterError, match="invalid kernel provider"):
            register_kernel_provider("", NumpyKernels)

    def test_machine_accepts_name_and_instance(self):
        assert isinstance(PramMachine(kernels="numpy").kernels, NumpyKernels)
        prov = NumpyKernels()
        assert PramMachine(kernels=prov).kernels is prov

    def test_abstract_interface_raises(self):
        p = KernelProvider()
        v = np.array([1.0])
        i = np.array([0], dtype=np.intp)
        for call in (
            lambda: p.scatter_min(v, i, 1),
            lambda: p.scatter_add(v, i, 1),
            lambda: p.segmented_argmin(v, np.array([0, 1])),
            lambda: p.segmented_scan_add(v, np.array([0, 1])),
        ):
            with pytest.raises(NotImplementedError):
                call()


class TestNumpyReference:
    """The reference provider is exactly the pre-extraction code paths."""

    def test_scatter_min_is_minimum_at(self):
        rng = np.random.default_rng(0)
        v = rng.random(50)
        idx = rng.integers(0, 7, 50)
        ref = np.full(7, np.inf)
        np.minimum.at(ref, idx, v)
        np.testing.assert_array_equal(NumpyKernels().scatter_min(v, idx, 7), ref)

    def test_scatter_add_is_add_at(self):
        rng = np.random.default_rng(1)
        v = rng.random(50)
        idx = rng.integers(0, 7, 50)
        ref = np.zeros(7)
        np.add.at(ref, idx, v)
        np.testing.assert_array_equal(NumpyKernels().scatter_add(v, idx, 7), ref)

    def test_segmented_argmin_first_min_and_empty(self):
        out = NumpyKernels().segmented_argmin(
            np.array([3.0, 1.0, 1.0, 9.0, 2.0]), np.array([0, 3, 3, 5], dtype=np.intp)
        )
        np.testing.assert_array_equal(out, [1, -1, 4])

    def test_segmented_scan_left_to_right(self):
        values, indptr = ragged_case(4)
        out = NumpyKernels().segmented_scan_add(values.copy(), indptr)
        ref = np.concatenate(
            [np.cumsum(values[indptr[i]:indptr[i + 1]]) for i in range(indptr.size - 1)]
        )
        np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("provider", PROVIDERS)
class TestProviderParityMatrix:
    """{numpy, numba-if-present} × {serial, thread, process}: every
    segmented primitive byte-identical to the reference, with identical
    ledger charges (providers never touch the cost model)."""

    @pytest.fixture(scope="class")
    def backends(self):
        pool = {
            "serial": SerialBackend(),
            "thread": ThreadBackend(2, grain=4),
            "process": ProcessBackend(2),
        }
        yield pool
        for b in pool.values():
            b.close()

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_primitives_byte_identical(self, backends, provider, backend_name, seed):
        values, indptr = ragged_case(seed, n_seg=40, max_len=12)
        n_seg = indptr.size - 1
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n_seg, values.size)

        ref = reference_machine(backends["serial"])
        m = PramMachine(backend=backends[backend_name], seed=0, kernels=provider)
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

    def test_degenerate_shapes(self, provider):
        m = PramMachine(kernels=provider)
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

    def test_scatter_ties_keep_flat_order_semantics(self, provider):
        # Equal values on one target: min keeps the value (order
        # irrelevant for min), add accumulates in flat order — the
        # ufunc.at semantics every provider must reproduce exactly.
        v = np.array([0.1, 0.1, 0.3, 0.2])
        idx = np.array([0, 0, 1, 1], dtype=np.intp)
        m = PramMachine(kernels=provider)
        np.testing.assert_array_equal(m.scatter_min(v, idx, 2), [0.1, 0.2])
        np.testing.assert_array_equal(m.scatter_add(v, idx, 2), [0.2, 0.5])

    def test_seeded_solver_outputs_byte_identical(self, provider):
        """The acceptance invariant: a seeded sparse solve is
        byte-identical whichever provider computes the kernels."""
        from repro.core.local_search import parallel_kmedian
        from repro.metrics.generators import knn_clustering_instance

        inst = knn_clustering_instance(300, 4, neighbors=32, seed=5)
        ref_m = reference_machine()
        want = parallel_kmedian(inst, machine=ref_m)
        m = PramMachine(seed=0, kernels=provider)
        got = parallel_kmedian(inst, machine=m)
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.cost == want.cost
        assert m.ledger.work == ref_m.ledger.work

    def test_sharded_solve_byte_identical(self, provider):
        from repro.shard import shard_and_solve

        rng = np.random.default_rng(2)
        pts = rng.normal(size=(600, 2))
        want = shard_and_solve(pts, 5, shards=3, seed=9, machine=reference_machine())
        got = shard_and_solve(
            pts, 5, shards=3, seed=9, machine=PramMachine(seed=0, kernels=provider)
        )
        np.testing.assert_array_equal(got.centers, want.centers)
        assert got.true_cost == want.true_cost
