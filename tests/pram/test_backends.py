"""Backends are task pools; machine primitives agree with plain NumPy on each.

Every backend — serial, or the process pool — is only the pool that
:meth:`repro.faults.Supervisor.submit_batch`, the one batch executor,
sends tasks to. No backend class carries a primitive or a batch method
of its own (pinned below): a :class:`PramMachine` runs the primitives
as plain NumPy in the calling thread, so the primitive tests here build
a machine on each backend and compare it with NumPy. The rest pins the
pool lifecycle, the factory and environment default, and the batch
contract the Supervisor keeps on each pool.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.faults import NO_RETRY, Supervisor
from repro.pram.backends import (
    MAX_WORKERS,
    Backend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
    shared_backend,
)
from repro.pram.machine import PramMachine, ensure_machine
from repro.pram.operators import ADD, MAX, MIN, OR

#: The primitives a backend used to implement; they live on PramMachine.
KERNEL_NAMES = (
    "elementwise", "reduce", "scan", "sort", "argsort",
    "count_votes", "segmented_reduce", "fused_axpy",
)


@pytest.fixture(params=["serial", "process2"])
def backend(request):
    b = SerialBackend() if request.param == "serial" else ProcessBackend(2)
    yield b
    b.close()


@pytest.fixture
def machine(backend):
    """A machine on each backend; its primitives never touch the pool."""
    return PramMachine(backend=backend, seed=0)


@pytest.fixture
def data(rng):
    return rng.random((37, 23))


def test_elementwise_matches(machine, data):
    out = machine.map(lambda a, b: a * 2 + b, data, data)
    assert np.allclose(out, data * 3)


def test_elementwise_single_array(machine, data):
    assert np.allclose(machine.map(np.sqrt, data), np.sqrt(data))


@pytest.mark.parametrize("op,ref", [(ADD, np.sum), (MIN, np.min), (MAX, np.max)])
@pytest.mark.parametrize("axis", [0, 1, None])
def test_reduce_matches(machine, data, op, ref, axis):
    assert np.allclose(machine.reduce(data, op, axis=axis), ref(data, axis=axis))


def test_reduce_or(machine):
    m = np.zeros((8, 8), dtype=bool)
    m[2, 3] = m[5, 0] = True
    assert np.array_equal(machine.reduce(m, OR, axis=1), m.any(axis=1))
    assert np.array_equal(machine.reduce(m, OR, axis=0), m.any(axis=0))


@pytest.mark.parametrize("op,ref", [(ADD, np.cumsum), (MIN, np.minimum.accumulate)])
def test_scan_matches(machine, data, op, ref):
    assert np.allclose(machine.scan(data, op, axis=1), ref(data, axis=1))


def _rows(data):
    """``data``'s rows as uniform CSR segments."""
    return data.ravel(), np.arange(0, data.size + 1, data.shape[1])


def test_sort_matches(machine, data):
    assert np.array_equal(machine.sort(data.ravel()), np.sort(data.ravel()))


def test_argsort_matches(machine, data):
    got = machine.argsort_segments(*_rows(data))
    assert np.array_equal(data.ravel()[got].reshape(data.shape), np.sort(data, axis=1))


@pytest.mark.parametrize("cls", [ProcessBackend])
def test_pool_backend_worker_validation(cls):
    with pytest.raises(InvalidParameterError):
        cls(0)


@pytest.mark.parametrize("bad", [2.5, "2", True, False, float("nan"), float("inf")])
def test_worker_count_must_be_a_whole_number(no_pool_starts, bad):
    """``num_workers`` goes through the one integer check before the
    ceiling: a fraction is not rounded down, text and bools are not
    counts, and nothing is built for any of them."""
    with pytest.raises(InvalidParameterError, match="num_workers must be a positive integer"):
        make_backend("process", num_workers=bad)


def test_process_backend_runs_the_serial_kernels(rng):
    """ProcessBackend is a task pool only: like every backend it carries
    no primitive, so a machine on it runs the same NumPy primitives in
    the calling process as a serial machine, with the same charges."""
    for cls in (Backend, SerialBackend, ProcessBackend):
        for kernel in KERNEL_NAMES + ("submit_batch",):
            assert not hasattr(cls, kernel), (cls.__name__, kernel)
    a = rng.random((40, 12))

    def run(m):
        return m.reduce(a, "add", axis=0), m.argsort_segments(*_rows(a)), m.masked_axpy(2.0, a, 1.0)

    serial = PramMachine(backend="serial")
    with ProcessBackend(2) as b:
        pm = PramMachine(backend=b)
        for got, want in zip(run(pm), run(serial)):
            assert np.array_equal(got, want)
    assert pm.ledger.work == serial.ledger.work


@pytest.mark.parametrize("cls", [ProcessBackend])
def test_pool_backend_close_idempotent(cls):
    b = cls(2)
    assert not b.closed
    b.close()
    b.close()
    assert b.closed


@pytest.mark.parametrize("cls", [ProcessBackend])
def test_use_after_close_is_serial_but_correct(cls, rng):
    """Pinned-down contract: a closed pool backend keeps running every
    batch correctly in the caller (no exception, no pool), and a
    machine on it keeps computing every primitive."""
    b = cls(2)
    m = PramMachine(backend=b)
    a = rng.random((64, 16))
    before = m.reduce(a, ADD, axis=1)
    batch = _run(b, _square, range(5))
    b.close()
    assert b.closed
    assert _run(b, _square, range(5)) == batch
    assert np.array_equal(m.reduce(a, ADD, axis=1), before)
    assert np.array_equal(m.sort(a.ravel()), np.sort(a.ravel()))
    assert np.array_equal(m.map(lambda x: x * 2, a), a * 2)
    assert b._pool is None  # the fallback really is pool-less


@pytest.mark.parametrize("cls", [ProcessBackend])
def test_backend_context_manager(cls):
    with cls(2) as b:
        assert _run(b, _square, range(4)) == [0, 1, 4, 9]
    assert b.closed


def test_names():
    assert SerialBackend().name == "serial"
    assert ProcessBackend(1).name == "process"


def test_elementwise_broadcasts_mixed_shapes(machine, data):
    """Column/row vectors broadcast against the matrix on every backend."""
    col = data[:, :1]
    row = data[:1, :]
    out = machine.map(lambda m, c, r: m + c * r, data, col, row)
    assert np.allclose(out, data + col * row)


def test_count_votes_matches_bincount(machine, rng):
    labels = rng.integers(0, 11, size=5000)
    got = machine.count_votes(labels, 11)
    assert np.array_equal(got, np.bincount(labels, minlength=11))


def test_count_votes_empty(machine):
    assert np.array_equal(machine.count_votes(np.zeros(0, dtype=np.intp), 4), np.zeros(4, dtype=int))


def test_fused_axpy_matches_reference(machine, rng):
    x = rng.random((57, 33))
    y = rng.random((57, 33))
    mask = rng.random((57, 33)) < 0.5
    want = np.where(mask, np.maximum(0.25, -2.0 * x + y), -1.0)
    got = machine.masked_axpy(-2.0, x, y, clamp_min=0.25, mask=mask, fill=-1.0)
    assert np.allclose(got, want)


def test_fused_axpy_scalar_y_and_broadcast(machine, rng):
    x = rng.random((41, 29))
    got = machine.masked_axpy(-1.0, x, 0.75, clamp_min=0.0)
    assert np.allclose(got, np.maximum(0.0, 0.75 - x))
    col = rng.random((41, 1))
    got2 = machine.masked_axpy(3.0, col, np.zeros((41, 29)))
    assert np.allclose(got2, np.broadcast_to(3.0 * col, (41, 29)))


# -- registry, factory, and environment default -------------------------------

def test_make_backend_names_and_passthrough():
    assert isinstance(make_backend("serial"), SerialBackend)
    with make_backend("process", num_workers=2) as b:
        assert isinstance(b, ProcessBackend)
        assert b.num_workers == 2
    existing = SerialBackend()
    assert make_backend(existing) is existing


def test_make_backend_unknown_name_rejected():
    for name in ("gpu", "auto"):
        with pytest.raises(InvalidParameterError, match=r"\['process', 'serial'\]"):
            make_backend(name)
    with pytest.raises(InvalidParameterError, match="unknown backend 'auto'"):
        ensure_machine(backend="auto")


def test_available_backends_lists_builtins():
    assert available_backends() == ["process", "serial"]


def test_thread_is_no_backend_name(monkeypatch):
    """The thread pool is gone: its name is refused like any unknown
    one, from the factory, the environment and a server config."""
    from repro.serve import SolveServer, ServerConfig

    listing = r"expected one of \['process', 'serial'\]"
    with pytest.raises(InvalidParameterError, match=listing):
        make_backend("thread")
    monkeypatch.setenv("REPRO_BACKEND", "thread")
    with pytest.raises(InvalidParameterError, match=listing):
        shared_backend()
    with pytest.raises(InvalidParameterError, match=listing):
        SolveServer(ServerConfig(backend="thread"))


def test_shared_backend_env_default(monkeypatch):
    from repro.pram.backends import _SHARED_BACKENDS

    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
    b = shared_backend()
    assert isinstance(b, ProcessBackend)
    assert b.num_workers == 2
    # cached per (name, workers): same configuration -> same instance
    assert _SHARED_BACKENDS[("process", 2)] is b
    assert shared_backend() is b
    # a closed shared backend is transparently rebuilt
    b.close()
    b2 = shared_backend()
    assert b2 is not b and not b2.closed
    b2.close()


def test_shared_backend_rejects_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "warp-drive")
    with pytest.raises(InvalidParameterError):
        shared_backend()
    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", "lots")
    with pytest.raises(InvalidParameterError):
        shared_backend()


@pytest.fixture
def no_pool_starts(monkeypatch):
    """Fail the test if the process backend gets as far as building a pool."""
    import repro.pram.backends as backends_mod

    monkeypatch.setattr(
        backends_mod, "ProcessPoolExecutor", lambda *a, **k: pytest.fail("pool built")
    )


@pytest.mark.parametrize("workers", [10**6, 10**20])
@pytest.mark.parametrize("cls", [ProcessBackend])
def test_pool_size_above_ceiling_refused_before_any_pool(no_pool_starts, cls, workers):
    with pytest.raises(InvalidParameterError, match=rf"\[1, {MAX_WORKERS}\], got {workers}"):
        cls(workers)


def test_env_pool_size_above_ceiling_refused(no_pool_starts, monkeypatch):
    from repro.pram.backends import _SHARED_BACKENDS

    monkeypatch.setenv("REPRO_BACKEND", "process")
    monkeypatch.setenv("REPRO_NUM_WORKERS", str(10**20))
    with pytest.raises(InvalidParameterError, match=f"got {10**20}"):
        shared_backend()
    assert ("process", 10**20) not in _SHARED_BACKENDS


def test_pool_size_ceiling_admits_the_documented_count():
    with make_backend("process", num_workers=8) as b:  # the README's pool size
        assert b.num_workers == 8


def test_shared_backend_instance_passthrough():
    b = SerialBackend()
    assert shared_backend(b) is b


@pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
def test_shared_backend_empty_env_means_unset(monkeypatch, raw):
    # CI matrices easily materialize REPRO_BACKEND="" for the default
    # leg; that must resolve to the serial fallback, not to a backend
    # literally named "".
    monkeypatch.setenv("REPRO_BACKEND", raw)
    b = shared_backend()
    assert isinstance(b, SerialBackend)


def test_shared_backend_env_still_strips_padding(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "  serial  ")
    assert isinstance(shared_backend(), SerialBackend)


def test_close_shared_backends_tolerates_late_registration(monkeypatch):
    # Closing one shared backend may drain work that registers *new*
    # shared backends (a serving tier flushing its queue at shutdown);
    # the atexit sweep must not die on "dict changed size during
    # iteration", must close the late arrivals too, and must tolerate
    # entries that were already closed by their owner.
    from repro.pram.backends import _SHARED_BACKENDS, _close_shared_backends

    saved = dict(_SHARED_BACKENDS)
    _SHARED_BACKENDS.clear()
    closes = []
    try:
        class Tracked(SerialBackend):
            def __init__(self, tag):
                self.tag = tag

            def close(self):
                closes.append(self.tag)
                super().close()

        late = Tracked("late")

        class RegistersOnClose(Tracked):
            def close(self):
                _SHARED_BACKENDS[("late", None)] = late
                super().close()

        _SHARED_BACKENDS[("first", None)] = RegistersOnClose("first")
        dead = ProcessBackend(1)
        dead.close()  # already closed by its owner: the sweep re-close is a no-op
        _SHARED_BACKENDS[("dead", None)] = dead
        _close_shared_backends()
        assert "first" in closes and "late" in closes
        assert not _SHARED_BACKENDS
    finally:
        _SHARED_BACKENDS.clear()
        _SHARED_BACKENDS.update(saved)


# -- supervised batches: the shard-parallel task fan-out --------------------

def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _run(backend, fn, items) -> list:
    """One fail-fast batch through the one executor; its results."""
    results, failures = Supervisor(backend, NO_RETRY).submit_batch(fn, items)
    assert failures == []
    return results


class TestSubmitBatch:
    def test_serial_runs_in_order(self):
        assert _run(SerialBackend(), _square, [1, 2, 3]) == [1, 4, 9]

    def test_process_pool_matches_serial(self):
        with ProcessBackend(num_workers=2) as b:
            assert _run(b, _square, range(6)) == [x * x for x in range(6)]

    def test_closed_backend_falls_back_to_serial(self):
        b = ProcessBackend(num_workers=2)
        b.close()
        assert _run(b, _square, [4, 5]) == [16, 25]

    def test_unpicklable_fn_falls_back_on_process_pool(self):
        captured = []

        def closure(x):  # locals + side effect: unpicklable for a process pool
            captured.append(x)
            return x + 1

        with ProcessBackend(num_workers=2) as b:
            assert _run(b, closure, [1, 2]) == [2, 3]
        assert captured == [1, 2]

    def test_single_item_runs_on_the_pool(self):
        """A one-task batch goes to the pool like any other batch. (A
        process worker's thread is also named ``MainThread``, so the
        pid tells the two apart.)"""
        with ProcessBackend(num_workers=2) as b:
            assert _run(b, _pid, [7]) != [os.getpid()]


# -- failure reporting + close-under-in-flight -------------------------------

def _boom_on_two(x):
    if x == 2:
        raise ValueError(f"item {x} exploded")
    return x * x


def _slow_square(x):
    time.sleep(0.03)
    return x * x


class TestSubmitBatchFailures:
    """A task that raises fails alone: its ``TaskFailure`` carries the
    item index and the raised exception as the cause, the other tasks
    return, and the pool serves the next batch."""

    @pytest.mark.parametrize("cls", [ProcessBackend])
    def test_backend_usable_after_batch_failure(self, cls):
        with cls(num_workers=2) as b:
            results, failures = Supervisor(b, NO_RETRY).submit_batch(_boom_on_two, [2, 3])
            assert results == [None, 9]
            (f,) = failures
            assert f.index == 0 and isinstance(f.error.__cause__, ValueError)
            assert _run(b, _square, [3, 4]) == [9, 16]


class TestCloseUnderInflightBatch:
    """``close()`` racing a live supervised batch must neither deadlock
    nor lose results: cancelled tasks are re-run in the caller, so the
    batch still returns the full, correct output."""

    @pytest.mark.parametrize("cls", [ProcessBackend])
    def test_close_midbatch_drains_and_completes(self, cls):
        b = cls(num_workers=2)
        out: dict = {}

        def run():
            out["results"] = _run(b, _slow_square, list(range(12)))

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.05)  # let a few tasks start
        b.close()  # must return promptly, not deadlock
        t.join(timeout=30)
        assert not t.is_alive(), "the batch deadlocked against close()"
        assert out["results"] == [x * x for x in range(12)]
        assert b.closed and b._pool is None

    def test_close_midbatch_is_reentrant_safe(self):
        b = ProcessBackend(num_workers=3)
        outs = []
        threads = [
            threading.Thread(
                target=lambda: outs.append(_run(b, _slow_square, range(6)))
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        time.sleep(0.04)
        b.close()
        b.close()  # idempotent under fire
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert outs == [[x * x for x in range(6)]] * 3


# -- zero-copy batch transport (PR 7) ---------------------------------------

def _sum_scaled(item):
    pts, scale = item
    return float(np.asarray(pts, dtype=float).sum()) * scale


def _writable_flags(item):
    def walk(v):
        if isinstance(v, np.ndarray):
            return [bool(v.flags.writeable)]
        if isinstance(v, (tuple, list)):
            return [f for x in v for f in walk(x)]
        if isinstance(v, dict):
            return [f for x in v.values() for f in walk(x)]
        return []
    return walk(item)


def _col_means(arr):
    return arr.mean(axis=0)  # fresh array, never a view of the segment


class TestZeroCopyTransport:
    """A supervised batch on a ProcessBackend ships large ndarrays by
    shared-memory name; results must be byte-identical to the serial
    loop, and every segment must be unlinked once the batch drains."""

    @staticmethod
    def _big(seed, rows=6000):
        return np.random.default_rng(seed).normal(size=(rows, 2))

    def test_pack_replaces_only_large_arrays(self):
        from repro.pram.backends import (
            SHM_ITEM_MIN_BYTES,
            _ShmItemRef,
            pack_batch_items,
        )

        big = self._big(0)
        small = np.arange(4)
        obj = np.array([None, {"x": 1}], dtype=object)
        assert big.nbytes >= SHM_ITEM_MIN_BYTES > small.nbytes
        packed, shms = pack_batch_items([(big, small, obj, "tag", 7)])
        try:
            pb, ps, po, tag, scalar = packed[0]
            assert isinstance(pb, _ShmItemRef)
            assert ps is small and po is obj  # inline: below threshold / object
            assert tag == "tag" and scalar == 7
            assert len(shms) == 1
        finally:
            for shm in shms:
                shm.close()
                shm.unlink()

    def test_pack_unpack_round_trip_nested(self):
        from repro.pram.backends import _unpack_value, pack_batch_items

        big = self._big(1)
        item = {"blocks": [big, (big[:3000].copy(), 2.5)], "k": 3}
        packed, shms = pack_batch_items([item])
        attached: list = []
        try:
            out = _unpack_value(packed[0], attached)
            np.testing.assert_array_equal(out["blocks"][0], big)
            np.testing.assert_array_equal(out["blocks"][1][0], big[:3000])
            assert out["blocks"][1][1] == 2.5 and out["k"] == 3
            assert not out["blocks"][0].flags.writeable
        finally:
            for shm in attached:
                shm.close()
            for shm in shms:
                shm.close()
                shm.unlink()

    def test_pack_dedupes_repeated_array_object(self):
        from repro.pram.backends import pack_batch_items

        big = self._big(2)
        packed, shms = pack_batch_items([(big, 1.0), (big, 2.0), [big]])
        try:
            assert len(shms) == 1  # one segment serves all three items
            names = {packed[0][0].spec[0], packed[1][0].spec[0], packed[2][0].spec[0]}
            assert names == {shms[0].name}
        finally:
            for shm in shms:
                shm.close()
                shm.unlink()

    def test_zero_copy_matches_serial(self):
        blocks = [self._big(s) for s in range(4)]
        items = [(b, 0.5 + s) for s, b in enumerate(blocks)]
        want = [_sum_scaled(item) for item in items]
        with ProcessBackend(2) as zero_copy:
            got = _run(zero_copy, _sum_scaled, items)
        assert got == want  # float equality: byte-identical transport

    def test_worker_views_are_read_only(self):
        items = [(self._big(7), {"w": self._big(8)}), (self._big(9), {"w": self._big(10)})]
        with ProcessBackend(2) as b:
            flags = _run(b, _writable_flags, items)
        assert flags == [[False, False], [False, False]]

    def test_array_results_are_safe_copies(self):
        blocks = [self._big(s) for s in (3, 4)]
        with ProcessBackend(2) as b:
            outs = _run(b, _col_means, blocks)
        for out, block in zip(outs, blocks):
            np.testing.assert_array_equal(out, block.mean(axis=0))

    def test_segments_unlinked_after_batch(self, monkeypatch):
        from multiprocessing import shared_memory

        import repro.pram.backends as backends_mod
        from repro.pram.backends import pack_batch_items

        big = self._big(5)
        packed, shms = pack_batch_items([(big, 1.0)])
        name = shms[0].name
        for shm in shms:
            shm.close()
            shm.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

        # and the real path: every item segment this batch creates is
        # gone once the batch returns (segments other processes create
        # meanwhile are none of this test's business)
        created: list = []
        share = backends_mod._share_array

        def recording_share(a):
            shm, spec = share(a)
            created.append(shm.name)
            return shm, spec

        monkeypatch.setattr(backends_mod, "_share_array", recording_share)
        with ProcessBackend(2) as b:
            _run(b, _sum_scaled, [(self._big(s), 1.0) for s in (6, 7, 8)])
        assert len(created) == 3
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestPicklabilityProbeCache:
    def test_probe_and_cache(self):
        from repro.pram.backends import _PICKLABLE_FNS, fn_picklable

        assert fn_picklable(_square) is True
        assert _PICKLABLE_FNS.get(_square) is True

        captured = []

        def closure(x):
            captured.append(x)
            return x

        assert fn_picklable(closure) is False
        assert _PICKLABLE_FNS.get(closure) is False
        # second call is a pure cache hit (same answer, no re-probe)
        assert fn_picklable(closure) is False

    def test_unweakrefable_callable_still_probes(self):
        from repro.pram.backends import fn_picklable

        # builtins cannot be weak-referenced; the cache must degrade to
        # a plain probe rather than raise
        assert fn_picklable(len) is True
        assert fn_picklable(len) is True

    def test_cache_entry_dies_with_function(self):
        import gc

        from repro.pram.backends import _PICKLABLE_FNS, fn_picklable

        def ephemeral(x):
            return x

        fn_picklable(ephemeral)
        assert ephemeral in _PICKLABLE_FNS
        del ephemeral
        gc.collect()
        assert not any(
            getattr(f, "__name__", "") == "ephemeral" for f in _PICKLABLE_FNS
        )
