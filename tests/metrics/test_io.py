"""Instance serialization round-trips and malformed-archive rejection."""

import io
import os
import re
import struct
import tempfile
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.metrics.generators import euclidean_clustering, euclidean_instance, knn_instance
from repro.metrics.io import load_instance, save_instance
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.sparse import SparseFacilityLocationInstance, knn_sparsify


def test_fl_roundtrip_with_metric(tmp_path):
    inst = euclidean_instance(5, 11, seed=3)
    path = tmp_path / "fl.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert isinstance(back, FacilityLocationInstance)
    assert np.array_equal(back.D, inst.D)
    assert np.array_equal(back.f, inst.f)
    assert np.array_equal(back.metric.D, inst.metric.D)
    assert np.array_equal(back.facility_ids, inst.facility_ids)


def test_fl_roundtrip_bare(tmp_path):
    inst = FacilityLocationInstance(np.array([[1.0, 2.0]]), np.array([3.0]))
    path = tmp_path / "bare.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert back.metric is None
    assert np.array_equal(back.D, inst.D)


def test_clustering_roundtrip(tmp_path):
    inst = euclidean_clustering(12, 3, seed=5)
    path = tmp_path / "cl.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert isinstance(back, ClusteringInstance)
    assert back.k == 3
    assert np.array_equal(back.D, inst.D)


def test_costs_survive_roundtrip(tmp_path):
    inst = euclidean_instance(4, 9, seed=6)
    path = tmp_path / "x.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert back.cost([0, 2]) == pytest.approx(inst.cost([0, 2]))


def test_save_rejects_unknown_type(tmp_path):
    with pytest.raises(InvalidInstanceError, match="cannot save"):
        save_instance(tmp_path / "y.npz", object())


# -- sparse instances ---------------------------------------------------------


def test_sparse_roundtrip_preserves_csr_structure(tmp_path):
    inst = knn_instance(20, 60, k=4, seed=11)
    path = tmp_path / "sp.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert isinstance(back, SparseFacilityLocationInstance)
    assert back.n_facilities == inst.n_facilities
    assert back.n_clients == inst.n_clients
    assert back.nnz == inst.nnz
    np.testing.assert_array_equal(back.indptr, inst.indptr)
    np.testing.assert_array_equal(back.indices, inst.indices)
    np.testing.assert_array_equal(back.data, inst.data)
    np.testing.assert_array_equal(back.f, inst.f)


def test_sparse_roundtrip_preserves_fallback_including_inf(tmp_path):
    dense = euclidean_instance(6, 15, seed=2)
    full = SparseFacilityLocationInstance.from_instance(dense)  # fallback = +inf
    path = tmp_path / "full.npz"
    save_instance(path, full)
    back = load_instance(path)
    np.testing.assert_array_equal(back.fallback, full.fallback)
    assert back.is_dense_representable

    trunc = knn_sparsify(dense, 3)  # finite fallback column
    path2 = tmp_path / "trunc.npz"
    save_instance(path2, trunc)
    back2 = load_instance(path2)
    np.testing.assert_array_equal(back2.fallback, trunc.fallback)
    assert np.all(np.isfinite(back2.fallback))


def test_sparse_roundtrip_preserves_seeded_objective(tmp_path):
    inst = knn_instance(15, 50, k=3, seed=9)
    path = tmp_path / "obj.npz"
    save_instance(path, inst)
    back = load_instance(path)
    rng = np.random.default_rng(0)
    for _ in range(5):
        opened = np.flatnonzero(rng.random(15) < 0.4)
        if opened.size == 0:
            opened = np.array([1])
        assert back.cost(opened) == inst.cost(opened)
        np.testing.assert_array_equal(
            back.connection_distances(opened), inst.connection_distances(opened)
        )


# -- schema versioning (PR 5) ----------------------------------------------

def test_archives_carry_schema_version(tmp_path):
    from repro.metrics.io import SCHEMA_VERSION

    path = tmp_path / "v.npz"
    save_instance(path, euclidean_clustering(10, 2, seed=1))
    with np.load(path) as data:
        assert int(data["version"]) == SCHEMA_VERSION


def test_weighted_clustering_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    base = euclidean_clustering(12, 3, seed=5)
    inst = ClusteringInstance(base.space, 3, weights=rng.uniform(1, 4, 12))
    path = tmp_path / "wcl.npz"
    save_instance(path, inst)
    back = load_instance(path)
    assert not back.has_unit_weights
    assert np.array_equal(back.weights, inst.weights)
    assert back.kmedian_cost([0, 4, 7]) == inst.kmedian_cost([0, 4, 7])


def test_weighted_fl_and_sparse_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    fl = euclidean_instance(5, 11, seed=3)
    wfl = FacilityLocationInstance(fl.D, fl.f, client_weights=rng.uniform(1, 2, 11))
    save_instance(tmp_path / "wfl.npz", wfl)
    back = load_instance(tmp_path / "wfl.npz")
    assert np.array_equal(back.client_weights, wfl.client_weights)

    sp = knn_sparsify(wfl, 3)
    save_instance(tmp_path / "wsp.npz", sp)
    back_sp = load_instance(tmp_path / "wsp.npz")
    assert isinstance(back_sp, SparseFacilityLocationInstance)
    assert np.array_equal(back_sp.client_weights, sp.client_weights)
    assert back_sp.cost([0, 1]) == sp.cost([0, 1])

    from repro.metrics.sparse import SparseClusteringInstance

    wcl = ClusteringInstance(
        euclidean_clustering(12, 3, seed=5).space, 3, weights=rng.uniform(1, 2, 12)
    )
    spc = SparseClusteringInstance.from_instance(wcl)
    save_instance(tmp_path / "wspc.npz", spc)
    back_c = load_instance(tmp_path / "wspc.npz")
    assert np.array_equal(back_c.weights, spc.weights)


def test_weighted_kind_fails_loudly_on_legacy_reader(tmp_path):
    """A pre-versioning reader dispatches on the kind string alone; a
    weighted archive's distinct kind must make it raise instead of
    silently loading the structure without its weights."""
    rng = np.random.default_rng(5)
    base = euclidean_clustering(10, 2, seed=7)
    inst = ClusteringInstance(base.space, 2, weights=rng.uniform(1, 3, 10))
    path = tmp_path / "wk.npz"
    save_instance(path, inst)
    legacy_kinds = {
        "facility-location", "clustering", "sparse-facility-location", "sparse-clustering",
    }
    with np.load(path) as data:
        assert str(data["kind"]) not in legacy_kinds


def test_newer_schema_rejected(tmp_path):
    path = tmp_path / "future.npz"
    base = euclidean_clustering(8, 2, seed=9)
    np.savez_compressed(
        path, kind=np.asarray("clustering"), D=base.D, k=np.asarray(2),
        version=np.asarray(99),
    )
    with pytest.raises(InvalidInstanceError, match="schema v99"):
        load_instance(path)


def test_weighted_kind_without_version_rejected(tmp_path):
    path = tmp_path / "mismatch.npz"
    base = euclidean_clustering(8, 2, seed=9)
    np.savez_compressed(
        path, kind=np.asarray("clustering-weighted"), D=base.D, k=np.asarray(2),
        weights=np.ones(8) * 2.0,
    )
    with pytest.raises(InvalidInstanceError, match="disagree"):
        load_instance(path)


def test_smuggled_weights_under_legacy_kind_rejected(tmp_path):
    path = tmp_path / "smuggle.npz"
    base = euclidean_clustering(8, 2, seed=9)
    np.savez_compressed(
        path, kind=np.asarray("clustering"), D=base.D, k=np.asarray(2),
        weights=np.ones(8) * 2.0, version=np.asarray(2),
    )
    with pytest.raises(InvalidInstanceError, match="silently"):
        load_instance(path)


def test_legacy_v1_archive_still_loads(tmp_path):
    """Pre-versioning archives (no version field) keep loading."""
    path = tmp_path / "v1.npz"
    base = euclidean_clustering(8, 2, seed=9)
    np.savez_compressed(path, kind=np.asarray("clustering"), D=base.D, k=np.asarray(2))
    back = load_instance(path)
    assert isinstance(back, ClusteringInstance)
    assert back.k == 2 and back.has_unit_weights


def test_weighted_kind_missing_weight_array_rejected(tmp_path):
    """A weighted kind with no weight payload must not load as a silent
    unit-weight instance."""
    base = euclidean_clustering(8, 2, seed=9)
    path = tmp_path / "noweights.npz"
    np.savez_compressed(
        path, kind=np.asarray("clustering-weighted"), D=base.D, k=np.asarray(2),
        version=np.asarray(2),
    )
    with pytest.raises(InvalidInstanceError, match="no 'weights'"):
        load_instance(path)


def test_weighted_kind_with_misnamed_weight_field_rejected(tmp_path):
    inst = euclidean_instance(4, 8, seed=2)
    path = tmp_path / "misnamed.npz"
    np.savez_compressed(
        path, kind=np.asarray("facility-location-weighted"), D=inst.D, f=inst.f,
        weights=np.full(8, 2.0), version=np.asarray(2),  # should be client_weights
    )
    with pytest.raises(InvalidInstanceError, match="client_weights"):
        load_instance(path)


# -- uncompressed archives + memory-mapped loading (PR 7) ---------------------


def test_uncompressed_roundtrip_byte_identical(tmp_path):
    inst = euclidean_clustering(20, 4, seed=9)
    cpath, upath = tmp_path / "c.npz", tmp_path / "u.npz"
    save_instance(cpath, inst)
    save_instance(upath, inst, compressed=False)
    a, b = load_instance(cpath), load_instance(upath)
    assert type(a) is type(b)
    assert np.array_equal(a.D, b.D)
    assert a.k == b.k
    assert a.kmedian_cost([0, 3]) == b.kmedian_cost([0, 3])


def test_mmap_roundtrip_all_kinds(tmp_path):
    from repro.metrics.generators import knn_clustering_instance
    from repro.metrics.sparse import SparseClusteringInstance

    dense = euclidean_instance(5, 11, seed=3)
    sparse = knn_clustering_instance(60, 4, neighbors=16, seed=2)
    for name, inst in (("fl", dense), ("sp", sparse)):
        path = tmp_path / f"{name}.npz"
        save_instance(path, inst, compressed=False)
        eager = load_instance(path)
        mapped = load_instance(path, mmap_mode="r")
        assert type(mapped) is type(eager)
        if isinstance(eager, SparseClusteringInstance):
            assert np.array_equal(mapped.indptr, eager.indptr)
            assert np.array_equal(mapped.indices, eager.indices)
            assert np.array_equal(mapped.data, eager.data)
        else:
            assert np.array_equal(mapped.D, eager.D)
            assert np.array_equal(mapped.f, eager.f)


def test_mmap_arrays_are_memmaps_and_read_only(tmp_path):
    inst = euclidean_instance(6, 40, seed=7)
    path = tmp_path / "m.npz"
    save_instance(path, inst, compressed=False)
    back = load_instance(path, mmap_mode="r")
    # instance constructors wrap arrays in plain ndarray views, but the
    # buffer must still be the file mapping, not a RAM copy
    assert isinstance(back.D.base, np.memmap)
    with pytest.raises(ValueError):
        back.D[0, 0] = -1.0


def test_mmap_copy_on_write_mode(tmp_path):
    inst = euclidean_instance(6, 40, seed=7)
    path = tmp_path / "cw.npz"
    save_instance(path, inst, compressed=False)
    back = load_instance(path, mmap_mode="c")
    # copy-on-write mapping underneath; the instance still freezes its
    # arrays (write refusal), and the archive is never touched
    assert isinstance(back.D.base, np.memmap)
    assert back.D.base.mode == "c"
    with pytest.raises(ValueError):
        back.D[0, 0] = -1.0
    assert np.array_equal(back.D, load_instance(path).D)


def test_mmap_rejects_compressed_archive(tmp_path):
    inst = euclidean_clustering(10, 3, seed=1)
    path = tmp_path / "z.npz"
    save_instance(path, inst)  # compressed (the default)
    with pytest.raises(InvalidInstanceError, match="compressed=False"):
        load_instance(path, mmap_mode="r")


def test_mmap_mode_validated(tmp_path):
    inst = euclidean_clustering(10, 3, seed=1)
    path = tmp_path / "v.npz"
    save_instance(path, inst, compressed=False)
    from repro.errors import InvalidParameterError

    for bad in ("r+", "w+", "rw", ""):
        with pytest.raises(InvalidParameterError, match="mmap_mode"):
            load_instance(path, mmap_mode=bad)


def test_mmap_seeded_solve_matches_eager(tmp_path):
    """The acceptance invariant: a solver fed a memory-mapped instance
    produces byte-identical seeded output to the eagerly loaded one."""
    from repro.core.local_search import parallel_kmedian
    from repro.metrics.generators import knn_clustering_instance

    inst = knn_clustering_instance(150, 4, neighbors=32, seed=11)
    path = tmp_path / "solve.npz"
    save_instance(path, inst, compressed=False)
    eager = parallel_kmedian(load_instance(path), seed=5)
    mapped = parallel_kmedian(load_instance(path, mmap_mode="r"), seed=5)
    assert np.array_equal(mapped.centers, eager.centers)
    assert mapped.cost == eager.cost


def test_uncompressed_weighted_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    base = euclidean_clustering(15, 3, seed=4)
    inst = ClusteringInstance(base.space, 3, weights=rng.uniform(1, 2, 15))
    path = tmp_path / "w.npz"
    save_instance(path, inst, compressed=False)
    for kwargs in ({}, {"mmap_mode": "r"}):
        back = load_instance(path, **kwargs)
        assert np.array_equal(np.asarray(back.weights), inst.weights)


# -- malformed archives: every parse failure is an InvalidInstanceError -------


def _archive_bytes(*, compressed: bool) -> bytes:
    buf = io.BytesIO()
    save_instance(buf, euclidean_instance(5, 9, seed=1), compressed=compressed)
    return buf.getvalue()


def _npz_bytes(**members) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _npy_magic_flipped() -> bytes:
    """A stored archive whose ``D`` member starts with a corrupt magic."""
    data = bytearray(_archive_bytes(compressed=False))
    with zipfile.ZipFile(io.BytesIO(bytes(data))) as zf:
        info = zf.getinfo("D.npy")
    fname_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    data[info.header_offset + 30 + fname_len + extra_len] ^= 0xFF
    return bytes(data)


MALFORMED = {
    "empty-file": lambda: b"",
    "plain-text": lambda: b"not an archive\n" * 8,
    "truncated-compressed": lambda: _archive_bytes(compressed=True)[:300],
    "truncated-stored": lambda: _archive_bytes(compressed=False)[:300],
    "central-directory-cut": lambda: _archive_bytes(compressed=False)[:-30],
    "npy-magic-flipped": _npy_magic_flipped,
    "missing-kind": lambda: _npz_bytes(D=np.zeros((2, 2)), f=np.ones(2)),
    "object-member": lambda: _npz_bytes(
        kind=np.asarray("facility-location"), D=np.array([None, 1.0], dtype=object)
    ),
    "bare-npy": lambda: _npy_bytes(np.zeros(3)),
}


@pytest.mark.parametrize("mmap_mode", [None, "r"], ids=["eager", "mmap"])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_archive_raises_invalid_instance(tmp_path, name, mmap_mode):
    path = tmp_path / f"{name}.npz"
    path.write_bytes(MALFORMED[name]())
    with pytest.raises(InvalidInstanceError, match=re.escape(str(path))):
        load_instance(path, mmap_mode=mmap_mode)


def test_parse_failure_is_chained(tmp_path):
    path = tmp_path / "empty.npz"
    path.write_bytes(b"")
    with pytest.raises(InvalidInstanceError) as info:
        load_instance(path)
    assert isinstance(info.value.__cause__, EOFError)


@pytest.mark.parametrize("mmap_mode", [None, "r"], ids=["eager", "mmap"])
def test_unbalanced_npy_header_raises_invalid_instance(tmp_path, mmap_mode):
    """A version-1.0 ``.npy`` header whose closing brace is gone makes
    NumPy's header parser raise ``tokenize.TokenError``; the archive is
    large enough that the eager load reaches the header before the zip
    CRC check."""
    path = tmp_path / "unbalanced.npz"
    save_instance(path, euclidean_instance(60, 200, seed=1), compressed=False)
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("D.npy")
    fname_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    member = info.header_offset + 30 + fname_len + extra_len
    header_len = struct.unpack_from("<H", data, member + 8)[0]
    brace = data.rindex(b"}", member, member + 10 + header_len)
    data[brace] = ord(" ")
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidInstanceError, match=re.escape(str(path))) as info:
        load_instance(path, mmap_mode=mmap_mode)
    assert type(info.value.__cause__).__name__ == "TokenError"


@pytest.mark.parametrize("mmap_mode", [None, "r"], ids=["eager", "mmap"])
def test_missing_archive_still_raises_file_not_found(tmp_path, mmap_mode):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "absent.npz", mmap_mode=mmap_mode)


_BASE_ARCHIVES = {c: _archive_bytes(compressed=c) for c in (True, False)}


@settings(max_examples=80, deadline=None)
@given(
    compressed=st.booleans(),
    mmap=st.booleans(),
    cut=st.none() | st.floats(0.0, 1.0, exclude_max=True),
    flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 255)), max_size=4),
)
def test_mutated_archive_loads_or_raises_invalid_instance(compressed, mmap, cut, flips):
    """Truncated or byte-flipped archives either still parse (flipped
    payload bytes can, and mmap loads skip the zip CRC by design) or
    raise :class:`InvalidInstanceError` — never a raw zip/zlib/numpy
    error."""
    data = bytearray(_BASE_ARCHIVES[compressed])
    for where, mask in flips:
        data[int(where * len(data))] ^= mask
    if cut is not None:
        data = data[: int(cut * len(data))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.npz")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        try:
            load_instance(path, mmap_mode="r" if mmap and not compressed else None)
        except InvalidInstanceError as exc:
            assert path in str(exc)
