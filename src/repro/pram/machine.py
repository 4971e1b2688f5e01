"""The PRAM machine: §2 basic matrix operations with cost accounting.

Algorithms in :mod:`repro.core` perform **all** asymptotically relevant
computation through a :class:`PramMachine`, so the ledger's totals *are*
the algorithm's work/depth/cache in the paper's model. The machine
executes every primitive as plain NumPy in the calling thread and
returns ordinary ``numpy.ndarray`` results. Its backend is only the
task pool that :class:`repro.faults.Supervisor` sends coarse batch jobs
to (the shard pipeline's per-shard coreset builds); no primitive ever
reaches it.

Cost conventions (paper §2):

==================  ==============  =============  ======================
primitive           work            depth          cache
==================  ==============  =============  ======================
``map``             ``m``           ``1``          ``m/B``
``masked_axpy``     ``m``           ``1``          ``m/B``
``reduce``/``scan`` ``m``           ``log m``      ``m/B``
``count_votes``     ``m + r``       ``log m``      ``(m + r)/B``
``transpose``       ``m``           ``1``          ``m/B``
``take_rows``       ``m``           ``1``          ``m/B``
``pack``            ``m``           ``log m``      ``m/B``
sorts               ``m log r``     ``log r``      ``(m/B) log_{M/B} m``
``random``          ``m``           ``1``          ``m/B``
==================  ==============  =============  ======================

(``m`` = elements touched, ``r`` = the longest run being sorted — a
segment for ``argsort_segments``, the vector for ``sort`` — or the vote
range.) Charges are computed from the array sizes a primitive
touches, never from how it executed. Because no primitive depends on
the backend, serial and process-pool runs of the same seeded
algorithm return identical results and report identical
work/depth/cache totals.
``count_votes``, ``take_rows``, ``pack``, ``segment_positions`` and
``masked_axpy`` are the frontier-compaction primitives: they let each
round of the §4/§5 algorithms touch only the *remaining* instance —
``count_votes`` replaces an ``n_f × n_c`` vote matrix with a
bincount-style segmented count, ``segment_positions``/``take_rows``
carve the live rows out of a CSR structure and ``pack`` drops the
served entries, and ``masked_axpy`` fuses the scale-add-clamp pattern
into one parallel step. All are expressible as constant compositions
of the paper's §2 basic operations, so the charged totals remain
faithful to the model.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import InvalidParameterError
from repro.obs.tracer import current_tracer
from repro.pram import kernels
from repro.pram.backends import Backend, shared_backend
from repro.pram.ledger import CostLedger, CostSnapshot
from repro.pram.operators import AssociativeOp, get_operator
from repro.util.rng import ensure_rng

#: Primitives wrapped with trace spans when a machine is built under an
#: enabled tracer. Wrapping is per-instance and only happens when
#: tracing is on — a machine built with tracing off runs the methods
#: below exactly as written, with zero indirection added.
_TRACED_PRIMITIVES = (
    "map",
    "where",
    "masked_axpy",
    "reduce",
    "scan",
    "argmin",
    "argmax",
    "transpose",
    "take_columns",
    "take_rows",
    "count_votes",
    "segmented_reduce",
    "segmented_scan",
    "segmented_argmin",
    "segment_positions",
    "segment_spread",
    "scatter_min",
    "scatter_add",
    "argsort_segments",
    "pack",
    "sort",
    "sorted_unique",
    "random_priorities",
)


def _traced_primitive(tracer, ledger, name, bound):
    """Wrap one bound primitive with a span carrying ledger deltas.

    Each call emits a ``cat="pram"`` complete event whose args hold the
    work/depth the ledger charged during the call — the correlation
    between model cost and wall cost per op. Spans nest naturally
    (``where`` → ``map``) the way the calls do.
    """

    @functools.wraps(bound)
    def wrapper(*args, **kwargs):
        ts = tracer.now()
        work0, depth0 = ledger.work, ledger.depth
        try:
            return bound(*args, **kwargs)
        finally:
            dur = tracer.now() - ts
            tracer.complete(
                name,
                "pram",
                ts,
                dur,
                args={"work": ledger.work - work0, "depth": ledger.depth - depth0},
            )
            tracer.metrics.histogram(f"pram.{name}_us").observe(dur)

    return wrapper


def _instrument_machine(machine: "PramMachine") -> None:
    """Install per-instance trace wrappers over the machine's primitives."""
    for name in _TRACED_PRIMITIVES:
        setattr(
            machine,
            name,
            _traced_primitive(
                machine.tracer, machine.ledger, name, getattr(machine, name)
            ),
        )


def _coerce_op(op: "str | AssociativeOp") -> AssociativeOp:
    return op if isinstance(op, AssociativeOp) else get_operator(op)


def _check_gather_index(label: str, idx, extent: int) -> np.ndarray:
    """Validate gather indices are within ``[0, extent)`` (negative
    indices are rejected — frontier index sets are always canonical)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= extent):
        raise InvalidParameterError(
            f"{label} index out of range [0, {extent}): "
            f"[{int(idx.min())}, {int(idx.max())}]"
        )
    return idx


class PramMachine:
    """Executes basic matrix operations and charges the §2 cost model.

    Parameters
    ----------
    backend:
        The task pool that :func:`~repro.shard.shard_and_solve` sends
        its coreset builds to when handed this machine (the primitives
        never use it): a :class:`Backend` instance, kept as given and
        closed by whoever created it, a backend name
        (``"serial"``/``"process"``, resolved to the
        process-wide :func:`~repro.pram.backends.shared_backend` for
        that configuration), or ``None`` for the environment default
        (``REPRO_BACKEND``, serial unless set). Shared backends are
        released atexit.
    ledger:
        Cost accumulator; a fresh :class:`CostLedger` by default.
    seed:
        Seed/Generator for the machine's random primitives.
    tracer:
        Observability sink (:class:`repro.obs.Tracer`), or ``None`` for
        the process default (``REPRO_TRACE`` env / :func:`~repro.obs.set_tracer`,
        disabled unless configured). When the tracer is enabled every
        primitive call emits a span carrying the work/depth it charged;
        when disabled the machine is byte-for-byte the uninstrumented
        code — no wrappers are installed at all. Tracing never touches
        data or randomness, so results are identical either way.
    """

    def __init__(
        self,
        backend: "Backend | str | None" = None,
        ledger: CostLedger | None = None,
        seed=None,
        tracer=None,
    ):
        self.backend = shared_backend(backend)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.rng = ensure_rng(seed)
        self.tracer = tracer if tracer is not None else current_tracer()
        if self.tracer.enabled:
            _instrument_machine(self)

    # -- elementwise -------------------------------------------------------

    def map(self, fn, *arrays: np.ndarray) -> np.ndarray:
        """Parallel loop: apply vectorized ``fn`` elementwise.

        ``fn`` must be a NumPy-vectorized callable; all array arguments
        participate in one fully parallel step (depth 1).
        """
        arrs = tuple(np.asarray(a) for a in arrays)
        out = np.asarray(fn(*arrs))
        size = max((a.size for a in arrs), default=0)
        self.ledger.charge_basic("map", max(size, out.size), depth=1)
        return out

    def where(self, cond, a, b) -> np.ndarray:
        """Elementwise select — a single parallel step."""
        return self.map(np.where, cond, a, b)

    def masked_axpy(self, a, x, y, *, clamp_min=None, mask=None, fill=0.0) -> np.ndarray:
        """Fused ``a*x + y`` with optional lower clamp and mask-select.

        ``a`` is a scalar; ``x``, ``y``, and ``mask`` broadcast to a
        common shape. With ``clamp_min`` the result is
        ``max(clamp_min, a*x + y)``; with ``mask`` positions where the
        mask is false read ``fill``. One parallel step and one ledger
        charge — the workhorse of the §5 payment computation
        (``max(0, (1+ε)α − d)``) without intermediate matrices.
        """
        out = np.asarray(kernels.fused_axpy(a, x, y, clamp_min, mask, fill))
        self.ledger.charge_basic("masked_axpy", out.size, depth=1)
        return out

    # -- reductions & scans --------------------------------------------------

    def reduce(self, a: np.ndarray, op="add", axis=None) -> np.ndarray:
        """Summation across rows/columns/all with an associative operator."""
        a = np.asarray(a)
        oper = _coerce_op(op)
        out = oper.reduce(a, axis=axis)
        self.ledger.charge_basic(f"reduce[{oper.name}]", a.size)
        return np.asarray(out)

    def scan(self, a: np.ndarray, op="add", axis: int = -1) -> np.ndarray:
        """Inclusive prefix combine along ``axis``."""
        a = np.asarray(a)
        oper = _coerce_op(op)
        out = oper.scan(a, axis=axis)
        self.ledger.charge_basic(f"scan[{oper.name}]", a.size)
        return np.asarray(out)

    def argmin(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Index of the minimum (a min-reduction carrying indices)."""
        a = np.asarray(a)
        out = np.argmin(a, axis=axis)
        self.ledger.charge_basic("reduce[argmin]", a.size)
        return np.asarray(out)

    def argmax(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Index of the maximum (a max-reduction carrying indices)."""
        a = np.asarray(a)
        out = np.argmax(a, axis=axis)
        self.ledger.charge_basic("reduce[argmax]", a.size)
        return np.asarray(out)

    # -- data movement -------------------------------------------------------

    def transpose(self, a: np.ndarray) -> np.ndarray:
        """Matrix transposition (materialized, per the cache model)."""
        a = np.asarray(a)
        out = np.ascontiguousarray(a.T)
        self.ledger.charge_basic("transpose", a.size, depth=1)
        return out

    def take_columns(self, a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Column selection ``a[:, idx]`` — a distribution-style copy.

        Indices are validated like every other gather: a wrong frontier
        index set must fail loudly, not wrap around and silently
        corrupt the result.
        """
        a = np.asarray(a)
        if a.ndim < 2:
            raise InvalidParameterError(
                f"take_columns requires a matrix, got ndim={a.ndim}"
            )
        idx = _check_gather_index("take_columns", idx, a.shape[1])
        out = a[:, idx]
        self.ledger.charge_basic("gather", max(out.size, 1), depth=1)
        return out

    def take_rows(self, a: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Row selection ``a[idx]`` (element selection for vectors).

        The frontier-gather: pull the live rows of a matrix into a
        compact submatrix so later primitives touch only the frontier.
        One parallel read per output element.
        """
        a = np.asarray(a)
        idx = _check_gather_index("take_rows", idx, a.shape[0])
        out = a[idx]
        self.ledger.charge_basic("take_rows", max(out.size, 1), depth=1)
        return out

    def count_votes(self, labels: np.ndarray, minlength: int, *, mask: np.ndarray | None = None) -> np.ndarray:
        """Segmented count ``out[i] = #{j : labels[j] == i (and mask[j])}``.

        The bincount-style primitive that replaces materializing an
        ``n_f × n_c`` vote matrix: counting how many clients chose each
        facility is a single segmented ``+``-reduction over ``labels``.
        """
        labels = np.asarray(labels, dtype=np.intp)
        if labels.ndim != 1:
            raise InvalidParameterError(f"count_votes labels must be 1-D, got ndim={labels.ndim}")
        minlength = int(minlength)
        if minlength < 0:
            raise InvalidParameterError(f"minlength must be >= 0, got {minlength}")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != labels.shape:
                raise InvalidParameterError(
                    f"count_votes mask shape {mask.shape} != labels shape {labels.shape}"
                )
            labels = labels[mask]
        if labels.size and (labels.min() < 0 or labels.max() >= minlength):
            # Out-of-range labels would make the output shape depend on
            # the data — reject instead.
            raise InvalidParameterError(
                f"count_votes labels must lie in [0, {minlength}), got "
                f"[{int(labels.min())}, {int(labels.max())}]"
            )
        out = np.bincount(labels, minlength=minlength)
        self.ledger.charge_basic("count_votes", max(labels.size + minlength, 1))
        return np.asarray(out)

    # -- segmented (CSR) primitives ------------------------------------------

    def segmented_reduce(self, values: np.ndarray, indptr: np.ndarray, op="add") -> np.ndarray:
        """Per-segment summation with an associative operator.

        ``indptr`` (length ``n_segments + 1``) delimits contiguous
        segments of the flat ``values`` array — the CSR layout of a
        sparse row structure. Empty segments reduce to the operator
        identity. Charged ``O(nnz + n_segments)`` work and ``O(log n)``
        depth: in the §2 model this is a prefix-combine followed by a
        boundary gather, i.e. a constant number of basic operations.

        Uniform segment lengths take a rectangular fast path through
        the 2-D row reduction, which is bit-identical to :meth:`reduce`
        — the parity bridge between the sparse and dense execution
        paths on dense-representable instances.
        """
        values = np.asarray(values)
        indptr = np.asarray(indptr, dtype=np.intp)
        oper = _coerce_op(op)
        n_seg = indptr.size - 1
        lens = np.diff(indptr)
        k = int(lens[0]) if n_seg else 0
        if n_seg and k > 0 and bool(np.all(lens == k)):
            out = oper.reduce(values.reshape(n_seg, k), axis=1)
        else:
            out = kernels.segmented_reduce(oper, values, indptr)
        self.ledger.charge_basic(
            f"segmented_reduce[{oper.name}]", max(values.size + n_seg, 1)
        )
        return np.asarray(out)

    def segmented_scan(self, values: np.ndarray, indptr: np.ndarray, op="add") -> np.ndarray:
        """Within-segment inclusive prefix combine (flat CSR layout).

        Uniform segments run through the 2-D row scan (bit-identical
        to :meth:`scan`). Ragged segments support the ``add`` operator
        via an exact left-to-right accumulation — position ``k`` of
        every live segment is advanced in one vectorized step, so the
        result is bit-identical to a sequential per-segment pass (no
        global-cumsum cancellation error). Total elementwise work is ``nnz``;
        the ledger charges the §2 segmented-scan construction as usual.
        """
        values = np.asarray(values)
        indptr = np.asarray(indptr, dtype=np.intp)
        oper = _coerce_op(op)
        n_seg = indptr.size - 1
        lens = np.diff(indptr)
        k = int(lens[0]) if n_seg else 0
        if n_seg and k > 0 and bool(np.all(lens == k)):
            out = oper.scan(values.reshape(n_seg, k), axis=1).reshape(-1)
            self.ledger.charge_basic(f"segmented_scan[{oper.name}]", max(values.size, 1))
            return np.asarray(out)
        if oper.name != "add":
            raise InvalidParameterError(
                f"ragged segmented_scan supports only 'add', got {oper.name!r}"
            )
        if values.size == 0:
            self.ledger.charge_basic("segmented_scan[add]", 1)
            return values.copy()
        # Preserve the input dtype so uniform and ragged structures give
        # consistent results (bool accumulates through int, like the
        # dense scan's add.accumulate would). The kernel
        # accumulates left-to-right within each segment — bit-identical
        # to a sequential per-segment pass.
        prepared = values.astype(
            np.int_ if values.dtype.kind == "b" else values.dtype, copy=False
        )
        out = kernels.segmented_scan_add(prepared, indptr)
        self.ledger.charge_basic("segmented_scan[add]", max(values.size + n_seg, 1))
        return np.asarray(out)

    def segmented_argmin(self, values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
        """Flat position of the first per-segment minimum (−1 if empty).

        A min-reduction carrying indices: segment minima, an equality
        map, and a position min — three basic operations, ``O(nnz)``.
        Charged as that composition (two segmented min-reductions, a
        spread, two maps).
        """
        values = np.asarray(values)
        indptr = np.asarray(indptr, dtype=np.intp)
        n_seg = indptr.size - 1
        out = kernels.segmented_argmin(values, indptr)
        self.ledger.charge_basic("segmented_reduce[min]", max(values.size + n_seg, 1))
        self.ledger.charge_basic("segment_spread", max(values.size, 1), depth=1)
        if values.size:
            self.ledger.charge_basic("map", values.size, depth=1)
            self.ledger.charge_basic("map", values.size, depth=1)
        self.ledger.charge_basic("segmented_reduce[min]", max(values.size + n_seg, 1))
        return np.asarray(out)

    def segment_positions(
        self, indptr: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Frontier-restricted segment gather: flat positions of the
        selected ``rows``' segments, plus the gathered sub-``indptr``.

        Returns ``(pos, sub_indptr)`` with ``pos`` indexing the
        original flat arrays — the sparse counterpart of
        :meth:`take_rows`: carving the live rows of a CSR structure
        costs the frontier's nnz, not the full structure's.
        """
        indptr = np.asarray(indptr, dtype=np.intp)
        rows = _check_gather_index("segment_positions", rows, indptr.size - 1)
        starts = indptr[rows]
        lens = indptr[rows + 1] - starts
        sub_indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
        total = int(sub_indptr[-1])
        pos = np.arange(total) + np.repeat(starts - sub_indptr[:-1], lens)
        self.ledger.charge_basic("segment_gather", max(total + rows.size, 1), depth=1)
        return pos, sub_indptr

    def segment_spread(self, v: np.ndarray, indptr: np.ndarray) -> np.ndarray:
        """Distribute one value per segment across that segment's
        entries (``np.repeat`` by segment length)."""
        v = np.asarray(v)
        indptr = np.asarray(indptr, dtype=np.intp)
        if v.shape != (indptr.size - 1,):
            raise InvalidParameterError(
                f"segment_spread needs one value per segment: got {v.shape} "
                f"for {indptr.size - 1} segments"
            )
        out = np.repeat(v, np.diff(indptr))
        self.ledger.charge_basic("segment_spread", max(out.size, 1), depth=1)
        return out

    def scatter_min(self, values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
        """Scatter-combine ``out[i] = min over {values[j] : idx[j] == i}``
        (``+inf`` where no entry lands).

        The column-axis companion of :meth:`segmented_reduce` for a
        row-major edge list: a min-reduction keyed by target index.
        Exact (min is order-independent).
        """
        values = np.asarray(values, dtype=float)
        idx = _check_gather_index("scatter_min", idx, int(size))
        if values.shape != idx.shape:
            raise InvalidParameterError(
                f"scatter_min values shape {values.shape} != idx shape {idx.shape}"
            )
        out = kernels.scatter_min(values, idx, int(size))
        self.ledger.charge_basic("scatter_min", max(values.size + int(size), 1))
        return np.asarray(out)

    def scatter_add(self, values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
        """Scatter-sum ``out[i] = Σ {values[j] : idx[j] == i}``.

        Accumulates in flat-array order (``np.add.at``), which is the
        same every call; like every segmented sum
        it can reassociate relative to a dense row-sum by an ulp.
        """
        values = np.asarray(values, dtype=float)
        idx = _check_gather_index("scatter_add", idx, int(size))
        if values.shape != idx.shape:
            raise InvalidParameterError(
                f"scatter_add values shape {values.shape} != idx shape {idx.shape}"
            )
        out = kernels.scatter_add(values, idx, int(size))
        self.ledger.charge_basic("scatter_add", max(values.size + int(size), 1))
        return np.asarray(out)

    def argsort_segments(self, values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
        """Stable ascending argsort within each segment, as flat
        positions into ``values`` (the one-time presort of a sparse
        distance structure).

        Uniform segments sort as rows with NumPy's default kind, several
        times faster than a stable sort, and re-sort stably only the
        rows whose sorted values do not strictly ascend (a tie, ``±0.0``
        or a NaN): every other row has one ascending order, so the
        result is the stable sort's. Ragged segments use a stable
        two-key sort (segment id, value).
        """
        values = np.asarray(values)
        indptr = np.asarray(indptr, dtype=np.intp)
        n_seg = indptr.size - 1
        lens = np.diff(indptr)
        k = int(lens[0]) if n_seg else 0
        if n_seg and k > 0 and bool(np.all(lens == k)):
            rows = values.reshape(n_seg, k)
            out = np.argsort(rows, axis=1).astype(np.intp, copy=False)
            out += indptr[:-1][:, None]
            ranked = np.take(values, out)
            unsure = ~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1)
            if unsure.any():
                stable = np.argsort(rows[unsure], axis=1, kind="stable")
                out[unsure] = stable + indptr[:-1][unsure, None]
            self.ledger.charge_sort("argsort_segments", values.size, k)
            return out.reshape(-1)
        seg_ids = np.repeat(np.arange(n_seg), lens)
        out = np.lexsort((values, seg_ids)).astype(np.intp)
        self.ledger.charge_sort(
            "argsort_segments", max(values.size, 1), max(int(lens.max()) if lens.size else 1, 1)
        )
        return out

    def pack(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Filter: keep ``values`` where ``mask`` (compaction via a scan)."""
        values = np.asarray(values)
        mask = np.asarray(mask, dtype=bool)
        if values.shape[: mask.ndim] != mask.shape:
            raise InvalidParameterError(
                f"pack mask shape {mask.shape} incompatible with values {values.shape}"
            )
        out = values[mask]
        self.ledger.charge_basic("pack", max(values.size, 1))
        return out

    # -- sorting ---------------------------------------------------------------

    def sort(self, a: np.ndarray) -> np.ndarray:
        """Sort a 1-D vector ascending."""
        a = np.asarray(a)
        if a.ndim != 1:
            raise InvalidParameterError(f"sort requires a vector, got ndim={a.ndim}")
        out = np.sort(a, kind="stable")
        self.ledger.charge_sort("sort", a.size, a.size)
        return out

    def sorted_unique(self, a: np.ndarray) -> np.ndarray:
        """Ascending distinct values of a 1-D vector.

        One sort followed by an adjacent-difference pack (a map + a
        scan-compaction in the §2 model) — the single-primitive
        replacement for the ``np.unique(machine.sort(v))`` pattern,
        which sorted twice at the wall clock while charging the ledger
        once. Charged: one sort of ``|v|`` plus one pack of ``|v|``.

        The result has a stable sort's bytes. Booleans, integers and
        floats sort with NumPy's default kind, several times faster on
        floats: their equal values are byte-equal except ``±0.0`` and
        NaNs, so the one kept zero is set to the input's first zero and
        the NaN tail (every NaN is kept) to the input's NaNs in input
        order. Other dtypes sort stably.
        """
        a = np.asarray(a)
        if a.ndim != 1:
            raise InvalidParameterError(
                f"sorted_unique requires a vector, got ndim={a.ndim}"
            )
        out = np.sort(a, kind=None if a.dtype.kind in "biuf" else "stable")
        self.ledger.charge_sort("sorted_unique", a.size, a.size)
        if out.size:
            keep = np.empty(out.size, dtype=bool)
            keep[0] = True
            np.not_equal(out[1:], out[:-1], out=keep[1:])
            out = out[keep]
            self.ledger.charge_basic("pack", a.size)
            if out.dtype.kind == "f":
                zero = out == 0
                if zero.any():
                    out[zero] = a[np.argmax(a == 0)]
                if np.isnan(out[-1]):
                    nan = np.isnan(a)
                    out[out.size - np.count_nonzero(nan):] = a[nan]
        return out

    # -- randomness --------------------------------------------------------------

    def random_priorities(self, n: int) -> np.ndarray:
        """Distinct random priorities for Luby select steps.

        The paper draws u.a.r. from ``{1..2n⁴}``; a random permutation
        gives the same distinct-with-certainty behavior.
        """
        out = self.rng.permutation(n)
        self.ledger.charge_basic("random", max(n, 1), depth=1)
        return out

    # -- bookkeeping ---------------------------------------------------------------

    def bump_round(self, label: str) -> int:
        """Count one round of the named phase (for E2 round benches)."""
        return self.bump_rounds(label, 1)

    def bump_rounds(self, label: str, count: int) -> int:
        """Count a run of ``count`` rounds of the named phase, only the
        last of which works: one ledger mark, one tracer instant."""
        index = self.ledger.bump_rounds(label, count)
        if self.tracer.enabled:
            self.tracer.instant(
                label, "round", args={"index": index, "work": self.ledger.work}
            )
        return index

    def snapshot(self) -> CostSnapshot:
        """Current ledger totals (subtract later to cost an interval)."""
        return self.ledger.snapshot()


def ensure_machine(
    machine: PramMachine | None = None,
    *,
    backend: "Backend | str | None" = None,
    seed=None,
    tracer=None,
) -> PramMachine:
    """Return ``machine``, or build one on the requested backend.

    The shared helper behind every algorithm entry point's
    ``machine=None`` signature. An explicit machine wins; passing
    ``backend=`` (only :func:`~repro.shard.shard_and_solve` takes one)
    or ``tracer=`` with it is ambiguous and rejected, since the machine
    already carries both. Otherwise a fresh machine is built on the
    named backend, or on the environment default when none is given.
    """
    if machine is not None:
        if backend is not None:
            raise InvalidParameterError(
                "pass either machine= or backend=, not both (the machine "
                "already carries its backend)"
            )
        if tracer is not None:
            raise InvalidParameterError(
                "pass either machine= or tracer=, not both (the machine "
                "already carries its tracer)"
            )
        return machine
    return PramMachine(backend=backend, seed=seed, tracer=tracer)
