"""Sparse facility-location instances (CSR candidate structure).

Every dense solver materializes the full ``n_f × n_c`` distance matrix,
so the reproduction stops where memory does. The paper's work bounds
are stated against the input size ``m``, and the Lemma 3.1 remark
explicitly invites ``O(|E| log |V|)`` sparse execution — this module is
the instance shape that makes ``m = nnz`` real.

A :class:`SparseFacilityLocationInstance` stores a facility-major CSR
structure over the *candidate* connections: entry ``(i, j)`` present
means facility ``i`` may serve client ``j`` at distance ``data``;
absent means **not a candidate connection** (not "distance zero", and
not "infinitely far in the metric" — merely outside the truncated
neighborhood the instance was built with).

Because a client's candidates might all stay closed, every instance
carries an explicit **fallback cost column**: client ``j`` can always
be served at cost ``fallback[j]`` (think: a depot/ship-direct option).
The objective is therefore always well-defined::

    cost(S) = Σ_{i∈S} f_i + Σ_j min( min_{i∈S, (i,j) candidate} d(i,j),
                                      fallback_j )

A *dense-representable* instance (every facility–client pair present,
``fallback ≡ +inf``) evaluates the exact Eq. (1) objective, which is
what the sparse-vs-dense equivalence suite compares against.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.instance import (
    ClusteringInstance,
    FacilityLocationInstance,
    _as_open_indices,
    _check_weights,
)
from repro.metrics.space import MetricSpace
from repro.metrics.validation import _freeze, _owned_array
from repro.util.csr import csr_transpose, rows_are_uniform, validate_csr


class _CsrCandidateShape:
    """Shared CSR-shape members of the sparse instance classes.

    Both sparse instance shapes store their candidate structure as
    ``_indptr``/``_indices``/``_fallback``; the row-expansion and
    dense-representability semantics are defined once here so the two
    classes cannot drift. Subclasses provide ``_n_cols`` — the full
    column count a dense-representable row must reach.
    """

    __slots__ = ()

    @property
    def row_lengths(self) -> np.ndarray:
        """Candidate count per row."""
        return np.diff(self._indptr)

    @property
    def is_dense_representable(self) -> bool:
        """Every candidate pair present and no finite fallback."""
        uniform, k = rows_are_uniform(self._indptr)
        return uniform and k == self._n_cols and not np.any(np.isfinite(self._fallback))

    def rows_flat(self) -> np.ndarray:
        """Row id per candidate entry (the CSR row expansion)."""
        return np.repeat(np.arange(self._indptr.size - 1), self.row_lengths)


def _check_opening_costs(f, n_f: int) -> np.ndarray:
    """Validated opening costs: shape ``(n_f,)``, finite, non-negative."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n_f,):
        raise InvalidInstanceError(f"f must have shape ({n_f},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InvalidInstanceError("distances and costs must be finite")
    if f.size and f.min() < 0:
        raise InvalidInstanceError("distances and opening costs must be non-negative")
    return f


class SparseFacilityLocationInstance(_CsrCandidateShape):
    """A facility-location instance over sparse candidate connections.

    Parameters
    ----------
    indptr, indices, data:
        Facility-major CSR structure: facility ``i``'s candidate
        clients are ``indices[indptr[i]:indptr[i+1]]`` at distances
        ``data[indptr[i]:indptr[i+1]]``. Column indices must be unique
        per row (any order).
    f:
        Length-``n_f`` non-negative opening costs.
    n_clients:
        Number of clients ``|C|`` (columns).
    fallback:
        Length-``n_c`` per-client fallback connection cost (``+inf``
        allowed; the default). A client with no candidate entry **and**
        an infinite fallback would make every objective infinite, so
        that combination is rejected.
    client_weights:
        Optional length-``n_c`` strictly positive multiplicities
        (client ``j`` stands for ``w_j`` co-located demand points);
        ``None`` means unit weights and keeps solvers on the exact
        unweighted code path.
    """

    __slots__ = (
        "_indptr", "_indices", "_data", "_f", "_fallback", "_n_clients",
        "_client_weights", "_unit_weights",
    )

    def __init__(
        self, indptr, indices, data, f, *, n_clients: int, fallback=None,
        client_weights=None,
    ):
        n_clients = int(n_clients)
        if n_clients <= 0:
            raise InvalidInstanceError(f"instance needs >= 1 client, got {n_clients}")
        indptr, indices = validate_csr(
            _owned_array(indptr, np.intp), _owned_array(indices, np.intp), n_clients,
            name="sparse instance",
        )
        data = _owned_array(data, float)
        n_f = indptr.size - 1
        if n_f == 0:
            raise InvalidInstanceError("instance needs >= 1 facility")
        if data.shape != (indices.size,):
            raise InvalidInstanceError(
                f"data must have one value per index, got {data.shape} for nnz={indices.size}"
            )
        f = _check_opening_costs(_owned_array(f, float), n_f)
        if not np.all(np.isfinite(data)):
            raise InvalidInstanceError("distances and costs must be finite")
        if data.size and data.min() < 0:
            raise InvalidInstanceError("distances and opening costs must be non-negative")
        fallback = _owned_array(
            np.full(n_clients, np.inf) if fallback is None else fallback, float
        )
        if fallback.shape != (n_clients,):
            raise InvalidInstanceError(
                f"fallback must have shape ({n_clients},), got {fallback.shape}"
            )
        if fallback.size and fallback.min() < 0:
            raise InvalidInstanceError("fallback costs must be non-negative")
        if np.any(np.isnan(fallback)):
            raise InvalidInstanceError("fallback costs must not be NaN")
        covered = np.zeros(n_clients, dtype=bool)
        covered[indices] = True
        uncovered_inf = ~covered & ~np.isfinite(fallback)
        if np.any(uncovered_inf):
            raise InvalidInstanceError(
                f"{int(uncovered_inf.sum())} client(s) have no candidate facility "
                "and an infinite fallback; the objective would be infinite"
            )
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._f = f
        self._fallback = fallback
        self._n_clients = n_clients
        self._client_weights, self._unit_weights = _check_weights(
            client_weights, n_clients, name="client_weights"
        )

    def with_opening_costs(self, f) -> "SparseFacilityLocationInstance":
        """Same candidate structure with different opening costs.

        Shares the validated structure instead of re-validating it —
        the Lagrangian k-median re-prices one structure per probe.
        """
        out = object.__new__(SparseFacilityLocationInstance)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out._f = _check_opening_costs(_owned_array(f, float), self.n_facilities)
        return out

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, D, f, *, fallback=None, client_weights=None) -> "SparseFacilityLocationInstance":
        """Full CSR over a dense matrix (dense-representable instance)."""
        D = np.asarray(D, dtype=float)
        if D.ndim != 2:
            raise InvalidInstanceError(f"D must be 2-D, got ndim={D.ndim}")
        n_f, n_c = D.shape
        indptr = np.arange(0, n_f * n_c + 1, n_c, dtype=np.intp)
        indices = np.tile(np.arange(n_c, dtype=np.intp), n_f)
        _freeze(indptr, indices)
        return cls(
            indptr, indices, D.ravel(), f, n_clients=n_c, fallback=fallback,
            client_weights=client_weights,
        )

    @classmethod
    def from_instance(cls, instance: FacilityLocationInstance) -> "SparseFacilityLocationInstance":
        """Dense-representable copy of a dense instance (``fallback ≡ +inf``)."""
        return cls.from_dense(
            instance.D,
            instance.f,
            client_weights=None if instance.has_unit_weights else instance.client_weights,
        )

    @classmethod
    def from_scipy(cls, A, f, *, fallback=None) -> "SparseFacilityLocationInstance":
        """Wrap a ``scipy.sparse`` facility×client matrix of distances.

        Stored zeros are legal candidate connections at distance 0;
        *absent* entries are non-candidates (the scipy convention of
        eliminating zeros would conflate the two, so pass matrices with
        explicit zeros retained if distance-0 candidates matter).
        """
        A = A.tocsr()
        return cls(
            A.indptr, A.indices, A.data, f, n_clients=A.shape[1], fallback=fallback
        )

    # -- shape -------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """CSR segment boundaries, length ``n_f + 1`` (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Client id per candidate entry, length ``nnz``."""
        return self._indices

    @property
    def data(self) -> np.ndarray:
        """Distance per candidate entry, length ``nnz``."""
        return self._data

    @property
    def f(self) -> np.ndarray:
        """Opening costs, shape ``(n_f,)``."""
        return self._f

    @property
    def fallback(self) -> np.ndarray:
        """Per-client fallback connection cost, shape ``(n_c,)``."""
        return self._fallback

    @property
    def client_weights(self) -> np.ndarray:
        """Per-client multiplicities, shape ``(n_c,)`` (ones if unset)."""
        if self._client_weights is None:
            return np.ones(self._n_clients)
        return self._client_weights

    @property
    def has_unit_weights(self) -> bool:
        """True when every client weight is 1 (solvers then take the
        exact unweighted code path)."""
        return self._unit_weights

    @property
    def total_weight(self) -> float:
        """``Σ_j w_j`` — the represented demand (``n_c`` when unit)."""
        if self._client_weights is None:
            return float(self._n_clients)
        return float(self._client_weights.sum())

    @property
    def n_facilities(self) -> int:
        """Number of candidate facilities ``|F|`` (CSR rows)."""
        return self._indptr.size - 1

    @property
    def n_clients(self) -> int:
        """Number of clients ``|C|`` (CSR columns)."""
        return self._n_clients

    @property
    def nnz(self) -> int:
        """Number of candidate connections ``|E|``."""
        return self._indices.size

    @property
    def m(self) -> int:
        """The paper's input-size parameter — ``nnz`` for sparse instances."""
        return self.nnz

    @property
    def _n_cols(self) -> int:
        return self._n_clients

    # -- dense bridge ------------------------------------------------------

    def to_dense(self) -> FacilityLocationInstance:
        """Convert a dense-representable instance back to the dense shape.

        Raises for truncated instances: a missing candidate pair has no
        faithful dense distance (absent ≠ any finite value), so the
        bridge exists exactly on the overlap where the equivalence
        suite compares solvers.
        """
        if not self.is_dense_representable:
            raise InvalidInstanceError(
                "only dense-representable instances (all pairs present, "
                "no finite fallback) can convert to a dense instance"
            )
        n_f, n_c = self.n_facilities, self.n_clients
        D = np.empty((n_f, n_c))
        rows = self.rows_flat()
        D[rows, self._indices] = self._data
        _freeze(D)
        return FacilityLocationInstance(
            D, self._f,
            client_weights=None if self._unit_weights else self._client_weights,
        )

    # -- objective ---------------------------------------------------------

    def connection_distances(self, opened) -> np.ndarray:
        """Per-client service cost under open set ``opened``: the
        minimum candidate distance to an open facility, floored at
        ``+inf`` and capped by the fallback column."""
        idx = _as_open_indices(opened, self.n_facilities)
        open_mask = np.zeros(self.n_facilities, dtype=bool)
        open_mask[idx] = True
        rows = self.rows_flat()
        best = np.full(self._n_clients, np.inf)
        sel = open_mask[rows]
        np.minimum.at(best, self._indices[sel], self._data[sel])
        return np.minimum(best, self._fallback)

    def assignment(self, opened) -> np.ndarray:
        """Closest-open-candidate assignment; ``-1`` marks clients
        served by their fallback."""
        idx = _as_open_indices(opened, self.n_facilities)
        open_mask = np.zeros(self.n_facilities, dtype=bool)
        open_mask[idx] = True
        rows = self.rows_flat()
        sel = open_mask[rows]
        best = np.full(self._n_clients, np.inf)
        np.minimum.at(best, self._indices[sel], self._data[sel])
        out = np.full(self._n_clients, -1, dtype=np.intp)
        use_facility = best <= self._fallback
        # first entry attaining the minimum, in row-major order
        cols = self._indices[sel]
        hit = (self._data[sel] == best[cols]) & use_facility[cols]
        # reversed scatter keeps the first (lowest facility id) winner
        out[cols[hit][::-1]] = rows[sel][hit][::-1]
        return out

    def facility_cost(self, opened) -> float:
        """Opening-cost part of the objective: ``Σ_{i∈S} f_i``."""
        idx = _as_open_indices(opened, self.n_facilities)
        return float(np.sum(self._f[idx]))

    def connection_cost(self, opened) -> float:
        """Connection part: ``Σ_j w_j · min(d(j, S ∩ candidates), fallback_j)``."""
        d = self.connection_distances(opened)
        if self._unit_weights:
            return float(np.sum(d))
        return float(np.sum(self._client_weights * d))

    def cost(self, opened) -> float:
        """``Σ f_i + Σ_j min(d(j, S ∩ candidates), fallback_j)``."""
        return self.facility_cost(opened) + self.connection_cost(opened)

    def __repr__(self) -> str:
        return (
            f"SparseFacilityLocationInstance(n_f={self.n_facilities}, "
            f"n_c={self.n_clients}, nnz={self.nnz})"
        )


# --------------------------------------------------------------------------
# Sparse clustering instances (§6.1 / §7 over CSR candidate structures)
# --------------------------------------------------------------------------

class SparseClusteringInstance(_CsrCandidateShape):
    """A k-median / k-means / k-center instance over sparse candidates.

    Every node is simultaneously a client and a candidate center (the
    paper's §2 convention), but only the *stored* node pairs are
    candidate assignments: entry ``(j, i)`` present means node ``j``
    may be served by center ``i`` at distance ``data``; absent means
    "not a candidate assignment" (outside the truncated neighborhood,
    not "distance zero").

    Structure requirements, validated on construction:

    * **node-major CSR**, square, column ids strictly ascending per row
      (so segmented argmins break ties exactly like the dense kernels);
    * **symmetric** in both structure and values — a candidate pair is
      a candidate pair from both ends, as in a metric;
    * the **diagonal is always stored at distance 0** — a node is
      always a candidate center of itself, which keeps every objective
      well-defined without a coverage precondition.

    Because a node's stored candidates might all stay closed, every
    instance carries an explicit **fallback cost column**: node ``j``
    can always be served at cost ``fallback[j]`` (``+inf`` on
    dense-representable instances). Objectives are therefore total::

        service(j, S) = min( min_{i∈S, (j,i) stored} d(j, i),
                             fallback_j )

    A *dense-representable* instance (every pair present, ``fallback ≡
    +inf``) evaluates the exact §2 objectives, which is what the
    sparse-vs-dense equivalence suite compares against.
    """

    __slots__ = ("_indptr", "_indices", "_data", "_fallback", "_k", "_n", "_weights", "_unit_weights")

    def __init__(self, indptr, indices, data, k, *, fallback=None, weights=None):
        indptr = _owned_array(indptr, np.intp)
        n = indptr.size - 1
        if n <= 0:
            raise InvalidInstanceError("instance needs >= 1 node")
        indptr, indices = validate_csr(
            indptr, _owned_array(indices, np.intp), n,
            name="sparse clustering instance", require_sorted=True,
        )
        data = _owned_array(data, float)
        if data.shape != (indices.size,):
            raise InvalidInstanceError(
                f"data must have one value per index, got {data.shape} for nnz={indices.size}"
            )
        if not np.all(np.isfinite(data)):
            raise InvalidInstanceError("distances must be finite")
        if data.size and data.min() < 0:
            raise InvalidInstanceError("distances must be non-negative")
        k = int(k)
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
        fallback = _owned_array(np.full(n, np.inf) if fallback is None else fallback, float)
        if fallback.shape != (n,):
            raise InvalidInstanceError(
                f"fallback must have shape ({n},), got {fallback.shape}"
            )
        if np.any(np.isnan(fallback)):
            raise InvalidInstanceError("fallback costs must not be NaN")
        if fallback.size and fallback.min() < 0:
            raise InvalidInstanceError("fallback costs must be non-negative")
        rows = np.repeat(np.arange(n), np.diff(indptr))
        diag = indices == rows
        diag_count = np.bincount(rows[diag], minlength=n)
        if not np.all(diag_count == 1):
            missing = int(np.flatnonzero(diag_count == 0)[0]) if np.any(diag_count == 0) else -1
            raise InvalidInstanceError(
                "every node must store itself as a candidate center "
                f"(diagonal entry missing for node {missing})"
            )
        if np.any(data[diag] != 0.0):
            raise InvalidInstanceError("diagonal candidate distances must be 0")
        # Symmetry of structure *and* values. With all n pairs stored per
        # (strictly ascending) row the structure is the full square, and
        # the values must equal their transpose. Otherwise compare with
        # scipy's transpose; the +1 shift keeps stored zeros (the
        # diagonal) distinguishable from absent entries there.
        uniform, width = rows_are_uniform(indptr)
        if uniform and width == n:
            square = data.reshape(n, n)
            symmetric = np.array_equal(square, square.T)
        else:
            from scipy import sparse as _sp

            M = _sp.csr_matrix((data + 1.0, indices.copy(), indptr.copy()), shape=(n, n))
            symmetric = (M != M.T).nnz == 0
        if not symmetric:
            raise InvalidInstanceError(
                "candidate structure must be symmetric (same pairs and "
                "distances from both ends)"
            )
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._fallback = fallback
        self._k = k
        self._n = n
        self._weights, self._unit_weights = _check_weights(weights, n)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(cls, D, k, *, fallback=None, weights=None) -> "SparseClusteringInstance":
        """Full CSR over a dense ``n × n`` matrix (dense-representable)."""
        D = np.asarray(D, dtype=float)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise InvalidInstanceError(f"D must be square, got shape {D.shape}")
        n = D.shape[0]
        indptr = np.arange(0, n * n + 1, n, dtype=np.intp)
        indices = np.tile(np.arange(n, dtype=np.intp), n)
        _freeze(indptr, indices)
        return cls(indptr, indices, D.ravel(), k, fallback=fallback, weights=weights)

    @classmethod
    def from_instance(cls, instance: ClusteringInstance) -> "SparseClusteringInstance":
        """Dense-representable copy of a dense instance (``fallback ≡ +inf``)."""
        return cls.from_dense(
            instance.D, instance.k,
            weights=None if instance.has_unit_weights else instance.weights,
        )

    # -- shape -------------------------------------------------------------

    @property
    def indptr(self) -> np.ndarray:
        """CSR segment boundaries, length ``n + 1`` (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Candidate center id per entry, length ``nnz``."""
        return self._indices

    @property
    def data(self) -> np.ndarray:
        """Distance per candidate entry, length ``nnz``."""
        return self._data

    @property
    def fallback(self) -> np.ndarray:
        """Per-node fallback service cost, shape ``(n,)``."""
        return self._fallback

    @property
    def weights(self) -> np.ndarray:
        """Per-node multiplicities, shape ``(n,)`` (ones if unset)."""
        if self._weights is None:
            return np.ones(self._n)
        return self._weights

    @property
    def has_unit_weights(self) -> bool:
        """True when every node weight is 1 (solvers then take the
        exact unweighted code path)."""
        return self._unit_weights

    @property
    def total_weight(self) -> float:
        """``Σ_j w_j`` — the represented demand (``n`` when unit)."""
        if self._weights is None:
            return float(self._n)
        return float(self._weights.sum())

    @property
    def k(self) -> int:
        """Center budget."""
        return self._k

    @property
    def n(self) -> int:
        """Number of nodes (each a client and a candidate center)."""
        return self._n

    @property
    def nnz(self) -> int:
        """Number of stored candidate pairs ``|E|`` (diagonal included)."""
        return self._indices.size

    @property
    def m(self) -> int:
        """The paper's input-size parameter — ``nnz`` for sparse instances."""
        return self.nnz

    @property
    def _n_cols(self) -> int:
        return self._n

    def with_budget(self, k: int) -> "SparseClusteringInstance":
        """Same candidate structure with a different center budget."""
        return SparseClusteringInstance(
            self._indptr, self._indices, self._data, k, fallback=self._fallback,
            weights=self._weights,
        )

    # -- dense bridge ------------------------------------------------------

    def to_dense(self) -> ClusteringInstance:
        """Convert a dense-representable instance back to the dense shape.

        Raises for truncated instances: an absent candidate pair has no
        faithful dense distance, so the bridge exists exactly on the
        overlap where the equivalence suite compares solvers.
        """
        if not self.is_dense_representable:
            raise InvalidInstanceError(
                "only dense-representable instances (all pairs present, "
                "no finite fallback) can convert to a dense instance"
            )
        D = np.empty((self._n, self._n))
        D[self.rows_flat(), self._indices] = self._data
        _freeze(D)
        return ClusteringInstance(
            MetricSpace(D, validate=False), self._k, weights=self._weights
        )

    # -- objectives --------------------------------------------------------

    def _center_distances(self, centers) -> np.ndarray:
        idx = _as_open_indices(centers, self._n)
        open_mask = np.zeros(self._n, dtype=bool)
        open_mask[idx] = True
        sel = open_mask[self._indices]
        best = np.full(self._n, np.inf)
        np.minimum.at(best, self.rows_flat()[sel], self._data[sel])
        return np.minimum(best, self._fallback)

    def check_budget(self, centers) -> np.ndarray:
        """Validate ``|centers| ≤ k``; return the center index array."""
        idx = _as_open_indices(centers, self._n)
        if idx.size > self._k:
            raise InvalidParameterError(
                f"solution opens {idx.size} centers but k={self._k}"
            )
        return idx

    def kmedian_cost(self, centers) -> float:
        """``Σ_j w_j · service(j, S)`` — the k-median objective (fallback-capped)."""
        d = self._center_distances(centers)
        if self._unit_weights:
            return float(np.sum(d))
        return float(np.sum(self._weights * d))

    def kmeans_cost(self, centers) -> float:
        """``Σ_j w_j · service(j, S)²`` — the k-means objective (fallback-capped)."""
        d = self._center_distances(centers)
        if self._unit_weights:
            return float(np.sum(d * d))
        return float(np.sum(self._weights * d * d))

    def kcenter_cost(self, centers) -> float:
        """``max_j service(j, S)`` — the bottleneck objective
        (fallback-capped, weight-invariant: multiplicities duplicate
        points in place)."""
        return float(np.max(self._center_distances(centers)))

    def __repr__(self) -> str:
        return (
            f"SparseClusteringInstance(n={self._n}, k={self._k}, nnz={self.nnz})"
        )


def _symmetrized_clustering_csr(
    n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union the edge list with its transpose and the zero diagonal,
    dedupe, and return a sorted node-major CSR — the shared tail of
    every clustering sparsifier. ``O(nnz log nnz)``.

    One sort on the key ``r·n + c`` orders the pairs as a two-key sort
    on ``(r, c)`` would (``0 <= c < n``), and a duplicate pair keeps its
    first occurrence. The sort is NumPy's default kind, which may
    permute equal keys; the smallest original index in each run of
    equal keys is the occurrence a stable sort keeps first, so the
    output is the stable sort's byte for byte."""
    diag = np.arange(n, dtype=np.intp)
    r = np.concatenate([rows, cols, diag])
    c = np.concatenate([cols, rows, diag])
    v = np.concatenate([vals, vals, np.zeros(n)])
    key = r.astype(np.int64, copy=False) * n + c
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    first = np.minimum.reduceat(order, starts)
    r, c, v = r[first], c[first], v[first]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n)))).astype(np.intp)
    c = c.astype(np.intp, copy=False)
    _freeze(indptr, c, v)
    return indptr, c, v


def _knn_sparsify_clustering(
    instance: ClusteringInstance, neighbors: int, slack: float
) -> SparseClusteringInstance:
    """Clustering branch of :func:`knn_sparsify` (see its docstring)."""
    n = instance.n
    if not 1 <= int(neighbors) <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {neighbors}")
    neighbors = int(neighbors)
    D = instance.D
    near = np.argpartition(D, neighbors - 1, axis=1)[:, :neighbors]
    dist = np.take_along_axis(D, near, axis=1)
    radius = dist.max(axis=1)
    rows = np.repeat(np.arange(n, dtype=np.intp), neighbors)
    indptr, indices, data = _symmetrized_clustering_csr(
        n, rows, near.ravel().astype(np.intp), dist.ravel()
    )
    return SparseClusteringInstance(
        indptr, indices, data, instance.k, fallback=(1.0 + slack) * radius,
        weights=None if instance.has_unit_weights else instance.weights,
    )


def _threshold_sparsify_clustering(
    instance: ClusteringInstance, radius: float
) -> SparseClusteringInstance:
    """Clustering branch of :func:`threshold_sparsify` (see its docstring)."""
    t = float(radius)
    if t <= 0:
        raise InvalidParameterError(f"radius must be > 0, got {radius}")
    D = instance.D
    n = instance.n
    keep = D <= t
    rows, cols = np.nonzero(keep)
    indptr, indices, data = _symmetrized_clustering_csr(
        n, rows.astype(np.intp), cols.astype(np.intp), D[keep]
    )
    return SparseClusteringInstance(
        indptr, indices, data, instance.k, fallback=np.full(n, t),
        weights=None if instance.has_unit_weights else instance.weights,
    )


# --------------------------------------------------------------------------
# Sparsifiers: dense instance -> sparse candidate structure
# --------------------------------------------------------------------------

def knn_sparsify(
    instance: FacilityLocationInstance,
    k: int,
    *,
    fallback_slack: float = 1.0,
) -> SparseFacilityLocationInstance:
    """Keep each client's ``k`` nearest facilities as its candidates.

    The fallback is ``(1 + fallback_slack) ×`` the client's truncation
    radius (its ``k``-th nearest distance): any solution the sparse
    model charges a fallback for could have been served at roughly that
    radius in the dense instance, which keeps sparse and dense optima
    comparable when ``k`` covers the dense optimum's assignments (see
    README, "Sparse instances").

    A :class:`~repro.metrics.instance.ClusteringInstance` is accepted
    too: ``k`` is then the number of nearest *nodes* kept per node, the
    edge set is symmetrized (a candidate pair is kept if either end
    keeps it) with the zero diagonal always present, and the result is
    a :class:`SparseClusteringInstance` with the same center budget.
    """
    slack = float(fallback_slack)
    if slack < 0:
        raise InvalidParameterError(f"fallback_slack must be >= 0, got {fallback_slack}")
    if isinstance(instance, ClusteringInstance):
        return _knn_sparsify_clustering(instance, k, slack)
    if not 1 <= int(k) <= instance.n_facilities:
        raise InvalidParameterError(
            f"k must be in [1, {instance.n_facilities}], got {k}"
        )
    k = int(k)
    D = instance.D
    n_f, n_c = D.shape
    # Exactly k candidates per client (argpartition breaks distance ties
    # deterministically), so nnz = k·n_c even on fully tied metrics — a
    # radius-threshold mask would keep every tied entry instead.
    near = np.argpartition(D, k - 1, axis=0)[:k, :]  # (k, n_c) facility ids
    dist = np.take_along_axis(D, near, axis=0)
    radius = dist.max(axis=0)
    # Transpose the client-major k-NN lists into facility-major CSR.
    c_indptr = np.arange(0, n_c * k + 1, k, dtype=np.intp)
    t_indptr, t_clients, entry = csr_transpose(c_indptr, near.T.ravel(), n_f)
    t_dist = dist.T.ravel()[entry]
    _freeze(t_indptr, t_clients, t_dist)
    return SparseFacilityLocationInstance(
        t_indptr,
        t_clients,
        t_dist,
        instance.f,
        n_clients=n_c,
        fallback=(1.0 + slack) * radius,
        client_weights=None if instance.has_unit_weights else instance.client_weights,
    )


def threshold_sparsify(
    instance: FacilityLocationInstance,
    epsilon: float,
) -> SparseFacilityLocationInstance:
    """Keep the ``(1+ε)``-competitive candidates of each client.

    Entry ``(i, j)`` survives iff ``f_i + d(i, j) ≤ (1+ε) · γ_j`` where
    ``γ_j = min_i (f_i + d(i, j))`` is the cheapest way to serve ``j``
    alone (the Eq. (2) quantity). The fallback is ``γ_j`` itself — the
    cost of privately opening ``j``'s best facility — so the sparse
    objective of any solution is at most a ``(1+ε)``-factor plus the
    singleton bound away from its dense value.

    A :class:`~repro.metrics.instance.ClusteringInstance` is accepted
    too (clustering has no opening costs, so no competitiveness ratio):
    the second argument is then an absolute distance **radius** — node
    pairs with ``d ≤ radius`` survive (plus the zero diagonal), and the
    fallback is the radius itself, the floor on any absent assignment's
    cost. Returns a :class:`SparseClusteringInstance`.
    """
    if isinstance(instance, ClusteringInstance):
        return _threshold_sparsify_clustering(instance, epsilon)
    eps = float(epsilon)
    if eps <= 0:
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon}")
    D = instance.D
    total = D + instance.f[:, None]
    gamma_j = total.min(axis=0)
    keep = total <= (1.0 + eps) * gamma_j[None, :]
    counts = keep.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    cols = np.broadcast_to(np.arange(instance.n_clients), D.shape)[keep]
    dist = D[keep]
    _freeze(indptr, cols, dist)
    return SparseFacilityLocationInstance(
        indptr, cols, dist, instance.f, n_clients=instance.n_clients,
        fallback=gamma_j.copy(),
        client_weights=None if instance.has_unit_weights else instance.client_weights,
    )
