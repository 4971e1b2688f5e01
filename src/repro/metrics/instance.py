"""Problem-instance objects for the four facility-location problems.

Two instance shapes cover the whole paper:

* :class:`FacilityLocationInstance` — facilities with opening costs and
  clients, for (metric) uncapacitated facility location (§4, §5, §6.2).
  The core data is the ``n_f × n_c`` distance matrix ``D[i, j] = d(i, j)``
  and cost vector ``f``; ``m = n_f · n_c`` is the paper's input size.
* :class:`ClusteringInstance` — a node set where every node is a client
  and a candidate center, plus the budget ``k``, for k-median, k-means,
  and k-center (§6.1, §7).

Both evaluate their own objectives (Eq. 1 and the §2 definitions), so a
"solution" anywhere in this library is simply a set of open facilities
or centers — assignments are always implied (closest open facility).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.metrics.space import MetricSpace
from repro.metrics.validation import _freeze, _owned_array


def _check_weights(weights, n: int, *, name: str = "weights") -> tuple:
    """Validate a point/client weight vector.

    Returns ``(weights_or_None, is_unit)``. ``None`` means "unit
    weights" (the default); an explicit all-ones vector is stored but
    flagged unit so solvers can take the exact unweighted code path —
    the byte-identical guarantee the weighted subsystem rests on.
    Weights are multiplicities: ``w_j`` co-located copies of point
    ``j`` (possibly fractional, from coreset aggregation), so they must
    be strictly positive and finite.
    """
    if weights is None:
        return None, True
    weights = _owned_array(weights, float)
    if weights.shape != (n,):
        raise InvalidInstanceError(f"{name} must have shape ({n},), got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise InvalidInstanceError(f"{name} must be finite")
    if weights.size and weights.min() <= 0:
        raise InvalidInstanceError(f"{name} must be strictly positive")
    return weights, bool(np.all(weights == 1.0))


def _as_open_indices(opened, n: int) -> np.ndarray:
    """Normalize a facility set given as indices or boolean mask."""
    arr = np.asarray(opened)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise InvalidParameterError(f"boolean facility mask must have shape ({n},), got {arr.shape}")
        idx = np.flatnonzero(arr)
    else:
        idx = np.unique(arr.astype(int))
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise InvalidParameterError(f"facility index out of range [0, {n}): {idx}")
    if idx.size == 0:
        raise InvalidParameterError("a solution must open at least one facility")
    return idx


class FacilityLocationInstance:
    """A metric uncapacitated facility-location instance.

    Parameters
    ----------
    D:
        ``n_f × n_c`` matrix of facility-to-client distances.
    f:
        Length-``n_f`` vector of non-negative opening costs.

        The instance keeps ``D`` and ``f`` read-only. It copies a
        caller's array that is, or views, a writable array, so the
        caller can still write its own; a read-only array is kept.
    metric / facility_ids / client_ids:
        Optional underlying :class:`MetricSpace` with the index sets
        ``F`` and ``C``, for analyses needing client–client or
        facility–facility distances. ``D`` must equal the corresponding
        block of the metric.
    client_weights:
        Optional length-``n_c`` strictly positive multiplicities:
        client ``j`` stands for ``w_j`` co-located demand points (the
        shard-and-conquer coreset representation). ``None`` (default)
        means unit weights; solvers then take the exact unweighted code
        path, byte-identical to instances built without the parameter.
    """

    __slots__ = ("_D", "_f", "metric", "facility_ids", "client_ids", "_client_weights", "_unit_weights")

    def __init__(
        self,
        D: np.ndarray,
        f: np.ndarray,
        *,
        metric: MetricSpace | None = None,
        facility_ids: np.ndarray | None = None,
        client_ids: np.ndarray | None = None,
        client_weights: np.ndarray | None = None,
    ):
        D = _owned_array(D, float)
        f = _owned_array(f, float)
        if D.ndim != 2:
            raise InvalidInstanceError(f"D must be 2-D (facilities × clients), got ndim={D.ndim}")
        if D.shape[0] == 0 or D.shape[1] == 0:
            raise InvalidInstanceError(f"instance needs ≥1 facility and ≥1 client, got D shape {D.shape}")
        if f.shape != (D.shape[0],):
            raise InvalidInstanceError(f"f must have shape ({D.shape[0]},), got {f.shape}")
        if not (np.all(np.isfinite(D)) and np.all(np.isfinite(f))):
            raise InvalidInstanceError("distances and costs must be finite")
        if np.any(D < 0) or np.any(f < 0):
            raise InvalidInstanceError("distances and opening costs must be non-negative")
        if (metric is None) != (facility_ids is None) or (metric is None) != (client_ids is None):
            raise InvalidInstanceError("metric, facility_ids, client_ids must be given together")
        if metric is not None:
            facility_ids = np.asarray(facility_ids, dtype=int)
            client_ids = np.asarray(client_ids, dtype=int)
            block = metric.submatrix(facility_ids, client_ids)
            if block.shape != D.shape or np.max(np.abs(block - D)) > 1e-9:
                raise InvalidInstanceError("D disagrees with the underlying metric block")
        self._D = D
        self._f = f
        self.metric = metric
        self.facility_ids = facility_ids
        self.client_ids = client_ids
        self._client_weights, self._unit_weights = _check_weights(
            client_weights, D.shape[1], name="client_weights"
        )

    @classmethod
    def from_metric(
        cls, metric: MetricSpace, facility_ids, client_ids, f, *, client_weights=None
    ) -> "FacilityLocationInstance":
        """Carve an instance out of a metric space by index sets."""
        facility_ids = np.asarray(facility_ids, dtype=int)
        client_ids = np.asarray(client_ids, dtype=int)
        D = metric.submatrix(facility_ids, client_ids)
        _freeze(D)
        return cls(
            D, f, metric=metric, facility_ids=facility_ids, client_ids=client_ids,
            client_weights=client_weights,
        )

    # -- shape ------------------------------------------------------------

    @property
    def D(self) -> np.ndarray:
        """Facility-to-client distances, shape ``(n_f, n_c)`` (read-only)."""
        return self._D

    @property
    def f(self) -> np.ndarray:
        """Opening costs, shape ``(n_f,)`` (read-only)."""
        return self._f

    @property
    def n_facilities(self) -> int:
        """Number of candidate facilities ``|F|``."""
        return self._D.shape[0]

    @property
    def n_clients(self) -> int:
        """Number of clients ``|C|``."""
        return self._D.shape[1]

    @property
    def m(self) -> int:
        """The paper's input-size parameter ``m = n_f · n_c``."""
        return self._D.size

    @property
    def client_weights(self) -> np.ndarray:
        """Per-client multiplicities, shape ``(n_c,)`` (ones if unset)."""
        if self._client_weights is None:
            return np.ones(self.n_clients)
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
            return float(self.n_clients)
        return float(self._client_weights.sum())

    # -- objective (Eq. 1) ---------------------------------------------------

    def connection_distances(self, opened) -> np.ndarray:
        """``d(j, F_S)`` for every client ``j`` given open set ``F_S``."""
        idx = _as_open_indices(opened, self.n_facilities)
        return np.min(self._D[idx, :], axis=0)

    def assignment(self, opened) -> np.ndarray:
        """Closest-open-facility assignment (facility index per client)."""
        idx = _as_open_indices(opened, self.n_facilities)
        return idx[np.argmin(self._D[idx, :], axis=0)]

    def facility_cost(self, opened) -> float:
        """Opening-cost part of Eq. (1): ``Σ_{i∈F_S} f_i``."""
        idx = _as_open_indices(opened, self.n_facilities)
        return float(np.sum(self._f[idx]))

    def connection_cost(self, opened) -> float:
        """Connection part of Eq. (1): ``Σ_j w_j · d(j, F_S)``."""
        d = self.connection_distances(opened)
        if self._unit_weights:
            return float(np.sum(d))
        return float(np.sum(self._client_weights * d))

    def cost(self, opened) -> float:
        """The facility-location objective ``Σ f_i + Σ_j w_j d(j, F_S)``."""
        return self.facility_cost(opened) + self.connection_cost(opened)

    def __repr__(self) -> str:
        return f"FacilityLocationInstance(n_f={self.n_facilities}, n_c={self.n_clients})"


class ClusteringInstance:
    """A k-median / k-means / k-center instance over a metric space.

    Every node is simultaneously a client and a candidate center, per
    the paper's §2 conventions for these problems.

    ``weights`` (optional, strictly positive) are node multiplicities:
    node ``j`` stands for ``w_j`` co-located demand points, the
    representation shard-and-conquer coresets merge into. They scale
    the k-median/k-means objectives (``Σ w_j d^p``) and leave the
    bottleneck k-center objective unchanged (the farthest of ``w_j``
    co-located copies is the copy itself). ``None`` means unit weights,
    and solvers then run the exact unweighted code path.
    """

    __slots__ = ("space", "k", "_weights", "_unit_weights")

    def __init__(self, space: MetricSpace, k: int, *, weights=None):
        if not isinstance(space, MetricSpace):
            raise InvalidInstanceError("ClusteringInstance requires a MetricSpace")
        k = int(k)
        if not 1 <= k <= space.n:
            raise InvalidParameterError(f"k must be in [1, {space.n}], got {k}")
        self.space = space
        self.k = k
        self._weights, self._unit_weights = _check_weights(weights, space.n)

    @property
    def n(self) -> int:
        """Number of nodes (each is a client and a candidate center)."""
        return self.space.n

    @property
    def D(self) -> np.ndarray:
        """Full ``n × n`` distance matrix (read-only)."""
        return self.space.D

    @property
    def weights(self) -> np.ndarray:
        """Per-node multiplicities, shape ``(n,)`` (ones if unset)."""
        if self._weights is None:
            return np.ones(self.n)
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
            return float(self.n)
        return float(self._weights.sum())

    # -- objectives -----------------------------------------------------------

    def _center_distances(self, centers) -> np.ndarray:
        centers = _as_open_indices(centers, self.n)
        return np.min(self.space.D[:, centers], axis=1)

    def check_budget(self, centers) -> np.ndarray:
        """Validate ``|centers| ≤ k``; return the center index array."""
        idx = _as_open_indices(centers, self.n)
        if idx.size > self.k:
            raise InvalidParameterError(f"solution opens {idx.size} centers but k={self.k}")
        return idx

    def kmedian_cost(self, centers) -> float:
        """``Σ_j w_j · d(j, F_S)`` — the k-median objective."""
        d = self._center_distances(centers)
        if self._unit_weights:
            return float(np.sum(d))
        return float(np.sum(self._weights * d))

    def kmeans_cost(self, centers) -> float:
        """``Σ_j w_j · d²(j, F_S)`` — the k-means objective (general metric)."""
        d = self._center_distances(centers)
        if self._unit_weights:
            return float(np.sum(d * d))
        return float(np.sum(self._weights * d * d))

    def kcenter_cost(self, centers) -> float:
        """``max_j d(j, F_S)`` — the k-center (bottleneck) objective.

        Weight-invariant: multiplicities duplicate points in place, and
        the max over co-located copies is the copy itself.
        """
        return float(np.max(self._center_distances(centers)))

    def __repr__(self) -> str:
        return f"ClusteringInstance(n={self.n}, k={self.k})"
