"""Workload generators for benchmarks, tests, and examples.

The paper proves worst-case guarantees over *all* metric instances and
defers experiments; these generators provide the synthetic workloads the
reproduction measures on. They cover the motivating domains from the
paper's introduction (clustering for machine learning, graph metrics for
network design) plus adversarial shapes that stress the ``(1+ε)``-slack
mechanism (many near-tied stars).

All generators take a ``seed`` and are fully deterministic given one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.metrics.instance import ClusteringInstance, FacilityLocationInstance
from repro.metrics.space import MetricSpace
from repro.metrics.validation import _freeze
from repro.util.rng import ensure_rng
from repro.util.validation import check_k, check_positive_int


# --------------------------------------------------------------------------
# Point-set metric spaces (for clustering problems)
# --------------------------------------------------------------------------

def euclidean_points(n: int, *, dim: int = 2, seed=None) -> MetricSpace:
    """Uniform random points in the unit cube with the Euclidean metric."""
    check_positive_int(n, name="n")
    check_positive_int(dim, name="dim")
    rng = ensure_rng(seed)
    return MetricSpace.from_points(rng.random((n, dim)))


def clustered_points(
    n: int,
    *,
    n_clusters: int = 4,
    dim: int = 2,
    spread: float = 0.05,
    seed=None,
) -> MetricSpace:
    """Gaussian blobs: ``n_clusters`` centers in the unit cube, points
    scattered around them with standard deviation ``spread``.

    The classic k-means/k-median workload: well-separated ground-truth
    clusters make the optimal objective predictable.
    """
    check_positive_int(n, name="n")
    check_k(n_clusters, n, name="n_clusters")
    rng = ensure_rng(seed)
    centers = rng.random((n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=n)
    pts = centers[labels] + rng.normal(scale=spread, size=(n, dim))
    return MetricSpace.from_points(pts)


def grid_points(width: int, height: int | None = None, *, p: float = 1.0) -> MetricSpace:
    """All integer grid points of a ``width × height`` rectangle.

    ``p=1`` (Manhattan) mirrors street networks; distances take few
    distinct values, which stresses tie-breaking in every algorithm.
    """
    check_positive_int(width, name="width")
    height = width if height is None else check_positive_int(height, name="height")
    xs, ys = np.meshgrid(np.arange(width), np.arange(height), indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    return MetricSpace.from_points(pts, p=p)


# --------------------------------------------------------------------------
# Facility-location instances
# --------------------------------------------------------------------------

def _split_instance(
    space: MetricSpace,
    n_f: int,
    n_c: int,
    rng: np.random.Generator,
    cost_range: tuple[float, float],
    cost_scale: float | None,
) -> FacilityLocationInstance:
    """Designate the first ``n_f`` points facilities, the rest clients,
    and draw opening costs.

    Costs default to ``uniform(cost_range) × median-distance × √n_c`` —
    scaled so the facility/connection tradeoff is genuinely contested
    (opening everything and opening one facility are both suboptimal).
    """
    facility_ids = np.arange(n_f)
    client_ids = np.arange(n_f, n_f + n_c)
    D = space.submatrix(facility_ids, client_ids)
    if cost_scale is None:
        base = float(np.median(D)) if D.size else 1.0
        cost_scale = max(base, 1e-12) * np.sqrt(n_c)
    lo, hi = cost_range
    if not 0 <= lo <= hi:
        raise InvalidParameterError(f"cost_range must satisfy 0 <= lo <= hi, got {cost_range}")
    f = rng.uniform(lo, hi, size=n_f) * cost_scale
    _freeze(D, f)
    return FacilityLocationInstance(
        D, f, metric=space, facility_ids=facility_ids, client_ids=client_ids
    )


def euclidean_instance(
    n_f: int,
    n_c: int,
    *,
    dim: int = 2,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """Facilities and clients uniform in the unit cube (Euclidean metric)."""
    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    rng = ensure_rng(seed)
    space = MetricSpace.from_points(rng.random((n_f + n_c, dim)))
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


def clustered_instance(
    n_f: int,
    n_c: int,
    *,
    n_clusters: int = 4,
    dim: int = 2,
    spread: float = 0.05,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """Clients in Gaussian blobs; facilities near blob centers and at
    random fill-in locations — the "warehouse placement" shape."""
    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    rng = ensure_rng(seed)
    centers = rng.random((n_clusters, dim))
    labels = rng.integers(0, n_clusters, size=n_c)
    clients = centers[labels] + rng.normal(scale=spread, size=(n_c, dim))
    n_near = min(n_clusters, n_f)
    near = centers[:n_near] + rng.normal(scale=spread, size=(n_near, dim))
    fill = rng.random((n_f - n_near, dim))
    pts = np.vstack([near, fill, clients])
    space = MetricSpace.from_points(pts)
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


def graph_instance(
    G,
    n_f: int,
    n_c: int,
    *,
    weight: str = "weight",
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """Shortest-path metric over a (connected) networkx graph.

    Facility/client roles are assigned to distinct random nodes; the
    graph must have at least ``n_f + n_c`` nodes. Models placing servers
    in a network (the paper's network-design motivation).
    """
    import networkx as nx
    from scipy.sparse.csgraph import shortest_path

    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    n = G.number_of_nodes()
    if n < n_f + n_c:
        raise InvalidParameterError(f"graph has {n} nodes; need n_f+n_c={n_f + n_c}")
    if not nx.is_connected(G):
        raise InvalidParameterError("graph metric requires a connected graph")
    rng = ensure_rng(seed)
    adj = nx.to_scipy_sparse_array(G, weight=weight, format="csr")
    full = shortest_path(adj, method="D", directed=False)
    chosen = rng.choice(n, size=n_f + n_c, replace=False)
    D_all = full[np.ix_(chosen, chosen)]
    _freeze(D_all)
    space = MetricSpace(D_all, validate=False)
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


def random_metric_instance(
    n_f: int,
    n_c: int,
    *,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """A non-geometric metric: random symmetric weights repaired into a
    metric by shortest-path closure. Exercises code paths that Euclidean
    inputs never reach (e.g., highly non-uniform neighborhood sizes)."""
    from scipy.sparse.csgraph import shortest_path

    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    rng = ensure_rng(seed)
    n = n_f + n_c
    W = rng.uniform(0.1, 1.0, size=(n, n))
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    D = shortest_path(W, method="FW", directed=False)
    _freeze(D)
    space = MetricSpace(D, validate=False)
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


def star_instance(
    n_c: int,
    *,
    hub_cost: float = 1.0,
    spoke_cost: float = 4.0,
    radius: float = 1.0,
    seed=None,
) -> FacilityLocationInstance:
    """Adversarial star: one cheap hub facility at the center plus one
    expensive co-located facility per client on the rim.

    The optimal solution opens only the hub; greedy/primal–dual must
    resist opening rim facilities. All rim stars are exactly tied, the
    worst case for the ``(1+ε)``-slack selection (everything enters
    ``I`` simultaneously and subselection must thin it)."""
    check_positive_int(n_c, name="n_c")
    rng = ensure_rng(seed)
    angles = np.linspace(0.0, 2 * np.pi, n_c, endpoint=False)
    rim = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    pts = np.vstack([[0.0, 0.0], rim, rim])  # hub facility, rim facilities, clients
    space = MetricSpace.from_points(pts)
    facility_ids = np.arange(1 + n_c)
    client_ids = np.arange(1 + n_c, 1 + 2 * n_c)
    f = np.full(1 + n_c, float(spoke_cost))
    f[0] = float(hub_cost)
    # tiny jitter on rim costs so "exactly tied" vs "nearly tied" is seed-controlled
    f[1:] += rng.uniform(0.0, 1e-9, size=n_c)
    return FacilityLocationInstance.from_metric(space, facility_ids, client_ids, f)


def two_scale_instance(
    n_clusters: int = 5,
    per_cluster: int = 10,
    *,
    scale: float = 20.0,
    spread: float = 0.2,
    cost: float = 1.0,
    seed=None,
) -> FacilityLocationInstance:
    """Tight client clusters separated by a much larger scale, one
    candidate facility per cluster plus decoys between clusters.

    The optimum is transparent (open each cluster facility), and the two
    distance scales force the geometric ``(1+ε)^ℓ`` schedule in the
    primal–dual algorithm through many idle iterations — the shape that
    made the ``γ/m²`` preprocessing necessary."""
    check_positive_int(n_clusters, name="n_clusters")
    check_positive_int(per_cluster, name="per_cluster")
    rng = ensure_rng(seed)
    centers = scale * rng.random((n_clusters, 2))
    clients = (centers[:, None, :] + rng.normal(scale=spread, size=(n_clusters, per_cluster, 2))).reshape(-1, 2)
    decoys = scale * rng.random((n_clusters, 2))
    pts = np.vstack([centers, decoys, clients])
    space = MetricSpace.from_points(pts)
    n_f = 2 * n_clusters
    facility_ids = np.arange(n_f)
    client_ids = np.arange(n_f, n_f + clients.shape[0])
    f = np.full(n_f, float(cost))
    return FacilityLocationInstance.from_metric(space, facility_ids, client_ids, f)


def line_instance(
    n_f: int,
    n_c: int,
    *,
    spacing: float = 1.0,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """Evenly spaced points on a line (1-D metric).

    Massive distance degeneracy: all consecutive gaps are equal, so
    star prices and primal–dual opening events tie in large groups —
    a targeted stress for the ``(1+ε)``-slack selection and for
    threshold-comparison float bugs."""
    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    rng = ensure_rng(seed)
    pts = (spacing * np.arange(n_f + n_c, dtype=float))[:, None]
    # interleave roles so facilities aren't all on one end
    order = rng.permutation(n_f + n_c)
    space = MetricSpace.from_points(pts[np.argsort(np.argsort(order))])
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


def powerlaw_cluster_instance(
    n_f: int,
    n_c: int,
    *,
    n_clusters: int = 6,
    alpha: float = 1.5,
    dim: int = 2,
    spread: float = 0.03,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    seed=None,
) -> FacilityLocationInstance:
    """Clients in clusters with power-law sizes (Zipf-ish exponent
    ``alpha``): a few huge demand centers and a long tail of tiny ones
    — the realistic "city sizes" shape that makes facility/connection
    tradeoffs vary wildly across the same instance."""
    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    check_k(n_clusters, n_c, name="n_clusters")
    rng = ensure_rng(seed)
    weights = (1.0 + np.arange(n_clusters)) ** (-float(alpha))
    weights /= weights.sum()
    labels = rng.choice(n_clusters, size=n_c, p=weights)
    centers = rng.random((n_clusters, dim))
    clients = centers[labels] + rng.normal(scale=spread, size=(n_c, dim))
    facilities = rng.random((n_f, dim))
    space = MetricSpace.from_points(np.vstack([facilities, clients]))
    return _split_instance(space, n_f, n_c, rng, cost_range, cost_scale)


# --------------------------------------------------------------------------
# Sparse facility-location instances
# --------------------------------------------------------------------------

def knn_instance(
    n_f: int,
    n_c: int,
    *,
    k: int = 8,
    dim: int = 2,
    n_clusters: int | None = None,
    spread: float = 0.05,
    cost_range: tuple[float, float] = (0.5, 1.5),
    cost_scale: float | None = None,
    fallback_slack: float = 1.0,
    seed=None,
):
    """k-NN-truncated Euclidean instance, built without the dense matrix.

    Each client's candidates are its ``k`` nearest facilities (KD-tree
    query), so the instance costs ``O(k · n_c)`` memory instead of
    ``n_f · n_c`` — the construction that takes the sparse solvers to
    client counts the dense path cannot touch. Clients are uniform in
    the unit cube, or Gaussian blobs when ``n_clusters`` is given.

    The fallback column is ``(1 + fallback_slack) ×`` each client's
    truncation radius (its ``k``-th nearest distance); see
    :func:`repro.metrics.sparse.knn_sparsify` for why that keeps
    objectives comparable.

    Returns a :class:`~repro.metrics.sparse.SparseFacilityLocationInstance`.
    """
    from scipy.spatial import cKDTree

    from repro.metrics.sparse import SparseFacilityLocationInstance
    from repro.util.csr import csr_transpose

    check_positive_int(n_f, name="n_f")
    check_positive_int(n_c, name="n_c")
    check_positive_int(dim, name="dim")
    k = check_k(k, n_f, name="k")
    slack = float(fallback_slack)
    if slack < 0:
        raise InvalidParameterError(f"fallback_slack must be >= 0, got {fallback_slack}")
    rng = ensure_rng(seed)
    facilities = rng.random((n_f, dim))
    if n_clusters is None:
        clients = rng.random((n_c, dim))
    else:
        check_k(n_clusters, n_c, name="n_clusters")
        centers = rng.random((n_clusters, dim))
        labels = rng.integers(0, n_clusters, size=n_c)
        clients = centers[labels] + rng.normal(scale=spread, size=(n_c, dim))
    dist, near = cKDTree(facilities).query(clients, k=k)
    dist = np.atleast_2d(np.asarray(dist, dtype=float).reshape(n_c, k))
    near = np.asarray(near, dtype=np.intp).reshape(n_c, k)
    # Transpose the client-major k-NN lists into the facility-major CSR
    # layout (clients ascend within each facility row).
    c_indptr = np.arange(0, n_c * k + 1, k, dtype=np.intp)
    t_indptr, t_clients, entry = csr_transpose(c_indptr, near.ravel(), n_f)
    if cost_scale is None:
        base = float(np.median(dist)) if dist.size else 1.0
        cost_scale = max(base, 1e-12) * np.sqrt(n_c)
    lo, hi = cost_range
    if not 0 <= lo <= hi:
        raise InvalidParameterError(f"cost_range must satisfy 0 <= lo <= hi, got {cost_range}")
    f = rng.uniform(lo, hi, size=n_f) * cost_scale
    t_dist = dist.ravel()[entry]
    fallback = (1.0 + slack) * dist[:, -1]
    _freeze(t_indptr, t_clients, t_dist, f, fallback)
    return SparseFacilityLocationInstance(
        t_indptr, t_clients, t_dist, f, n_clients=n_c, fallback=fallback
    )


def knn_clustering_instance(
    n: int,
    k: int,
    *,
    neighbors: int = 16,
    dim: int = 2,
    n_clusters: int | None = None,
    spread: float = 0.05,
    fallback_slack: float = 1.0,
    seed=None,
):
    """k-NN-truncated clustering instance, built without the dense matrix.

    Each node's candidate centers are its ``neighbors`` nearest nodes
    (KD-tree query, self included at distance 0), symmetrized, so the
    instance costs ``O(neighbors · n)`` memory instead of ``n²`` — the
    construction that takes the §6.1/§7 clustering solvers to node
    counts the dense path cannot touch. Nodes are uniform in the unit
    cube, or Gaussian blobs when ``n_clusters`` is given.

    The fallback column is ``(1 + fallback_slack) ×`` each node's
    truncation radius (its ``neighbors``-th nearest distance); see
    :func:`repro.metrics.sparse.knn_sparsify` for why that keeps
    objectives comparable.

    Returns a :class:`~repro.metrics.sparse.SparseClusteringInstance`
    with center budget ``k``.
    """
    check_positive_int(n, name="n")
    check_k(k, n, name="k")
    check_positive_int(dim, name="dim")
    rng = ensure_rng(seed)
    if n_clusters is None:
        pts = rng.random((n, dim))
    else:
        check_k(n_clusters, n, name="n_clusters")
        centers = rng.random((n_clusters, dim))
        labels = rng.integers(0, n_clusters, size=n)
        pts = centers[labels] + rng.normal(scale=spread, size=(n, dim))
    return knn_clustering_from_points(
        pts, k, neighbors=neighbors, fallback_slack=fallback_slack
    )


def knn_clustering_from_points(
    points,
    k: int,
    *,
    neighbors: int = 16,
    fallback_slack: float = 1.0,
    weights=None,
):
    """kNN-truncated clustering instance over *given* coordinates.

    The KD-tree-first construction behind
    :func:`knn_clustering_instance`, factored out so callers with their
    own point sets — notably the shard-and-conquer merge step, whose
    points are coreset representatives carrying aggregated ``weights``
    — can build the candidate structure without a dense intermediate.

    Returns a (possibly weighted)
    :class:`~repro.metrics.sparse.SparseClusteringInstance`.
    """
    from scipy.spatial import cKDTree

    from repro.metrics.sparse import SparseClusteringInstance, _symmetrized_clustering_csr

    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidParameterError(
            f"points must be a non-empty (n, dim) array, got shape {points.shape}"
        )
    n = points.shape[0]
    check_k(k, n, name="k")
    neighbors = check_k(neighbors, n, name="neighbors")
    slack = float(fallback_slack)
    if slack < 0:
        raise InvalidParameterError(f"fallback_slack must be >= 0, got {fallback_slack}")
    dist, near = cKDTree(points).query(points, k=neighbors)
    dist = np.asarray(dist, dtype=float).reshape(n, neighbors)
    near = np.asarray(near, dtype=np.intp).reshape(n, neighbors)
    rows = np.repeat(np.arange(n, dtype=np.intp), neighbors)
    indptr, indices, data = _symmetrized_clustering_csr(
        n, rows, near.ravel(), dist.ravel()
    )
    fallback = (1.0 + slack) * dist[:, -1]
    _freeze(fallback)
    return SparseClusteringInstance(
        indptr, indices, data, k, fallback=fallback, weights=weights
    )


# --------------------------------------------------------------------------
# Clustering instances
# --------------------------------------------------------------------------

def euclidean_clustering(n: int, k: int, *, dim: int = 2, seed=None) -> ClusteringInstance:
    """Uniform points with budget ``k`` (k-median/k-means/k-center)."""
    return ClusteringInstance(euclidean_points(n, dim=dim, seed=seed), k)


def clustered_clustering(
    n: int,
    k: int,
    *,
    n_clusters: int | None = None,
    dim: int = 2,
    spread: float = 0.05,
    seed=None,
) -> ClusteringInstance:
    """Gaussian blobs with budget ``k`` (defaults to ``n_clusters = k``)."""
    n_clusters = k if n_clusters is None else n_clusters
    return ClusteringInstance(
        clustered_points(n, n_clusters=n_clusters, dim=dim, spread=spread, seed=seed), k
    )
