"""The shard-and-conquer driver: partition → coreset → merge → solve.

:func:`shard_and_solve` is the one-call entry point that takes
clustering from "fits in one CSR instance" to millions of points:

1. **partition** the raw coordinates into shards
   (:mod:`repro.shard.partition`) and group the points by shard once,
   checking points, weights and labels on the way; that grouped source
   (or a :class:`~repro.shard.store.ShardStore` written from it) feeds
   every later stage, so each stage has one body for resident and
   stored blocks;
2. **summarize** each shard into a weighted coreset, shard-parallel
   over the execution backend under the fault
   :class:`~repro.faults.Supervisor` (fail-fast by default: a shard
   whose build fails raises :class:`~repro.errors.ShardFailedError`),
   per-shard PRAM charges folded into the global ledger
   (:mod:`repro.shard.coreset`); when every shard fits its coreset
   budget the builds are identity copies and run in the caller, under
   the same Supervisor, so no pool worker starts;
3. **merge** the coresets into one weighted kNN
   :class:`~repro.metrics.sparse.SparseClusteringInstance`
   (:mod:`repro.shard.merge`);
4. **solve** the merged instance with any existing clustering solver
   (k-center, §7 local-search k-median/k-means, Lagrangian k-median) on
   the same machine/ledger;
5. **map back**: centers are actual input points (coreset
   representatives are never synthetic), so the answer is a set of
   original point ids, and the *true* objective over all input points
   is evaluated exactly, streaming the source's blocks through one
   KD-tree;
6. **account**: the composed guarantee ``cost_true ≤ c·opt + (c+1)·R``
   (``R`` = total coreset movement) is reported via
   :func:`repro.analysis.composed_coreset_bound` for the k-median
   objective.

Passing an existing instance with ``shards=1`` runs the identity
pipeline — the solver executes directly on it, byte-identical to
calling it yourself with the same seed/backend (the regression anchor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.bounds import (
    CoresetBound,
    composed_coreset_bound,
    degraded_coreset_bound,
)
from repro.core.kcenter import parallel_kcenter
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian
from repro.core.local_search import parallel_kmeans, parallel_kmedian
from repro.core.result import ClusteringSolution
from repro.errors import InvalidParameterError, ShardFailedError
from repro.faults.plan import FaultPlan
from repro.faults.supervisor import NO_RETRY, RetryPolicy
from repro.metrics.instance import ClusteringInstance
from repro.metrics.sparse import SparseClusteringInstance
from repro.pram.ledger import CostSnapshot
from repro.pram.machine import PramMachine, ensure_machine
from repro.shard.coreset import (
    _METHODS,
    farthest_point_seeds,
    supervised_shard_coresets,
)
from repro.shard.merge import merge_coresets
from repro.shard.partition import _check_shards, _real_points
from repro.shard.store import ShardStore, _ResidentShards
from repro.util.validation import check_positive_int, check_unit_fraction

#: Accepted ``on_shard_failure`` modes for :func:`shard_and_solve`.
_FAILURE_MODES = ("raise", "retry", "drop")


def _solve_kmedian(instance, machine, epsilon, **kw):
    return parallel_kmedian(instance, machine=machine, epsilon=epsilon, **kw)


def _solve_kmeans(instance, machine, epsilon, **kw):
    return parallel_kmeans(instance, machine=machine, epsilon=epsilon, **kw)


def _solve_kcenter(instance, machine, epsilon, **kw):
    return parallel_kcenter(instance, machine=machine, **kw)


def _solve_lagrangian(instance, machine, epsilon, **kw):
    return parallel_kmedian_lagrangian(instance, machine=machine, epsilon=epsilon, **kw)


#: solver name -> (runner, nominal approximation ratio as f(ε) for the
#: composed accounting; None where the additive coreset composition
#: does not apply to the objective).
_SOLVERS = {
    "kmedian": (_solve_kmedian, lambda eps: 5.0 + eps),
    "kmeans": (_solve_kmeans, None),  # squared distances: no additive composition
    "kcenter": (_solve_kcenter, None),  # bottleneck: bound is radius-wise, not Σ-movement
    "kmedian_lagrangian": (_solve_lagrangian, lambda eps: 6.0),
}


def check_merged_coreset_k(
    k: int, n: int, shards: int, coreset: str = "gonzalez", coreset_size=None
) -> int:
    """Refuse a ``k`` the merged coreset cannot hold, before any pass runs;
    return the per-shard coreset size.

    Each of the ``min(shards, n)`` non-empty shards contributes at most
    ``coreset_size`` representatives (default ``max(16·k, 128)``), and
    the merged coreset never holds more than the ``n`` input points, so
    a ``k`` above ``min(n, min(shards, n)·coreset_size)`` could only
    fail after the partition and coreset passes. ``coreset="none"``
    keeps every point, so only ``k <= n`` applies to it. Duplicate
    coordinates can still leave fewer representatives than the bound;
    the merge then refuses the instance with its own message. Shared by
    :func:`shard_and_solve` and the serving tier's submit-time checks.
    """
    if coreset not in _METHODS:
        raise InvalidParameterError(
            f"unknown coreset method {coreset!r}; expected one of {_METHODS}"
        )
    size = check_positive_int(
        max(16 * k, 128) if coreset_size is None else coreset_size,
        name="coreset_size",
    )
    bound = n if coreset == "none" else min(n, min(shards, n) * size)
    if k > bound:
        raise InvalidParameterError(
            f"k={k} exceeds the {bound} representatives a merged coreset of "
            f"{min(shards, n)} shard(s) at coreset_size={size} can hold"
        )
    return size


@dataclass
class ShardSolution:
    """Result of a shard-and-conquer solve.

    ``centers`` are **original point ids** (coreset representatives are
    actual input points). ``cost`` is the solver's objective on the
    merged weighted instance; ``true_cost`` is the exact objective of
    the same centers over *all* input points (equal for the identity
    pipeline). ``bound`` composes the solver's nominal ratio with the
    coreset movement (k-median family only).
    """

    centers: np.ndarray
    merged_centers: np.ndarray
    cost: float
    true_cost: float
    objective: str
    solution: ClusteringSolution
    shards: int
    shard_sizes: np.ndarray
    coreset_sizes: np.ndarray
    movement: float
    bound: CoresetBound | None
    rounds: dict = field(default_factory=dict)
    model_costs: CostSnapshot | None = None
    extra: dict = field(default_factory=dict)
    #: Fault-tolerance accounting (defaults describe a clean run).
    #: ``degraded`` flags a solve that dropped failed shards and
    #: proceeded on survivors; ``failed_shards`` lists them,
    #: ``covered_weight_fraction`` is the demand weight the surviving
    #: shards represent, and ``failures`` carries the structured
    #: :class:`repro.faults.TaskFailure` records.
    degraded: bool = False
    failed_shards: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    covered_weight_fraction: float = 1.0
    failures: list = field(default_factory=list)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=int)
        self.merged_centers = np.asarray(self.merged_centers, dtype=int)
        self.failed_shards = np.asarray(self.failed_shards, dtype=int)


def _gonzalez_warm_start(points: np.ndarray, k: int) -> np.ndarray:
    """Farthest-point k-center seeds over coordinates.

    The §7 local search warm-starts from the sparse parallel k-center,
    which needs the kNN candidate graph to be dominable by ``k`` nodes
    — often false on a merged coreset (``k ≪ merged_n / neighbors``).
    Coreset representatives carry coordinates, so the driver substitutes
    the geometric Gonzalez 2-approximation instead (the shared
    :func:`~repro.shard.coreset.farthest_point_seeds` kernel): same
    guarantee, no graph-coverage precondition, deterministic (seeded
    from the point farthest from the centroid — a label-free rule).
    """
    start = int(np.argmax(np.linalg.norm(points - points.mean(axis=0), axis=1)))
    return np.unique(farthest_point_seeds(points, k, start))


def _true_cost(
    blocks, n: int, weighted: bool, center_points, objective: str, machine: PramMachine
) -> float:
    """Exact objective of the chosen centers over ``n`` points, streamed
    as ``(points, weights_or_None, origin)`` blocks through one KD-tree.

    Each block's nearest-center distances (and weights) land at its
    points' original positions, and the objective reduces over that
    ``(n,)`` array in point order. The KD query computes each point
    independently, so the result is **byte-identical** however the
    points are blocked: one resident block in point order, or one
    stored block per shard at a time (the store parity suite pins it).
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(center_points)
    d = np.empty(n)
    w = np.empty(n) if weighted else None
    for points, weights, origin in blocks:
        d[origin] = tree.query(np.asarray(points))[0]
        if weighted:
            w[origin] = weights
    machine.ledger.charge_basic(
        "shard_true_cost", n * int(np.ceil(np.log2(max(center_points.shape[0], 2))))
    )
    if objective == "kcenter":
        return float(d.max())
    if objective == "kmeans":
        d = d * d
    return float(d.sum()) if w is None else float(np.sum(w * d))


def shard_and_solve(
    source,
    k: int,
    *,
    shards: int = 8,
    partition: str = "locality",
    coreset: str = "gonzalez",
    coreset_size: int | None = None,
    solver: str = "kmedian",
    neighbors: int = 64,
    fallback_slack: float = 1.0,
    epsilon: float = 0.5,
    weights=None,
    seed=None,
    backend=None,
    machine: PramMachine | None = None,
    tracer=None,
    on_shard_failure: str = "raise",
    retry_policy: RetryPolicy | None = None,
    coverage_floor: float = 0.5,
    fault_plan: FaultPlan | None = None,
    spill_dir: str | None = None,
    **solver_kwargs,
) -> ShardSolution:
    """Partition → coreset → merge → solve → map back, in one call.

    Parameters
    ----------
    source:
        Either an ``(n, dim)`` coordinate array (the scale path), a
        :class:`~repro.shard.store.ShardStore` (the out-of-core path:
        blocks stream from disk one shard at a time, ``shards`` /
        ``partition`` / ``weights`` come from the store itself), or an
        existing :class:`~repro.metrics.instance.ClusteringInstance` /
        :class:`~repro.metrics.sparse.SparseClusteringInstance` — then
        ``shards`` must be 1 (instances carry no coordinates to
        partition) and the solver runs directly on it, byte-identical
        to a direct seeded call.
    k:
        Center budget of the final solution.
    shards / partition:
        Shard count and partitioner (``random``/``grid``/``locality``).
    coreset / coreset_size:
        Per-shard summarizer (``gonzalez``/``sample``/``none``) and its
        representative budget (default ``max(16·k, 128)``; ``none``
        keeps every point at its own weight).
    solver:
        ``kmedian`` (§7 local search, default), ``kmeans``,
        ``kcenter``, or ``kmedian_lagrangian`` — run on the merged
        weighted instance via the existing entry points.
    neighbors / fallback_slack:
        kNN candidate structure of the merged instance. The default is
        deliberately richer than the raw-instance builders' (64): the
        merged coreset is small by construction, and a tight truncation
        would cap most service costs at the fallback, blinding the swap
        loop (measured: 3× worse true cost at 16 neighbors on blob
        workloads, for <25% of the wall-clock back at 64).
    weights:
        Optional per-point input weights (the pipeline composes: a
        weighted input yields weight-aggregated coresets). They must be
        finite and strictly positive, one per point; anything else is
        an :class:`~repro.errors.InvalidParameterError` before the
        partitioner runs.
    seed / backend / machine:
        Standard execution controls; coreset seeding derives from
        ``seed`` through a SeedSequence spawn, so results do not depend
        on how the backend schedules the shard builds.
    on_shard_failure:
        What to do when a shard's coreset build terminally fails.
        ``"raise"`` (default) surfaces the failure as
        :class:`~repro.errors.ShardFailedError`; ``"retry"`` supervises
        the builds under ``retry_policy`` (default
        :class:`~repro.faults.RetryPolicy`) and raises only once the
        budget is exhausted — because a retried shard reuses its own
        seed, a recovered run is byte-identical to one that never
        failed; ``"drop"`` proceeds on surviving shards with a widened,
        coverage-aware certificate (``degraded=True`` on the result).
    retry_policy:
        The :class:`~repro.faults.RetryPolicy` for supervised builds
        (timeouts, backoff, attempt budget). ``None`` means a default
        policy for ``"retry"``, fail-fast for the other modes.
    coverage_floor:
        Refuse to degrade below this fraction of the total demand
        weight (in ``(0, 1]``): if surviving shards cover less,
        ``"drop"`` raises instead of returning garbage.
    fault_plan:
        Test/CI hook: a :class:`~repro.faults.FaultPlan` injected into
        the supervised builds. ``None`` consults ``REPRO_FAULT_PLAN``
        in the environment (unset = no injection).
    spill_dir:
        Raw-points sources only: spill the partitioned blocks to this
        directory as a :class:`~repro.shard.store.ShardStore` and run
        the rest of the pipeline out of core (streamed coreset builds
        and true-cost evaluation). Byte-identical to the resident run —
        the blocks carry the same bits in the same order — while the
        points array is no longer touched after the spill.
    solver_kwargs:
        Forwarded to the solver entry point (e.g. ``max_rounds``,
        ``initial``, ``max_probes``).
    """
    if solver not in _SOLVERS:
        raise InvalidParameterError(
            f"unknown solver {solver!r}; expected one of {sorted(_SOLVERS)}"
        )
    run, ratio_fn = _SOLVERS[solver]
    shards = _check_shards(shards)
    if on_shard_failure not in _FAILURE_MODES:
        raise InvalidParameterError(
            f"unknown on_shard_failure {on_shard_failure!r}; "
            f"expected one of {_FAILURE_MODES}"
        )
    check_unit_fraction(coverage_floor, name="coverage_floor")
    if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
        raise InvalidParameterError(
            f"retry_policy must be a RetryPolicy, got {type(retry_policy).__name__}"
        )
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()

    # -- identity pipeline: an instance passed straight through --------
    if isinstance(source, (ClusteringInstance, SparseClusteringInstance)):
        if shards != 1:
            raise InvalidParameterError(
                "instance sources carry no coordinates to partition; pass "
                "shards=1 (identity pipeline) or raw points"
            )
        if weights is not None:
            raise InvalidParameterError(
                "instance sources carry their own weights; pass weights only "
                "with raw points"
            )
        if spill_dir is not None:
            raise InvalidParameterError(
                "spill_dir applies to raw-points sources; instances carry "
                "no coordinate blocks to spill"
            )
        instance = source if int(k) == source.k else _rebudget(source, int(k))
        machine = ensure_machine(machine, backend=backend, seed=seed, tracer=tracer)
        with machine.tracer.span(
            "shard.solve", "shard", {"solver": solver, "identity": True, "n": int(instance.n)}
        ):
            sol = run(instance, machine, epsilon, **solver_kwargs)
        centers = np.sort(sol.centers)
        return ShardSolution(
            centers=centers,
            merged_centers=centers,
            cost=sol.cost,
            true_cost=sol.cost,
            objective=sol.objective,
            solution=sol,
            shards=1,
            shard_sizes=np.asarray([instance.n]),
            coreset_sizes=np.asarray([instance.n]),
            movement=0.0,
            bound=composed_coreset_bound(ratio_fn(epsilon), 0.0) if ratio_fn else None,
            rounds=dict(sol.rounds),
            model_costs=sol.model_costs,
            extra={"identity": True, "solver": solver},
        )

    # -- the scale path: raw coordinates or an out-of-core store --------
    if isinstance(source, ShardStore):
        if weights is not None:
            raise InvalidParameterError(
                "a ShardStore carries its own weights; pass weights only "
                "with raw points"
            )
        if spill_dir is not None:
            raise InvalidParameterError(
                "spill_dir applies to raw-points sources; the store is "
                "already on disk"
            )
        shards = source.shards
        n = source.n
    else:
        points = _real_points(source)
        if points.ndim != 2 or points.shape[0] == 0:
            raise InvalidParameterError(
                "source must be an (n, dim) point array, a ShardStore, or a "
                f"clustering instance; got shape {getattr(points, 'shape', None)}"
            )
        n = points.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    per_shard = check_merged_coreset_k(k, n, shards, coreset, coreset_size)
    machine = ensure_machine(machine, backend=backend, seed=seed, tracer=tracer)
    obs = machine.tracer

    if not isinstance(source, ShardStore):
        part_args = {"shards": int(shards), "n": int(n), "partition": partition}
        with obs.span("shard.partition", "shard", part_args):
            source = _ResidentShards.partitioned(
                points, shards, partition, weights=weights, seed=seed
            )
            machine.ledger.charge_basic("shard_partition", n)
            machine.bump_round("shard_partition")
            part_args["sizes"] = source.sizes.tolist()
        if spill_dir is not None:
            # Spill the blocks and stream everything downstream from
            # disk: identical bits in identical order, so the result is
            # byte-for-byte the resident run's.
            with obs.span(
                "shard.spill", "shard",
                {"bytes": int(points.nbytes), "shards": int(shards)},
            ):
                source = source.spill(spill_dir)
            points = None  # any float copy of the input: the blocks are on disk
    stored = isinstance(source, ShardStore)

    policy = retry_policy if retry_policy is not None else (
        RetryPolicy() if on_shard_failure == "retry" else NO_RETRY
    )
    core_args = {"shards": int(shards), "size": int(per_shard), "method": coreset}
    with obs.span("shard.coreset", "shard", core_args):
        coresets, failures = supervised_shard_coresets(
            source, size=per_shard, method=coreset, seed=seed, machine=machine,
            policy=policy, fault_plan=fault_plan, tracer=obs,
        )
        failed = [s for s, c in enumerate(coresets) if c is None]
        core_args["failed"] = len(failed)
        if failed and on_shard_failure != "drop":
            raise ShardFailedError(
                f"{len(failed)} of {shards} shard coreset build(s) failed "
                f"terminally (shards {failed}); first failure: "
                f"{failures[0].error}"
            ) from failures[0].error

    covered_frac = 1.0
    if failed:
        if len(failed) == shards:
            raise ShardFailedError(
                f"every shard failed ({shards}/{shards}); nothing to degrade "
                f"onto. First failure: {failures[0].error}"
            ) from failures[0].error
        dropped_w = float(source.weight_totals[np.asarray(failed, dtype=int)].sum())
        covered_frac = 1.0 - dropped_w / source.total_weight
        if covered_frac < float(coverage_floor):
            raise ShardFailedError(
                f"refusing to degrade: surviving shards cover "
                f"{covered_frac:.4f} of the demand weight, below "
                f"coverage_floor={float(coverage_floor):g}"
            ) from failures[0].error

    survivors = [c for c in coresets if c is not None]
    movement = float(sum(c.movement for c in survivors))

    merged_n = int(sum(c.size for c in survivors))
    neighbors_eff = int(neighbors)
    if solver == "kcenter":
        # The §6.1 bottleneck search needs the stored graph dominable by
        # ≤ k nodes; a kNN graph's dominator count is ≈ merged_n /
        # neighbors, so widen the candidate structure accordingly (the
        # merged instance is the *reduced* one — the extra edges are
        # cheap by construction).
        neighbors_eff = max(neighbors_eff, int(np.ceil(2.0 * merged_n / max(k, 1))) + 1)
    merge_args = {"survivors": len(survivors), "neighbors": neighbors_eff}
    with obs.span("shard.merge", "shard", merge_args):
        merged, origin, merged_points = merge_coresets(
            survivors, k, neighbors=neighbors_eff, fallback_slack=fallback_slack
        )
        machine.ledger.charge_basic(
            "shard_merge", merged.nnz * int(np.ceil(np.log2(max(merged.nnz, 2))))
        )
        machine.bump_round("shard_merge")
        merge_args["merged_n"] = int(merged.n)
        merge_args["merged_nnz"] = int(merged.nnz)

    if solver in ("kmedian", "kmeans") and "initial" not in solver_kwargs:
        solver_kwargs = {**solver_kwargs, "initial": _gonzalez_warm_start(merged_points, k)}
    with obs.span(
        "shard.solve", "shard", {"solver": solver, "merged_n": int(merged.n)}
    ):
        sol = run(merged, machine, epsilon, **solver_kwargs)
    merged_centers = np.sort(sol.centers)
    centers = np.sort(origin[merged_centers])
    center_points = merged_points[merged_centers]
    with obs.span("shard.true_cost", "shard", {"store": stored, "n": int(n)}):
        true_cost = _true_cost(
            source.pass_blocks(), n, source.has_weights, center_points,
            sol.objective, machine,
        )
        # The solver's reported cost is the *fallback-capped* truncated
        # objective; the movement bound composes against the exact coreset
        # cost, so evaluate that too (one tiny KD query over the merged
        # points): true_cost ≤ merged_cost_exact + movement for k-median.
        merged_cost_exact = _true_cost(
            [(merged_points, merged.weights, slice(None))], merged.n, True,
            center_points, sol.objective, machine,
        )
    extra = {
        "identity": False,
        "solver": solver,
        "partition": partition,
        "store": stored,
        "coreset": coreset,
        "coreset_size": per_shard,
        "neighbors": neighbors_eff,
        "merged_n": merged.n,
        "merged_nnz": merged.nnz,
        "merged_cost_exact": merged_cost_exact,
    }
    if failed:
        # Degraded accounting: charge each dropped point to its nearest
        # *surviving* representative. The triangle inequality then gives
        # the verifiable sandwich (linear distances, k-median family)
        #   true_cost ≤ merged_cost_exact + movement
        #               + dropped_movement + dropped_rep_service
        # where dropped_movement = Σ w_j·d(j, rep(j)) widens the
        # certificate and dropped_rep_service = Σ w_j·d(rep(j), S) is
        # already (approximately) paid inside the solved objective.
        from scipy.spatial import cKDTree

        with obs.span(
            "shard.degraded_account", "shard",
            {"failed": len(failed), "covered_frac": covered_frac},
        ):
            # Gather the failed shards' blocks and restore global point
            # order (each block's origin is ascending; a stable argsort
            # over the concatenation is the merge).
            blocks = [source.load_checked(s) for s in failed]
            forder = np.argsort(
                np.concatenate([o for _, _, o in blocks]), kind="stable"
            )
            fp = np.concatenate([np.asarray(p) for p, _, _ in blocks])[forder]
            fw = (
                np.concatenate([np.asarray(w) for _, w, _ in blocks])[forder]
                if source.has_weights
                else np.ones(fp.shape[0])
            )
            dist_rep, rep_idx = cKDTree(merged_points).query(fp)
            dropped_movement = float(np.sum(fw * dist_rep))
            rep_to_center, _ = cKDTree(center_points).query(merged_points[rep_idx])
            dropped_rep_service = float(np.sum(fw * rep_to_center))
            machine.ledger.charge_basic(
                "shard_degraded_account",
                2 * fp.shape[0]
                * int(np.ceil(np.log2(max(merged_points.shape[0], 2)))),
            )
            machine.bump_round("shard_degraded_account")
        extra.update(
            dropped_movement=dropped_movement,
            dropped_rep_service=dropped_rep_service,
            dropped_weight=float(np.sum(fw)),
        )
        bound = (
            degraded_coreset_bound(
                ratio_fn(epsilon), movement, dropped_movement, covered_frac
            )
            if ratio_fn
            else None
        )
    else:
        bound = composed_coreset_bound(ratio_fn(epsilon), movement) if ratio_fn else None
    return ShardSolution(
        centers=centers,
        merged_centers=merged_centers,
        cost=sol.cost,
        true_cost=true_cost,
        objective=sol.objective,
        solution=sol,
        shards=shards,
        shard_sizes=source.sizes,
        coreset_sizes=np.asarray([0 if c is None else c.size for c in coresets]),
        movement=movement,
        bound=bound,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.snapshot(),
        extra=extra,
        degraded=bool(failed),
        failed_shards=np.asarray(failed, dtype=int),
        covered_weight_fraction=covered_frac,
        failures=failures,
    )


def _rebudget(instance, k: int):
    """Same candidate structure with budget ``k`` (both instance shapes)."""
    if isinstance(instance, SparseClusteringInstance):
        return instance.with_budget(k)
    return ClusteringInstance(
        instance.space, k,
        weights=None if instance.has_unit_weights else instance.weights,
    )
