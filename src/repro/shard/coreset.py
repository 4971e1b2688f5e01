"""Per-shard weighted coresets, built shard-parallel over the backends.

A *coreset* here is an assignment-based summary: pick ``size``
representatives inside the shard, snap every shard point to its nearest
representative, and give each representative the **sum of the weights**
it absorbed. Two seeding rules share that aggregation:

* ``"gonzalez"`` — farthest-point traversal (the §6.1 baseline's
  seeding): the representative set is a 2-approximate ``size``-center
  solution of the shard, so the movement ``Σ w_j d(j, rep(j))`` is
  within ``2·size``-center optimum per shard — the classical
  deterministic coreset.
* ``"sample"`` — weight-proportional sampling without replacement
  (Gumbel top-k), the cheap randomized alternative.

Both preserve total weight exactly (``Σ coreset weights = Σ shard
weights``) and report their *movement* — the quantity the composed
approximation bound (:func:`repro.analysis.composed_coreset_bound`)
charges.

The fan-out reads its shards from one *source*: resident points,
checked and grouped by shard once (the store module's in-memory twin of
a :class:`~repro.shard.store.ShardStore`), or a store itself. Either
hands shard ``s``'s task its block — plain arrays, or a picklable ref
the task opens — and the shard's weight total for result validation, so
there is one payload builder for both.

Every shard build runs on its own fresh :class:`~repro.pram.ledger`
and returns the accrued interval; :func:`supervised_shard_coresets`
fans the builds across the backend's worker pool under a
:class:`repro.faults.Supervisor` (in the caller when every build is an
identity copy) and folds the per-shard charges into
the caller's global ledger under **parallel composition** (work adds,
depth maxes) via :meth:`~repro.pram.ledger.CostLedger.charge_parallel`
— so the global ledger charges exactly the sum of the per-shard work,
with no double-charging at the aggregation seam (pinned by a
regression test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidInstanceError, InvalidParameterError
from repro.pram.ledger import CostLedger, CostSnapshot
from repro.pram.machine import PramMachine
from repro.shard.partition import _check_points, _check_weights
from repro.shard.store import ShardStore, StoredShard, _ResidentShards
from repro.util.validation import check_positive_int

_METHODS = ("gonzalez", "sample", "none")


@dataclass
class ShardCoreset:
    """One shard's weighted summary.

    Attributes
    ----------
    points:
        ``(t, dim)`` representative coordinates.
    weights:
        ``(t,)`` aggregated weights (``Σ = Σ`` of the shard's weights).
    origin:
        ``(t,)`` original (global) point id of each representative.
    movement:
        ``Σ_j w_j · d(j, rep(j))`` over the shard — the weighted
        distance the summarization moved the demand.
    costs:
        PRAM ledger interval accrued building this shard.
    """

    points: np.ndarray
    weights: np.ndarray
    origin: np.ndarray
    movement: float
    costs: CostSnapshot

    @property
    def size(self) -> int:
        return self.points.shape[0]


def farthest_point_seeds(
    points: np.ndarray, size: int, start: int, ledger: CostLedger | None = None
) -> np.ndarray:
    """Farthest-point traversal from ``start`` — the shared Gonzalez
    kernel behind the coreset seeder and the driver's merged-instance
    warm start. ``O(size · n)``; charged to ``ledger`` when given.

    Column by column into preallocated ``(n,)`` buffers: per seed, one
    subtract/square/add per coordinate, one ``sqrt`` and one in-place
    ``minimum``, so no ``(n, dim)`` temporary is built. The squares add
    left to right like ``np.linalg.norm(axis=1)`` below 8 coordinates,
    so the distances match it to the bit there; from 8 on, norm's
    pairwise row sum may differ in the last bits."""
    n = points.shape[0]
    cols = np.ascontiguousarray(points.T, dtype=float)
    seeds = np.empty(size, dtype=np.intp)
    seeds[0] = int(start)
    d = np.full(n, np.inf)
    dist = np.empty(n)
    diff = np.empty(n)
    for t in range(size - 1):
        dist.fill(0.0)
        for col, c in zip(cols, cols[:, seeds[t]]):
            np.subtract(col, c, out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(dist, diff, out=dist)
        np.sqrt(dist, out=dist)
        np.minimum(d, dist, out=d)
        seeds[t + 1] = int(np.argmax(d))
    if ledger is not None:
        ledger.charge_basic("coreset_seed[gonzalez]", size * n)
    return seeds


def _gonzalez_seeds(points: np.ndarray, size: int, rng, ledger: CostLedger) -> np.ndarray:
    """Farthest-point representative indices (seeded start)."""
    return farthest_point_seeds(points, size, int(rng.integers(points.shape[0])), ledger)


def _sample_seeds(
    points: np.ndarray, weights: np.ndarray, size: int, rng, ledger: CostLedger
) -> np.ndarray:
    """Weight-proportional sample without replacement (Gumbel top-k)."""
    n = points.shape[0]
    keys = np.log(weights) + rng.gumbel(size=n)
    ledger.charge_sort("coreset_seed[sample]", n, n)
    return np.argpartition(keys, n - size)[n - size:]


def build_coreset(
    points,
    size: int,
    *,
    weights=None,
    origin=None,
    method: str = "gonzalez",
    seed=None,
    ledger: CostLedger | None = None,
) -> ShardCoreset:
    """Summarize one shard into ``≤ size`` weighted representatives.

    ``size ≥ n`` (or ``method="none"``) returns the identity coreset:
    every point its own representative, movement 0 — the pass-through
    that makes a ``shards=1`` pipeline equal the direct solve.
    """
    points = _check_points(points)
    n = points.shape[0]
    if method not in _METHODS:
        raise InvalidParameterError(
            f"unknown coreset method {method!r}; expected one of {_METHODS}"
        )
    size = check_positive_int(size, name="coreset size")
    weights = np.ones(n) if weights is None else _check_weights(weights, n).copy()
    origin = (
        np.arange(n, dtype=np.intp)
        if origin is None
        else np.asarray(origin, dtype=np.intp)
    )
    if origin.shape != (n,):
        raise InvalidParameterError(f"origin must have shape ({n},), got {origin.shape}")
    ledger = ledger if ledger is not None else CostLedger()
    start = ledger.snapshot()

    if method == "none" or size >= n:
        ledger.charge_basic("coreset_identity", n, depth=1)
        return ShardCoreset(
            points=points.copy(),
            weights=weights,
            origin=origin.copy(),
            movement=0.0,
            costs=ledger.since(start),
        )

    rng = np.random.default_rng(seed)
    if method == "gonzalez":
        reps = _gonzalez_seeds(points, size, rng, ledger)
    else:
        reps = _sample_seeds(points, weights, size, rng, ledger)
    reps = np.sort(reps)

    from scipy.spatial import cKDTree

    dist, assign = cKDTree(points[reps]).query(points)
    ledger.charge_basic("coreset_assign", n * int(np.ceil(np.log2(max(size, 2)))))
    agg = np.bincount(assign, weights=weights, minlength=reps.size)
    movement = float(np.sum(weights * dist))
    ledger.charge_basic("coreset_aggregate", n, depth=1)
    # Duplicate coordinates can leave a representative with nothing
    # assigned (both seeders may pick coincident points; the KD query
    # then routes every twin to one of them). A zero-weight entry would
    # be rejected by the merged instance's weight validation, so drop
    # it here — no point referenced it, so assignments, movement, and
    # total weight are untouched.
    occupied = agg > 0
    return ShardCoreset(
        points=points[reps[occupied]].copy(),
        weights=agg[occupied],
        origin=origin[reps[occupied]].copy(),
        movement=movement,
        costs=ledger.since(start),
    )


def _coreset_task(payload) -> ShardCoreset:
    """Module-level worker (picklable for the process pool).

    A payload's block is either a resident ``(points, weights, origin)``
    triple or a :class:`~repro.shard.store.StoredShard`, which is
    resolved to read-only memmap views *here*, inside whichever process
    runs the task — the out-of-core path ships paths, not points, and
    the OS page cache is the shared medium."""
    block, size, method, seed = payload
    points, weights, origin = block.load() if isinstance(block, StoredShard) else block
    return build_coreset(
        points, size, weights=weights, origin=origin, method=method, seed=seed
    )


def _payloads(source, size, method, seed) -> list:
    """Per-shard task payloads, seeds spawned from one
    :class:`numpy.random.SeedSequence` — the determinism anchor: a
    shard's payload (and therefore its coreset, on any attempt of any
    backend, resident or stored) depends only on ``(seed, shard
    index)``, never on scheduling or on which other shards failed."""
    child_seeds = np.random.SeedSequence(seed).spawn(source.shards)
    return [
        (source.task_block(s), size, method, child_seeds[s])
        for s in range(source.shards)
    ]


def _coreset_validator(expected_weight: np.ndarray):
    """Result validation for supervised builds: a returned coreset must
    be a :class:`ShardCoreset` with finite, strictly positive weights
    conserving the shard's total — the contract a corrupted result
    (injected or real) breaks. A NaN on either side fails the
    comparison."""

    def validate(index: int, coreset) -> None:
        if not isinstance(coreset, ShardCoreset):
            raise InvalidInstanceError(
                f"shard {index} returned {type(coreset).__name__}, not a ShardCoreset"
            )
        w = np.asarray(coreset.weights, dtype=float)
        if w.size == 0 or not np.all(np.isfinite(w)) or float(w.min()) <= 0.0:
            raise InvalidInstanceError(
                f"shard {index} coreset weights are not finite and strictly "
                f"positive (corrupt result?)"
            )
        want = float(expected_weight[index])
        if not abs(float(w.sum()) - want) <= 1e-6 * max(want, 1.0):
            raise InvalidInstanceError(
                f"shard {index} coreset does not conserve weight: "
                f"{float(w.sum())!r} != {want!r}"
            )

    return validate


def supervised_shard_coresets(
    points,
    labels=None,
    shards: int | None = None,
    size: int = 128,
    *,
    weights=None,
    method: str = "gonzalez",
    seed=None,
    machine: PramMachine | None = None,
    policy=None,
    fault_plan=None,
    tracer=None,
):
    """Build every shard's coreset, shard-parallel over the backend.

    ``points`` is either a resident ``(n, dim)`` array accompanied by
    ``labels``/``shards``, or a :class:`~repro.shard.store.ShardStore`
    — then ``labels``/``shards``/``weights`` stay ``None`` (the store
    carries its own partition and weights) and each task streams its
    block from disk inside the worker.

    The per-shard tasks run under a :class:`repro.faults.Supervisor`:
    per-task timeouts, retries with backoff per ``policy`` (``None``
    means the default :class:`~repro.faults.RetryPolicy`;
    ``NO_RETRY`` fails fast), crash recovery with pool respawn, and
    result validation that rejects corrupted coresets
    (non-finite/non-positive weights, broken weight conservation).
    Shard seeds derive from one :class:`numpy.random.SeedSequence`
    spawn, so results are identical however the backend schedules the
    tasks (serial loop or process pool) and wherever the
    blocks live (resident or stored). Resident inputs pass the
    partition checks before any task runs, so a bad label, weight or
    point is an :class:`~repro.errors.InvalidParameterError`, never a
    failed shard.

    The batch goes to the machine's pool only when some shard has
    seeding work. When every coreset is the identity (``method="none"``
    or no shard above ``size`` points) each build is a copy of its
    shard, and the whole batch runs in the caller under the same
    Supervisor — retries, injected faults (a ``crash`` there is the
    simulated :class:`~repro.errors.WorkerCrashError`) and result
    validation included — so no pool worker starts for it. A batch is
    never split between the caller and the pool.

    Returns ``(coresets, failures)`` where ``coresets[s]`` is shard
    ``s``'s :class:`ShardCoreset` or ``None`` if it terminally failed,
    and ``failures`` the :class:`repro.faults.TaskFailure` records.
    Because a retried shard reuses its own ``SeedSequence`` child, a
    recovered run is **byte-identical** to one that never failed — the
    property the fault test matrix pins.

    Only surviving shards' ledger intervals are folded into the
    machine's global ledger (work that died with a worker was model
    work never completed).
    """
    from repro.faults.supervisor import Supervisor
    from repro.pram.backends import SerialBackend

    if isinstance(points, (ShardStore, _ResidentShards)):
        if labels is not None or weights is not None:
            raise InvalidParameterError(
                "a ShardStore carries its own partition and weights; "
                "pass labels/weights only with resident points"
            )
        source = points
    else:
        source = _ResidentShards.of(points, labels, shards, weights)
    # Every shard's coreset is the identity (build_coreset's own rule)
    # exactly when the batch only copies shards: a pool would ship each
    # shard to a worker and the copy back, which costs more than the
    # copy, so such a fan-out runs in the caller, still supervised.
    identity = method == "none" or int(source.sizes.max()) <= size
    backend = machine.backend if machine is not None and not identity else SerialBackend()
    supervisor = Supervisor(backend, policy, fault_plan, tracer=tracer)
    results, failures = supervisor.submit_batch(
        _coreset_task,
        _payloads(source, size, method, seed),
        validate=_coreset_validator(source.weight_totals),
    )
    if machine is not None:
        survived = [c.costs for c in results if c is not None]
        if survived:
            machine.ledger.charge_parallel("shard_coreset", survived)
        machine.bump_round("shard_coreset")
    return results, failures
