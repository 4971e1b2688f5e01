"""§5 primal–dual facility location: the execution body (CSR).

Algorithm 5.1 executed on a
:class:`~repro.metrics.sparse.SparseFacilityLocationInstance`; dense
instances arrive as their full CSR
(:meth:`~repro.metrics.sparse.SparseFacilityLocationInstance.from_instance`).
Absent entries contribute nothing to any payment (they are not
candidate connections); the instance's fallback column acts as a
virtual always-open facility at distance ``fallback_j``, which keeps
every client freezable and the objective well-defined on truncated
instances. On dense-representable instances (``fallback ≡ +inf``) the
virtual facility is unreachable.

**Only events cost work.** At level ``ℓ`` a frontier edge ``(i, j)``
(facility closed, client unfrozen) pays ``max(0, c_ℓ − d)`` with
``c_ℓ = (1+ε)t_ℓ``, an exact ``+0.0`` unless ``d < c_ℓ``. Once per
call the candidate edges are sorted by distance (:func:`_edge_order`;
a Lagrangian search sorts once for all of its probes, whose opening
costs are all it changes). A solve lists its thresholds ``c_ℓ`` with
the loop's own float expressions; the edges that start paying at level
``ℓ`` are then the slice of that order between two ``searchsorted``
bounds. The *paying set* — the frontier edges with
``d < c_ℓ``, kept in CSR flat order — and the per-epoch gathers (``f``,
``paid_frozen`` and ``dmin_open`` over the frontier) change only when a
facility opens or a client freezes. Between two such events (an
*epoch*) a level only lets its bucket's edges start paying, so each
epoch starts by finding its first eventful level ``ℓ*``:

* the freeze level is exact: the first threshold with
  ``c_ℓ(1+10⁻¹²) ≥ min dmin_open`` over the unfrozen clients;
* the opening level is monotone. Each term ``max(0, c_ℓ − d)·w`` is
  nondecreasing in ``c_ℓ`` under IEEE rounding, a fixed-order float sum
  of nondecreasing terms is nondecreasing, and an edge that does not
  pay yet adds an exact ``+0.0``; so while the thresholds ascend
  (checked, not assumed), "some facility opens at ``ℓ``" holds from one
  level on. Per-facility ``Σw`` and ``Σw·d`` over the paying set and the
  arriving buckets — scanned in windows bounded by edge count, since
  edges per level grow geometrically — estimate that level; one exact
  flat-order sum at ``ℓ*−1`` confirms it, and a gallop and bisection
  over exact sums correct it where rounding moved it.

The levels before ``ℓ*`` still count in ``pd_iterations`` and cost
nothing else: their buckets join the paying set in one merge, and
their edges into tentative facilities become ``H`` edges (a tentative
row gains exactly the edges its level newly reaches). ``ℓ*`` runs the
level body:

* sum each closed facility's payments over the paying set with one
  sequential flat-order ``scatter_add``;
* freeze clients against ``dmin_open``, the maintained nearest-open
  distance (seeded with the fallback column);
* fold the payments of clients frozen at this level into
  ``paid_frozen``, per facility in ascending client order.

A solve thus costs its events plus one bucket merge per skipped range;
a facility's full candidate row is read once, when it opens. The
order also makes a solve's setup cheap: the preprocessing sums only the
prefix of edges within ``γ/m²·(1+10⁻¹²)``, in flat order; the frontier
is the order itself unless something opened free or froze; and with
every opening cost equal to ``λ``, ``γ`` is ``fl(λ + min_i d_ij)``
capped by the fallback, which equals ``min_i fl(λ + d_ij)`` because
rounding is monotone. Every dropped term is an exact ``+0.0`` and every
sum keeps its order, so the result is bit-identical to running the body
at every level. Where pow rounding breaks the thresholds' ascent (ε
below about 10⁻¹⁵) no level is skipped. A run of skipped levels is one
:class:`~repro.pram.ledger.RoundMark` whose index jumps by its length.

``H`` lives as a boolean mask over the instance's edge set (a
facility's H-row is a subset of its candidate segment); the §3
postprocessing runs through
:func:`repro.core.dominator_sparse.max_u_dominator_set_sparse`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.dominator_sparse import max_u_dominator_set_sparse
from repro.core.greedy_sparse import _sparse_gamma
from repro.core.result import FacilityLocationSolution
from repro.errors import ConvergenceError, InvalidParameterError
from repro.metrics.sparse import SparseFacilityLocationInstance
from repro.pram.machine import PramMachine
from repro.util.csr import rows_strictly_ascending

_REL_TOL = 1.0 + 1e-12

#: The most levels a solve's threshold schedule may list. A longer
#: schedule (ε too small for the instance) is refused before anything
#: per level is allocated.
MAX_SCHEDULE_LEVELS = 2**20

#: The fewest bucket edges the opening estimate scans at once.
_MIN_WINDOW = 1024


class _Edges(NamedTuple):
    """Candidate edges in ascending distance, one array per field."""

    d: np.ndarray
    pos: np.ndarray  # flat positions
    client: np.ndarray
    facility: np.ndarray

    def pack(self, machine: PramMachine, keep: np.ndarray) -> "_Edges":
        return _Edges(*(machine.pack(col, keep) for col in self))


class _EdgeOrder(NamedTuple):
    """What a call's candidate structure fixes, whatever the opening
    costs (:func:`_edge_order`)."""

    edges: _Edges
    rows: np.ndarray  # the facility of each flat position
    ascending_rows: bool  # every row stores its clients in ascending order
    nearest: np.ndarray | None  # per client, its nearest stored distance (equal costs only)


class _Schedule(NamedTuple):
    """A solve's thresholds and the frontier edges bucketed by level."""

    c: np.ndarray  # c[ℓ-1] = (1+ε)t_ℓ, the level body's own float expression
    reach: np.ndarray  # c·(1+10⁻¹²): the freeze test's left-hand side
    ascending: bool  # c nondecreasing, so levels may be skipped
    bucket_ptr: np.ndarray  # level ℓ's edges: frontier[bucket_ptr[ℓ-1]:bucket_ptr[ℓ]]
    busy: np.ndarray  # busy[ℓ]: the levels ≤ ℓ whose bucket has edges


def _edge_order(machine: PramMachine, instance: SparseFacilityLocationInstance) -> _EdgeOrder:
    """Sort ``instance``'s candidate edges by distance, once per call.

    NumPy's default ``argsort`` puts equal distances in a fixed but
    unspecified order; no answer depends on it, since every payment sum
    runs in flat order. ``nearest`` is kept only when every opening
    cost is equal, the one case :func:`_gamma` reads it.
    """
    data, indices = instance.data, instance.indices
    rows = instance.rows_flat()
    order = np.argsort(data)
    machine.ledger.charge_sort("edge_order", max(order.size, 1), max(order.size, 2))
    edges = _Edges(
        machine.take_rows(data, order),
        order,
        machine.take_rows(indices, order),
        machine.take_rows(rows, order),
    )
    # Folds add each facility's terms in client order; flat order is
    # that order unless some row stores its columns out of order.
    ascending = rows_strictly_ascending(instance.indptr, indices)
    machine.ledger.charge_basic("fold_order", max(instance.nnz, 1))
    nearest = None
    if _equal_costs(instance.f):
        nearest = machine.scatter_min(data, indices, instance.n_clients)
    return _EdgeOrder(edges, rows, ascending, nearest)


def _equal_costs(f: np.ndarray) -> bool:
    """Whether every opening cost has the same bits (``±0.0`` differ)."""
    bits = f.view(np.uint64)
    return bool(bits.size) and bool(np.all(bits == bits[0]))


def _gamma(
    machine: PramMachine, instance: SparseFacilityLocationInstance, order: _EdgeOrder
) -> float:
    """Eq. (2)'s bound ``γ``. With every opening cost equal to ``λ``,
    ``min_i fl(λ + d_ij) = fl(λ + min_i d_ij)`` exactly, because
    rounding is monotone: ``O(n)`` from the order's nearest distances.
    Other costs take :func:`~repro.core.greedy_sparse._sparse_gamma`'s
    ``O(nnz)`` pass."""
    f = instance.f
    if order.nearest is None or not _equal_costs(f):
        return _sparse_gamma(machine, instance)
    lam = f[0]
    gamma_j = machine.map(
        lambda near, fb: np.minimum(near + lam, fb), order.nearest, instance.fallback
    )
    return float(machine.reduce(gamma_j, "max"))


def _parallel_primal_dual_sparse(
    instance: SparseFacilityLocationInstance,
    eps: float,
    machine: PramMachine,
    preprocess: bool,
    iter_cap: int,
    caller,
    order: _EdgeOrder | None = None,
) -> FacilityLocationSolution:
    """Execute Algorithm 5.1 (see module docstring).

    ``caller`` is the instance the solution is reported on — ``instance``
    itself, or the dense instance it was converted from, whose costs
    are then evaluated on its own matrix and whose ``extra["H"]`` is a
    dense boolean array. ``order`` is the call's edge order
    (:func:`_edge_order`) of ``instance``'s structure, or ``None`` to
    build it here.
    """
    nf, nc = instance.n_facilities, instance.n_clients
    f = instance.f.astype(float)
    data, indices, indptr = instance.data, instance.indices, instance.indptr
    m = max(instance.m, 2)
    # Client multiplicities scale each client's payment contribution
    # (see repro.core.primal_dual); None = exact unweighted code path.
    w = None if instance.has_unit_weights else instance.client_weights

    start = machine.snapshot()
    if order is None:
        order = _edge_order(machine, instance)
    rows, edges = order.rows, order.edges
    gamma = _gamma(machine, instance, order)
    sort_folds = not order.ascending_rows
    base = gamma / (m * m) if gamma > 0 else 0.0

    alpha = np.zeros(nc, dtype=float)
    frozen = np.zeros(nc, dtype=bool)
    free_open = np.zeros(nf, dtype=bool)  # F0
    tent_open = np.zeros(nf, dtype=bool)  # F_T
    H_mask = np.zeros(instance.nnz, dtype=bool)
    paid_frozen = np.zeros(nf, dtype=float)
    # The fallback column is a virtual always-open facility: clients can
    # freeze against it even before anything real opens. On dense-
    # representable instances it is +inf and never fires.
    dmin_open = instance.fallback.astype(float).copy()
    fallback_live = bool(np.any(np.isfinite(dmin_open)))

    if preprocess or gamma == 0.0:
        # Only the edges within γ/m²·(1+10⁻¹²) pay or connect: a prefix
        # of the order, summed in flat order. Every other term is +0.0.
        cut = base * _REL_TOL
        near = np.sort(edges.pos[: int(np.searchsorted(edges.d, cut, side="right"))])
        machine.ledger.charge_sort("flat_order", max(near.size, 1), max(near.size, 2))
        near_rows = machine.take_rows(rows, near)
        near_cols = machine.take_rows(indices, near)
        pay0 = np.asarray(
            machine.map(lambda d: np.maximum(0.0, cut - d), machine.take_rows(data, near))
        )
        if w is not None:
            pay0 = np.asarray(
                machine.map(lambda p, ww: p * ww, pay0, machine.take_rows(w, near_cols))
            )
        paid0 = machine.scatter_add(pay0, near_rows, nf)
        free_open = np.asarray(machine.map(lambda p, ff: p >= ff / _REL_TOL, paid0, f))
        if free_open.any():
            freely = machine.count_votes(
                near_cols, nc, mask=machine.take_rows(free_open, near_rows)
            ) > 0
            frozen |= freely  # α stays 0 for freely connected clients
            fo_idx = np.flatnonzero(free_open)
            pos0, _ = machine.segment_positions(indptr, fo_idx)
            dnew = machine.scatter_min(
                machine.take_rows(data, pos0), machine.take_rows(indices, pos0), nc
            )
            dmin_open = np.asarray(machine.map(np.minimum, dmin_open, dnew))

    if gamma == 0.0:
        frozen[:] = True

    # Free facilities and freely connected clients never rejoin the
    # frontier, so the level buckets cover the edges between the rest.
    if free_open.any() or frozen.any():
        edges = edges.pack(
            machine,
            machine.map(
                lambda fo, fr: ~(fo | fr),
                machine.take_rows(free_open, edges.facility),
                machine.take_rows(frozen, edges.client),
            ),
        )
    # The schedule runs until its threshold passes every frontier
    # distance and the duals' ceiling γ/min(1, w_min): by then each
    # client's cheapest facility is paid for, so every client is frozen.
    w_floor = 1.0 if w is None else min(1.0, float(w.min()))
    horizon = max(float(edges.d[-1]) if edges.d.size else -np.inf, gamma / w_floor)
    # No level runs once every client is frozen.
    levels = _schedule(base, eps, horizon, 0 if frozen.all() else iter_cap, m)
    sched = _paying_buckets(machine, edges.d, levels)

    iterations = 0
    loc = np.zeros(nf, dtype=np.intp)  # closed facility -> its frontier row
    # The paying set in CSR flat order: per edge its flat position,
    # distance, frontier row and (weighted instances) client weight.
    pay = {"pos": np.zeros(0, dtype=np.intp), "d": np.zeros(0), "loc": np.zeros(0, dtype=np.intp)}
    if w is not None:
        pay["w"] = np.zeros(0)

    def arrive(a: int, b: int):
        """Edges that start paying at levels ``a..b`` with an unfrozen
        client, by level: those into closed facilities with their
        paying-set columns and level, and the flat positions and levels
        of those into tentative facilities — their new H edges."""
        ptr = sched.bucket_ptr
        hi = min(b, ptr.size - 1)
        if a > hi or ptr[hi] == ptr[a - 1]:
            none = np.zeros(0, dtype=np.intp)
            return {key: col[:0] for key, col in pay.items()} | {"level": none}, none, none
        new = _Edges(*(col[ptr[a - 1] : ptr[hi]] for col in edges))
        level = np.repeat(np.arange(a, hi + 1), np.diff(ptr[a - 1 : hi + 1]))
        live = ~machine.take_rows(frozen, new.client)
        to_tent = machine.take_rows(tent_open, new.facility)
        keep = live & ~to_tent
        added = {
            "pos": machine.pack(new.pos, keep),
            "d": machine.pack(new.d, keep),
            "loc": machine.take_rows(loc, machine.pack(new.facility, keep)),
            "level": machine.pack(level, keep),
        }
        if w is not None:
            added["w"] = machine.take_rows(w, machine.pack(new.client, keep))
        h = live & to_tent
        return added, machine.pack(new.pos, h), machine.pack(level, h)

    moved = True
    while not frozen.all():
        if moved:
            # A facility opened or a client froze since the last level:
            # drop the paying edges that left the frontier and re-gather
            # the per-epoch caches.
            unfro = np.flatnonzero(~frozen)
            closed = np.flatnonzero(~(free_open | tent_open))
            loc[closed] = np.arange(closed.size)
            pay_rows = machine.take_rows(rows, pay["pos"])
            stay = np.asarray(
                machine.map(
                    lambda to, fr: ~(to | fr),
                    machine.take_rows(tent_open, pay_rows),
                    machine.take_rows(frozen, machine.take_rows(indices, pay["pos"])),
                )
            )
            pay = {key: machine.pack(col, stay) for key, col in pay.items() if key != "loc"}
            pay["loc"] = machine.take_rows(loc, machine.pack(pay_rows, stay))
            f_closed = machine.take_rows(f, closed)
            paid_closed = machine.take_rows(paid_frozen, closed)
            dmin_unfro = machine.take_rows(dmin_open, unfro)
            moved = False

        # Skip to the next level at which something can happen; the
        # levels before it only let their buckets' edges start paying.
        reach_on = free_open.any() or tent_open.any() or fallback_live
        target, pay, h_new = _next_event(
            machine, sched, iterations + 1, pay, paid_closed, f_closed,
            dmin_unfro if reach_on else None, arrive,
        )
        H_mask[h_new] = True
        # The levels up to the target count one by one, up to the first
        # past the cap: one round mark for the run.
        stop = min(target, max(iter_cap, iterations) + 1)
        machine.bump_rounds("pd_iterations", stop - iterations)
        iterations = stop
        if iterations > iter_cap:
            raise ConvergenceError(
                f"primal–dual exceeded {iter_cap} iterations (m={m}, eps={eps})"
            )
        t = base * (1.0 + eps) ** (iterations - 1) if base > 0 else 0.0
        c = (1.0 + eps) * t

        # Step 1: raise unfrozen duals to the schedule level.
        alpha[unfro] = t
        machine.ledger.charge_basic("scatter", max(unfro.size, 1), depth=1)

        # Step 2: live payments over the paying set; frozen clients are
        # already folded into paid_frozen, which is the whole payment
        # while no edge pays.
        paid = paid_closed
        if pay["pos"].size:
            live = machine.masked_axpy(-1.0, pay["d"], c, clamp_min=0.0)
            if w is not None:
                live = machine.map(lambda lv, ww: lv * ww, live, pay["w"])
            paid = machine.map(
                lambda fr, lv: fr + lv,
                paid_closed,
                machine.scatter_add(np.asarray(live), pay["loc"], closed.size),
            )
        openable = np.asarray(
            machine.map(lambda p, ff: p * _REL_TOL >= ff, paid, f_closed)
        )
        new_open = closed[openable]
        tent_open[new_open] = True
        machine.ledger.charge_basic("scatter", max(new_open.size, 1), depth=1)

        # Step 3: freeze unfrozen clients reaching any open facility
        # (real or fallback), via the maintained nearest-open distance.
        if new_open.size:
            pos2, _ = machine.segment_positions(indptr, new_open)
            dnew = machine.scatter_min(
                machine.take_rows(data, pos2), machine.take_rows(indices, pos2), nc
            )
            dmin_open = np.asarray(machine.map(np.minimum, dmin_open, dnew))
            dmin_unfro = machine.take_rows(dmin_open, unfro)
        newly_frozen = np.zeros(0, dtype=np.intp)
        if free_open.any() or tent_open.any() or fallback_live:
            # alpha[unfro] == t, so (1+ε)α_j is c for every unfrozen j.
            reach = np.asarray(
                machine.map(lambda dm: c * _REL_TOL >= dm, dmin_unfro)
            )
            newly_frozen = unfro[reach]
            frozen[newly_frozen] = True
            machine.ledger.charge_basic("scatter", max(newly_frozen.size, 1), depth=1)

        # Step 4: H edges of newly opened facilities — their full
        # candidate rows, at every client's current α.
        if new_open.size:
            H_mask[pos2] = np.asarray(
                machine.map(
                    lambda d, a: (1.0 + eps) * a > d,
                    machine.take_rows(data, pos2),
                    machine.take_rows(alpha, machine.take_rows(indices, pos2)),
                )
            )

        # Fold the payments of clients frozen this level into the
        # per-facility running totals (their α is now final). Every
        # nonzero term is on the paying set.
        if newly_frozen.size and pay["pos"].size:
            cols = machine.take_rows(indices, pay["pos"])
            done = machine.take_rows(frozen, cols)
            paid_frozen = np.asarray(
                machine.map(
                    lambda pf, s: pf + s,
                    paid_frozen,
                    _fold_sums(
                        machine,
                        machine.pack(live, done),
                        machine.pack(machine.take_rows(rows, pay["pos"]), done),
                        machine.pack(cols, done),
                        nf,
                        sort_folds,
                    ),
                )
            )

        # Exhaustion rule: if every facility is open but clients remain
        # unfrozen, connect them directly (α_j = min over candidates,
        # capped by the fallback — all folded into dmin_open).
        if not frozen.all() and bool(np.all(free_open | tent_open)):
            still = np.flatnonzero(~frozen)
            alpha[still] = np.maximum(machine.take_rows(dmin_open, still), alpha[still])
            machine.ledger.charge_basic("scatter", max(still.size, 1), depth=1)
            frozen[:] = True
            tent_idx = np.flatnonzero(tent_open)
            if tent_idx.size and still.size:
                pos5, _ = machine.segment_positions(indptr, tent_idx)
                sm = np.zeros(nc, dtype=bool)
                sm[still] = True
                H_mask[pos5] |= np.asarray(
                    machine.map(
                        lambda d, s, a: s & ((1.0 + eps) * a > d),
                        machine.take_rows(data, pos5),
                        machine.take_rows(sm, machine.take_rows(indices, pos5)),
                        machine.take_rows(alpha, machine.take_rows(indices, pos5)),
                    )
                )
        moved = bool(new_open.size or newly_frozen.size)

    return _finish_sparse(
        instance, caller, machine, start, gamma, eps, alpha, free_open, tent_open, H_mask, f
    )


def schedule_length(
    eps: float, c1: float, horizon: float, m: int, iter_cap: float = math.inf
) -> float:
    """The levels of the schedule ``c_ℓ = c1·(1+ε)^(ℓ−1)`` through the
    first threshold above ``horizon``, cut at ``iter_cap``; sized with
    logs, so without listing a threshold.

    Raises :class:`~repro.errors.InvalidParameterError` naming
    ``epsilon`` when that exceeds :data:`MAX_SCHEDULE_LEVELS`.
    Thresholds that never grow (``c1`` underflowed to 0) never pass
    ``horizon``: the schedule is then the iteration cap.
    """
    length = iter_cap
    if 0.0 < c1 <= horizon:
        span = (math.log(horizon) - math.log(c1)) / math.log1p(eps)
        if math.isfinite(span):
            length = min(iter_cap, math.floor(span) + 2)
    elif c1 > horizon:
        length = min(iter_cap, 1)
    if length > MAX_SCHEDULE_LEVELS:
        raise InvalidParameterError(
            f"epsilon={eps!r} needs a primal–dual schedule of {length} levels "
            f"on m={m} edges, over the limit of {MAX_SCHEDULE_LEVELS}; "
            "use a larger epsilon"
        )
    return length


def _schedule(base: float, eps: float, horizon: float, iter_cap: int, m: int) -> np.ndarray:
    """The thresholds ``c_ℓ = (1+ε)·base·(1+ε)^(ℓ−1)``, ``ℓ = 1, 2, …``,
    as the level body computes them: listed until one exceeds
    ``horizon``, and cut at the iteration cap, past which the loop
    raises. Too long a schedule is refused before anything is listed
    (:func:`schedule_length`).

    They are listed one by one with Python's scalar ``**``, the body's
    own expression: a vectorised ``np.power`` rounds some of them to
    other bits (12–29 of the first 400 at ε ∈ {0.01, 0.1, 0.5}).
    """
    schedule_length(eps, (1.0 + eps) * base, horizon, m, iter_cap)
    q = 1.0 + eps
    levels: list[float] = []
    k = 0
    while k < iter_cap:
        levels.append(q * (base * q**k))
        k += 1
        if not 0.0 < levels[-1] <= horizon:
            break
    return np.asarray(levels, dtype=float)


def _paying_buckets(machine: PramMachine, d: np.ndarray, levels: np.ndarray) -> _Schedule:
    """Bucket the frontier edges, whose distances ``d`` ascend, by the
    level at which they start paying.

    Edge ``e`` starts paying at the first level ``ℓ`` with
    ``d_e < c_ℓ``, so level ``ℓ``'s bucket is the slice between the
    counts of distances below ``c_(ℓ−1)`` and below ``c_ℓ``; edges the
    schedule never reaches (it was cut at the iteration cap) lie past
    the last bound.
    """
    if not levels.size:  # a cap below 1: the loop raises before any level
        none = np.zeros(1, dtype=np.intp)
        return _Schedule(levels, levels, True, none, none)
    # pow is accurate to an ulp, so the thresholds ascend for every ε
    # whose schedule can finish; the running max makes "the first level
    # whose threshold exceeds d" exact regardless.
    thresholds = np.maximum.accumulate(levels)
    bucket_ptr = np.concatenate(([0], np.searchsorted(d, thresholds)))
    machine.ledger.charge_basic("bucket_bounds", thresholds.size * max(d.size, 2).bit_length())
    with np.errstate(over="ignore"):  # as the body's float product, inf past the range
        reach = levels * _REL_TOL
    return _Schedule(
        c=levels,
        reach=reach,
        ascending=bool(np.all(levels[1:] >= levels[:-1])),
        bucket_ptr=bucket_ptr,
        busy=np.concatenate(([0], np.cumsum(bucket_ptr[1:] > bucket_ptr[:-1]))),
    )


def _next_event(
    machine: PramMachine,
    sched: _Schedule,
    lo: int,
    pay: dict,
    paid_closed: np.ndarray,
    f_closed: np.ndarray,
    dmin_unfro: np.ndarray | None,
    arrive,
) -> tuple[int, dict, np.ndarray]:
    """The first level ``≥ lo`` at which the level body can open a
    facility or freeze a client, with the paying set brought up to it.

    ``dmin_unfro`` is the unfrozen clients' nearest open distance, or
    ``None`` while nothing can freeze; ``arrive(a, b)`` lists the edges
    that start paying at levels ``a..b``. Returns ``(level, pay, h)``:
    ``pay`` has every bucket through ``level`` merged in, and ``h`` holds
    the flat positions of those buckets' edges into tentative
    facilities. The level is never later than the first event; it is
    ``lo`` when the thresholds do not ascend, when no facility is closed
    (the exhaustion rule fires), and past the listed schedule.
    """
    c = sched.c
    top = lo
    if sched.ascending and lo <= c.size and f_closed.size:
        # A client freezes at the first level whose threshold, times
        # (1+10⁻¹²), reaches its nearest open distance: exact.
        dmin = np.inf if dmin_unfro is None else float(machine.reduce(dmin_unfro, "min"))
        top = lo + int(np.searchsorted(sched.reach[lo - 1 :], dmin))
        machine.ledger.charge_basic("schedule_search", (c.size - lo + 1).bit_length())
    parts = []
    level = scanned = lo
    if top > lo:
        # Openings before `top`: estimate window by window, in level
        # order, until a window holds one.
        n = f_closed.size
        need = machine.map(lambda ff, p: ff / _REL_TOL - p, f_closed, paid_closed)
        sw = _facility_sums(machine, pay, n, None)
        swd = _facility_sums(machine, pay, n, pay["d"])
        budget = max(pay["pos"].size, n, _MIN_WINDOW)
        found = None
        while scanned < top and found is None:
            stop = _window_end(sched, scanned, top - 1, budget, n)
            parts.append(arrive(scanned, stop))
            found, sw, swd = _first_opening(machine, c, scanned, stop, need, sw, swd, parts[-1][0])
            budget += parts[-1][0]["pos"].size
            scanned = stop + 1
        level = top if found is None else found
    if level > lo:
        # Confirm with the level body's own sums over the paying set
        # plus every scanned edge (those not paying yet add an exact
        # +0.0): nothing may open before `level`.
        cand = _merge_sorted(
            machine,
            dict(pay, level=np.zeros(pay["pos"].size, dtype=np.intp)),
            _flat_order(machine, [part[0] for part in parts]),
        )

        def opens(at: int) -> bool:
            return _opens(machine, cand, c[at - 1], paid_closed, f_closed)

        if opens(level - 1):
            level = _first_true(opens, lo - 1, level - 1)
        arrival = cand.pop("level")
        if level < scanned:  # later scanned edges wait for their buckets
            arrived = np.asarray(machine.map(lambda lv: lv <= level, arrival))
            cand = {key: machine.pack(col, arrived) for key, col in cand.items()}
        pay = cand
    elif level < scanned:  # the estimate found an opening at `lo` itself
        pay = _merge_sorted(machine, pay, _flat_order(machine, [_upto(parts[0][0], lo)]))
    if level >= scanned:
        parts.append(arrive(scanned, level))
        if parts[-1][0]["pos"].size:
            pay = _merge_sorted(machine, pay, _flat_order(machine, [parts[-1][0]]))
    h = np.concatenate([part[1][part[2] <= level] for part in parts])
    return level, pay, h


def _window_end(sched: _Schedule, a: int, last: int, budget: int, n: int) -> int:
    """The last level of the estimate window from ``a``: at most
    ``budget`` bucket edges and ``4·budget // n`` levels with edges (so
    its per-level facility grid holds at most about ``4·budget``
    cells), at least one level, at most ``last``."""
    ptr, busy = sched.bucket_ptr, sched.busy
    by_edges = np.searchsorted(ptr, ptr[a - 1] + budget, side="right") - 1
    by_levels = np.searchsorted(busy, busy[a - 1] + max(1, 4 * budget // n), side="right") - 1
    return int(min(max(min(by_edges, by_levels), a), last))


def _first_true(pred, low: int, high: int) -> int:
    """The smallest ``ℓ`` in ``(low, high]`` with ``pred(ℓ)``, for a
    predicate monotone in ``ℓ`` that holds at ``high``: gallop down from
    ``high``, then bisect."""
    step = 1
    while high - step > low:
        if not pred(high - step):
            low = high - step
            break
        high -= step
        step *= 2
    while high - low > 1:
        mid = (low + high) // 2
        if pred(mid):
            high = mid
        else:
            low = mid
    return high


def _opens(
    machine: PramMachine, edges: dict, c: float, paid_closed: np.ndarray, f_closed: np.ndarray
) -> bool:
    """Whether the level body at threshold ``c`` opens a facility: its
    own payment sums, over ``edges`` in flat order."""
    live = machine.masked_axpy(-1.0, edges["d"], c, clamp_min=0.0)
    if "w" in edges:
        live = machine.map(lambda lv, ww: lv * ww, live, edges["w"])
    paid = machine.map(
        lambda fr, lv: fr + lv,
        paid_closed,
        machine.scatter_add(np.asarray(live), edges["loc"], f_closed.size),
    )
    return bool(np.any(machine.map(lambda p, ff: p * _REL_TOL >= ff, paid, f_closed)))


def _first_opening(
    machine: PramMachine,
    c: np.ndarray,
    a: int,
    b: int,
    need: np.ndarray,
    sw: np.ndarray,
    swd: np.ndarray,
    added: dict,
) -> tuple[int | None, np.ndarray, np.ndarray]:
    """Estimated first level in ``a..b`` at which a closed facility
    opens (``None`` if none), and the per-facility ``Σw``, ``Σw·d`` once
    the window's edges (``added``, by level) have arrived.

    In exact arithmetic facility ``i`` pays ``c_ℓ·Σw − Σw·d`` over its
    paying edges, so it opens at the first threshold
    ``c_ℓ ≥ (need_i + Σw·d) / Σw``; ``need_i`` is its cost, divided by
    ``1+10⁻¹²``, less its frozen clients' payments. The sums start at
    ``sw``/``swd`` and change only at the window's levels with edges;
    between two such levels the first facility to open is the one with
    the smallest such bound.
    """
    n = need.size
    level = added["level"]
    first = np.ones(level.size, dtype=bool)
    first[1:] = level[1:] != level[:-1]
    levels = level[first]  # the window's levels with edges, ascending
    cell = (np.cumsum(first) - 1) * n + added["loc"]
    size = levels.size * n
    wt = added.get("w")
    wd = added["d"] if wt is None else added["d"] * wt
    grid_w = np.bincount(cell, weights=wt, minlength=size).reshape(levels.size, n)
    grid_wd = np.bincount(cell, weights=wd, minlength=size).reshape(levels.size, n)
    W = np.vstack((sw, sw + np.cumsum(grid_w, axis=0)))
    WD = np.vstack((swd, swd + np.cumsum(grid_wd, axis=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(W > 0, (need + WD) / W, np.where(need <= 0, -np.inf, np.inf))
    start = np.concatenate(([a], levels))
    stop = np.concatenate((levels - 1, [b]))
    at = np.maximum(start, np.searchsorted(c, bound.min(axis=1)) + 1)
    machine.ledger.charge_basic("opening_estimate", 2 * level.size + 6 * W.size)
    hit = np.flatnonzero(at <= stop)
    return (int(at[hit[0]]) if hit.size else None), W[-1], WD[-1]


def _facility_sums(machine: PramMachine, edges: dict, n: int, x) -> np.ndarray:
    """Per closed facility, ``Σw·x`` over ``edges`` (``Σw`` for
    ``x=None``) — estimate inputs, in any summation order."""
    wt = edges.get("w")
    if x is not None:
        wt = x if wt is None else x * wt
    machine.ledger.charge_basic("scatter_add", edges["loc"].size + n)
    return np.bincount(edges["loc"], weights=wt, minlength=n).astype(float)


def _upto(edges: dict, level: int) -> dict:
    """The edges (by level) that start paying at ``level`` or before."""
    k = int(np.searchsorted(edges["level"], level, side="right"))
    return {key: col[:k] for key, col in edges.items()}


def _flat_order(machine: PramMachine, parts: list) -> dict:
    """The edge sets ``parts`` as one, in flat order."""
    pos = np.concatenate([part["pos"] for part in parts])
    order = np.argsort(pos)
    machine.ledger.charge_sort("flat_order", max(order.size, 1), max(order.size, 2))
    return {key: np.concatenate([part[key] for part in parts])[order] for key in parts[0]}


def _fold_sums(
    machine: PramMachine,
    terms: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    nf: int,
    sort: bool,
) -> np.ndarray:
    """Per-facility sums of ``terms`` (edge ``k`` in row ``rows[k]``,
    column ``cols[k]``), each facility adding its terms in ascending
    client order — the order of a client-major pass. Terms in flat order
    come that way when every row stores ascending columns; ``sort`` says
    some row does not, and they are sorted first."""
    if sort:
        order = np.lexsort((cols, rows))
        machine.ledger.charge_sort("fold_order", order.size, order.size)
        terms, rows = machine.take_rows(terms, order), machine.take_rows(rows, order)
    return machine.scatter_add(terms, rows, nf)


def _merge_sorted(machine: PramMachine, pay: dict, added: dict) -> dict:
    """Merge ``added`` into ``pay``: two edge sets with the same columns,
    each ascending in its ``"pos"`` column, with disjoint positions."""
    if not pay["pos"].size:
        return added
    slots = np.searchsorted(pay["pos"], added["pos"]) + np.arange(added["pos"].size)
    n = pay["pos"].size + added["pos"].size
    old = np.ones(n, dtype=bool)
    old[slots] = False
    merged = {}
    for key, col in pay.items():
        merged[key] = np.empty(n, dtype=col.dtype)
        merged[key][old] = col
        merged[key][slots] = added[key]
    machine.ledger.charge_basic("merge", n * len(merged))
    return merged


def _finish_sparse(
    instance: SparseFacilityLocationInstance,
    caller,
    machine: PramMachine,
    start,
    gamma: float,
    eps: float,
    alpha: np.ndarray,
    free_open: np.ndarray,
    tent_open: np.ndarray,
    H_mask: np.ndarray,
    f: np.ndarray,
) -> FacilityLocationSolution:
    """§5 post-processing on the sparse contribution graph."""
    from scipy import sparse

    nf, nc = instance.n_facilities, instance.n_clients
    counts = machine.count_votes(instance.rows_flat(), nf, mask=H_mask)
    H_indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    H_cols = machine.pack(instance.indices, H_mask)
    H = sparse.csr_matrix(
        (np.ones(H_cols.size, dtype=bool), H_cols, H_indptr), shape=(nf, nc)
    )
    if tent_open.any():
        survivors = max_u_dominator_set_sparse(H, machine, candidates=tent_open)
    else:
        survivors = np.zeros(nf, dtype=bool)
    final_open = survivors | free_open
    if not final_open.any():
        # Only possible when no client can pay anything — open the
        # cheapest facility to return a valid solution shape.
        final_open[int(np.argmin(f))] = True

    opened_idx = np.flatnonzero(final_open)
    # cost() is this same sum; each part is evaluated once.
    facility_cost = caller.facility_cost(opened_idx)
    connection_cost = caller.connection_cost(opened_idx)
    return FacilityLocationSolution(
        opened=opened_idx,
        cost=facility_cost + connection_cost,
        facility_cost=facility_cost,
        connection_cost=connection_cost,
        alpha=alpha,
        rounds=dict(machine.ledger.rounds),
        model_costs=machine.ledger.since(start),
        extra={
            "gamma": gamma,
            "F0": np.flatnonzero(free_open),
            "F_T": np.flatnonzero(tent_open),
            "I": np.flatnonzero(survivors),
            "H": H if isinstance(caller, SparseFacilityLocationInstance) else H.toarray(),
            "epsilon": eps,
        },
    )
