"""Cost ledger: accumulates work, depth, and cache charges.

The ledger is the measurement instrument behind every work/depth claim
the benchmarks check (README, "Frontier-compacted execution").
Primitives report ``(work, depth, cache)`` charges; the ledger
accumulates them under sequential composition (depth adds —
the paper's algorithms issue primitives one after another, each itself
fully parallel) and tracks per-primitive call counts plus named round
counters so benchmarks can report "rounds executed" directly.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple


class RoundMark(NamedTuple):
    """One entry of :attr:`CostLedger.round_log`.

    A NamedTuple so historical consumers that unpack positionally —
    ``(label, index, work, wall)`` — keep working unchanged, while new
    code reads fields by name. ``work`` is cumulative ledger work at
    the bump; ``wall`` is ``time.perf_counter()`` at the bump.

    ``index`` is the label's round count after the bump. A mark whose
    index jumps by ``count > 1`` over the label's previous one records
    a run of rounds (:meth:`CostLedger.bump_rounds`): the ``count − 1``
    before it did no work, and :func:`repro.bench.reporting.expand_rounds`
    lists them as such.
    """

    label: str
    index: int
    work: float
    wall: float

    @classmethod
    def coerce(cls, entry) -> "RoundMark":
        """Accept a RoundMark or a legacy bare 4-tuple."""
        return entry if isinstance(entry, cls) else cls(*entry)


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable view of ledger totals, subtractable for interval costs."""

    work: float
    depth: float
    cache: float
    calls: int

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            work=self.work - other.work,
            depth=self.depth - other.depth,
            cache=self.cache - other.cache,
            calls=self.calls - other.calls,
        )


@dataclass
class CostLedger:
    """Accumulator for the §2 cost model.

    Parameters
    ----------
    cache_size:
        Model cache capacity ``M`` in elements (tall cache ``M > B²``).
    block_size:
        Model cache block size ``B`` in elements.
    """

    cache_size: float = float(2**20)
    block_size: float = 64.0
    work: float = 0.0
    depth: float = 0.0
    cache: float = 0.0
    calls_by_op: Counter = field(default_factory=Counter)
    work_by_op: Counter = field(default_factory=Counter)
    rounds: Counter = field(default_factory=Counter)
    round_log: list = field(default_factory=list)

    def __post_init__(self):
        if self.block_size <= 1:
            raise ValueError(f"block_size must exceed 1, got {self.block_size}")
        if self.cache_size < self.block_size**2:
            raise ValueError(
                "tall-cache assumption M > B^2 violated: "
                f"M={self.cache_size}, B={self.block_size}"
            )

    # -- charging ---------------------------------------------------------

    def charge(self, op: str, *, work: float, depth: float, cache: float) -> None:
        """Record one primitive invocation."""
        self.work += work
        self.depth += depth
        self.cache += cache
        self.calls_by_op[op] += 1
        self.work_by_op[op] += work

    def charge_basic(self, op: str, size: int, *, depth: float | None = None) -> None:
        """Charge a basic matrix operation on ``size`` elements.

        Work ``size``, depth ``⌈log₂ size⌉`` (callers may override for
        O(1)-depth elementwise maps), cache ``size/B``.
        """
        if size <= 0:
            return
        d = math.ceil(math.log2(size)) + 1 if depth is None else depth
        self.charge(op, work=float(size), depth=float(d), cache=size / self.block_size)

    def charge_parallel(self, op: str, costs) -> "CostSnapshot":
        """Fold independently-accrued cost intervals in under *parallel*
        composition: work and cache add (every shard's operations
        happen), depth is the max (the shards run side by side).

        ``costs`` is an iterable of :class:`CostSnapshot` intervals —
        typically ``ledger.since(start)`` from per-shard machines. The
        combined snapshot is charged as a single ``op`` invocation and
        returned, so callers can assert the aggregation seam charges
        exactly the sum of the parts (the shard ledger-honesty
        regression).
        """
        costs = list(costs)
        work = float(sum(c.work for c in costs))
        depth = float(max((c.depth for c in costs), default=0.0))
        cache = float(sum(c.cache for c in costs))
        combined = CostSnapshot(work=work, depth=depth, cache=cache, calls=1)
        self.charge(op, work=work, depth=depth, cache=cache)
        return combined

    def charge_sort(self, op: str, total: int, key_length: int) -> None:
        """Charge sorting ``total`` elements in sequences of ``key_length``.

        EREW: ``O(m log m)`` work, ``O(log m)`` depth (rows sorted in
        parallel, so depth depends on the row length); cache-oblivious:
        ``O((m/B) log_{M/B} m)``.
        """
        if total <= 0 or key_length <= 1:
            self.charge_basic(op, max(total, 1))
            return
        logk = math.log2(key_length)
        log_mb = max(1.0, math.log(total) / math.log(self.cache_size / self.block_size))
        self.charge(
            op,
            work=total * logk,
            depth=logk,
            cache=(total / self.block_size) * log_mb,
        )

    # -- rounds & snapshots -------------------------------------------------

    def bump_round(self, label: str) -> int:
        """Increment and return the named round counter.

        Each bump appends a :class:`RoundMark` (positionally compatible
        with the historical ``(label, index, work_so_far, wall_time)``
        tuple) to :attr:`round_log`, so benches can difference
        consecutive entries into per-round ledger work and wall-clock
        (:func:`repro.bench.summarize_rounds`).
        """
        return self.bump_rounds(label, 1)

    def bump_rounds(self, label: str, count: int) -> int:
        """Count ``count`` rounds of ``label`` at once and return the
        counter: one :class:`RoundMark` whose index jumps by ``count``,
        for a run of rounds of which only the last does any work (a
        run of skipped primal–dual levels)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.rounds[label] += count
        self.round_log.append(
            RoundMark(label, self.rounds[label], self.work, time.perf_counter())
        )
        return self.rounds[label]

    @property
    def total_calls(self) -> int:
        """Total primitive invocations recorded so far."""
        return sum(self.calls_by_op.values())

    def snapshot(self) -> CostSnapshot:
        """Immutable copy of the current totals."""
        return CostSnapshot(self.work, self.depth, self.cache, self.total_calls)

    def since(self, start: CostSnapshot) -> CostSnapshot:
        """Costs accrued since ``start`` was taken."""
        return self.snapshot() - start

    def reset(self) -> None:
        """Zero all accumulators (cache/block parameters are preserved)."""
        self.work = self.depth = self.cache = 0.0
        self.calls_by_op.clear()
        self.work_by_op.clear()
        self.rounds.clear()
        self.round_log.clear()
