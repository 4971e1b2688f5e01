"""Work–depth (PRAM) machine simulator — the paper's §2 cost model.

The paper expresses every algorithm as a polylogarithmic number of calls
to a small vocabulary of *basic matrix operations* (parallel loops over
vectors/matrices, transposition, row sorting, and summation / prefix
sums / distribution across rows or columns with ``min``/``max``/``add``
operators). On an EREW PRAM a basic operation on ``m`` elements costs
``O(m)`` work and ``O(log m)`` depth; sorting ``m`` elements costs
``O(m log m)`` work and ``O(log m)`` depth; in the parallel
cache-oblivious model the cache complexities are ``O(m/B)`` and
``O((m/B) log_{M/B} m)`` respectively.

:class:`PramMachine` executes those primitives as plain NumPy in the
calling thread while charging the model costs to a :class:`CostLedger`,
so all of the paper's asymptotic claims (work bounds, round counts,
polylog depth, Brent speedup ``T_p = W/p + D``) become directly
measurable quantities. A backend (serial, thread, or process) is only
a task pool for the shard subsystem's batch jobs; no primitive depends
on it, so results and charges are identical on every backend.
"""

from repro.pram.operators import ADD, AND, MAX, MIN, OR, AssociativeOp, get_operator
from repro.pram.ledger import CostLedger, CostSnapshot, RoundMark
from repro.pram.backends import (
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    make_backend,
    shared_backend,
)
from repro.pram.machine import PramMachine, ensure_machine
from repro.pram.brent import brent_time, parallelism, speedup_curve

__all__ = [
    "AssociativeOp",
    "ADD",
    "MIN",
    "MAX",
    "OR",
    "AND",
    "get_operator",
    "CostLedger",
    "CostSnapshot",
    "RoundMark",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "PramMachine",
    "ensure_machine",
    "ProcessBackend",
    "available_backends",
    "make_backend",
    "shared_backend",
    "brent_time",
    "parallelism",
    "speedup_curve",
]
