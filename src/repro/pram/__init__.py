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

:class:`PramMachine` executes those primitives with NumPy on a
swappable backend — serial, or thread-parallel (NumPy ufuncs release
the GIL, so row-blocked threads are genuinely parallel); the process
backend pools only the shard subsystem's batch tasks — while charging
the model costs to a :class:`CostLedger`; charges are
backend-invariant, so all of the paper's asymptotic claims (work
bounds, round counts, polylog depth, Brent speedup
``T_p = W/p + D``) become directly measurable quantities on any
substrate.
"""

from repro.pram.operators import ADD, AND, MAX, MIN, OR, AssociativeOp, get_operator
from repro.pram.ledger import CostLedger, CostSnapshot, RoundMark
from repro.pram.backends import (
    AUTO_BACKEND_MIN_SIZE,
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    make_backend,
    resolve_backend_name,
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
    "AUTO_BACKEND_MIN_SIZE",
    "available_backends",
    "make_backend",
    "resolve_backend_name",
    "shared_backend",
    "brent_time",
    "parallelism",
    "speedup_curve",
]
