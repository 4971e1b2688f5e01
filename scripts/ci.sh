#!/usr/bin/env bash
# CI gate: lint (when ruff is available) + tier-1 tests + the primal–dual,
# k-center and greedy suites with RuntimeWarning as an error + the batch
# executor and shard suites with ResourceWarning and RuntimeWarning as errors +
# end-to-end smoke + a short paper-solvers benchmark run with its output checks.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Backend matrix hook: REPRO_BACKEND=serial|thread|process is the pool
# every default-constructed PramMachine carries, and so the pool
# shard_and_solve fans out to by default (see
# repro.pram.backends.shared_backend). Unset means serial.
echo "== backend: ${REPRO_BACKEND:-serial} (workers=${REPRO_NUM_WORKERS:-auto}) =="

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 pytest =="
python -m pytest -x -q

# The primal–dual level skip divides and its bucket-bound search meets
# +inf thresholds (also on every Lagrangian probe, which shares one
# distance order per call), the k-center MaxDom rounds compare priorities against a
# no-candidate sentinel and reduce empty segments, the greedy body
# divides by prefix ranks and compares star prices against +inf, and the
# §7 swap loop clamps infinite service costs to a finite sentinel that
# moves with every swap, so its swap terms must never form inf - inf
# (dense instances run the same loop on their full CSR, where k = 1
# leaves no second center and so reaches the clamp; their oracle, the
# dense O(k·n²) batch in tests/reference/local_search_dense.py, runs in
# the oracle suite); a
# nan or inf there would skip levels, pick dominators, open facilities
# or swap centers wrongly without an error, so these suites run with
# RuntimeWarning as an error.
echo "== primal-dual, k-center, greedy and swap-loop suites, RuntimeWarning as error =="
python -X dev -W error::RuntimeWarning -m pytest -q tests/core/test_primal_dual.py \
    tests/core/test_sparse_paths.py tests/core/test_kmedian_lagrangian.py \
    tests/core/test_lagrangian_oracle.py \
    tests/core/test_kcenter.py tests/core/test_kcenter_oracle.py \
    tests/core/test_dominator.py tests/core/test_dominator_sparse.py \
    tests/integration/test_sparse_equivalence.py \
    tests/core/test_greedy.py tests/core/test_greedy_oracle.py tests/core/test_stars.py \
    tests/core/test_lp_rounding.py tests/pram/test_segmented.py tests/pram/test_machine.py \
    tests/integration/test_weighted_solvers.py tests/core/test_local_search_oracle.py \
    tests/core/test_local_search.py tests/integration/test_degenerate_workloads.py

# The Supervisor is the one batch executor: it owns every shared-memory
# segment and every pool respawn on the default shard path, so a segment,
# pool or file it fails to release (ResourceWarning) fails these suites.
# The coreset suite also runs identity fan-outs, which build in the
# caller and must start no pool worker.
# The store fuzz suite opens hundreds of garbled stores, each of whose
# block files must be closed whether or not ShardStore.open accepts it.
# The shard-source suites write, refuse and reopen stores, and feed NaN,
# infinite and fractional labels and weights to the source's checks.
echo "== batch executor and shard suites, ResourceWarning and RuntimeWarning as errors =="
python -X dev -W error::ResourceWarning -W error::RuntimeWarning -m pytest -q \
    tests/pram/test_backends.py tests/faults/test_supervisor.py \
    tests/shard/test_coreset.py tests/shard/test_store.py tests/shard/test_store_fuzz.py \
    tests/shard/test_solve.py tests/shard/test_shard_failures.py \
    tests/shard/test_source_checks.py tests/shard/test_source_properties.py

echo "== smoke =="
python scripts/smoke.py

# A short paper-solvers benchmark run. Exit 1 means an output check
# failed (a recomputed objective, the certified 3+eps ratio, or a
# repeated pass that changed its answer); set -e fails the gate.
echo "== paper-solvers output checks =="
python3 perfbench/run.py --workload paper-solvers --seed 1 --seconds 10 --trace 0
