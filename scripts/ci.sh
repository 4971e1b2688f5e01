#!/usr/bin/env bash
# CI gate: lint (when ruff is available) + tier-1 tests + end-to-end smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Backend matrix hook: REPRO_BACKEND=serial|thread|process makes every
# default-constructed PramMachine run on that backend (see
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

echo "== smoke =="
python scripts/smoke.py
