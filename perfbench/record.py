"""Record the reference objectives that ``objective_rel`` divides by.

    python3 perfbench/record.py [--workload NAME ...] [--variants 0-15]

For every input variant (by default all of a workload's) it runs each workload's solves once, recomputes
their objectives with :mod:`perfbench.objective`, and stores them in
``perfbench/references.json``. Re-record only when the benchmark's
inputs change; a change to the program is measured against these.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=("shard-kmedian", "paper-solvers", "serve-fresh"))
    p.add_argument("--variants", help="inclusive range, e.g. 0-15; default: every variant of the workload")
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import importlib
    import os

    from perfbench import common

    for var in common.STRIPPED_ENV:
        os.environ.pop(var, None)
    refs = json.loads(common.REFERENCES.read_text()) if common.REFERENCES.exists() else {}
    for name in args.workload or ("shard-kmedian", "paper-solvers", "serve-fresh"):
        module = importlib.import_module(f"perfbench.{name.replace('-', '_')}")
        count = getattr(module, "VARIANTS", common.VARIANTS)
        table = refs.setdefault(name, [])
        table.extend([None] * (count - len(table)))
        lo, hi = (int(x) for x in args.variants.split("-")) if args.variants else (0, count - 1)
        for variant in range(lo, hi + 1):
            t0 = time.perf_counter()
            table[variant] = module.reference(variant)
            print(f"{name} variant {variant}: recorded in {time.perf_counter() - t0:.2f} s", flush=True)
            common.REFERENCES.write_text(json.dumps(refs, indent=None) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
