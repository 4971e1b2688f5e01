"""Compare two traced results of one workload, layer by layer.

    python3 perfbench/compare.py PARENT CHANGE

Each argument is a run record written by ``run.py --trace 1 --out FILE``
or the saved standard output of a ``--trace 1`` run. Prints every
per-layer metric's change, largest relative change first, then each
layer's self-time change, largest absolute change first, and each
side's tracing overhead, so a change can show where its saving sits.
Metrics that are 0 on both sides (a layer with no work in the workload)
are left out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def load(path: str) -> tuple:
    """``(workload or None, {name: value})`` from a run record or saved stdout."""
    with open(path) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.startswith("{")]
        if not lines:
            raise SystemExit(f"{path}: no result line found") from None
        obj = json.loads(lines[-1])
    workload = obj.get("workload")
    result = obj.get("result", obj)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if "obs.trace_overhead" not in metrics:
        raise SystemExit(f"{path}: not a traced (--trace 1) result")
    return workload, metrics


def _rel(old: float, new: float) -> float:
    if old == 0:
        return math.inf if new else 0.0
    return (new - old) / abs(old)


def compare(parent: dict, change: dict) -> list:
    """Rows ``(name, parent, change, delta, relative)`` for metrics either side measured."""
    rows = []
    for name in parent:
        old, new = parent[name], change.get(name, 0.0)
        if old == 0 and new == 0:
            continue
        rows.append((name, old, new, new - old, _rel(old, new)))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    (w_old, old), (w_new, new) = load(args.parent), load(args.change)
    if w_old and w_new and w_old != w_new:
        raise SystemExit(f"different workloads: {w_old} vs {w_new}")
    rows = compare(old, new)
    header = f"{'metric':34s} {'parent':>14s} {'change':>14s} {'delta':>14s} {'relative':>9s}"

    def show(row):
        name, a, b, d, r = row
        print(f"{name:34s} {a:14.6g} {b:14.6g} {d:+14.6g} {r:+9.1%}")

    print("per-layer metrics, largest relative change first")
    print(header)
    for row in sorted((r for r in rows if not r[0].startswith("self.")), key=lambda r: -abs(r[4])):
        show(row)
    print("\nself time per operation by layer (s), largest change first")
    print(header)
    for row in sorted((r for r in rows if r[0].startswith("self.")), key=lambda r: -abs(r[3])):
        show(row)
    print(f"\ntracing overhead: parent {old['obs.trace_overhead']:+.1%}, "
          f"change {new['obs.trace_overhead']:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
