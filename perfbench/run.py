"""Run one benchmark workload, or all of them, against the program in ``src/``.

    python3 perfbench/run.py --workload shard-kmedian --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Workloads: ``shard-kmedian``, ``paper-solvers`` and ``serve-fresh`` (see
their modules). With ``--trace 0`` a run reports the end-to-end metrics
with every program tracer off; with ``--trace 1`` it spends half the
time untraced and half traced and reports the per-layer split. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are
diagnostics. The exit code is 1 when an output check failed, 2 when the
program source is missing, and 0 otherwise. ``--workload all`` runs each
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "shard-kmedian": "shard_kmedian",
    "paper-solvers": "paper_solvers",
    "serve-fresh": "serve_fresh",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1,
                   help="input seed: selects the input variants (held-out check seed: 11)")
    p.add_argument("--seconds", type=float, default=50.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the full run record (environment, diagnostics, every metric) as JSON")
    p.add_argument("--trace-out", help="with --trace 1: write the kept spans as trace-event JSONL")
    return p.parse_args(argv)


def _print_record(record: dict, result: dict) -> None:
    env = record["env"]
    print(f"# perfbench {record['workload']} seed={env['seed']} variant={env['variant']} "
          f"held_out_seed={env['held_out_seed']} seconds={record['seconds']:g} trace={record['trace']}")
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    for key, value in record["diagnostics"].items():
        print(f"# {key} = {json.dumps(value)}")
    for message in record["problems"]["wrong"][:10]:
        print(f"# WRONG: {message}")
    for message in record["problems"]["errors"][:10]:
        print(f"# FAILED: {message}")
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']!r:>24} {metric['unit']}")


def run_one(args, workdir: Path) -> int:
    import importlib

    from perfbench import common

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    trace = bool(args.trace)
    if args.workload == "serve-fresh":
        raw = module.run(args.seed, args.seconds, trace, workdir)
    else:
        raw = module.run(args.seed, args.seconds, trace)
    result = common.finish(raw, trace)
    env = common.environment(args.seed)
    if "variants" in raw["diagnostics"]:
        env["variant"] = raw["diagnostics"]["variants"]
    tally = raw["tally"]
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            tally.check(False, f"{name} could not be measured (no operation succeeded)")
            metric["value"] = 0.0
    result["correct"] = tally.correct
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "diagnostics": raw["diagnostics"],
        "problems": {"wrong": tally.wrong, "errors": tally.errors},
        "end_to_end": raw["end_to_end"],
        "per_layer": raw["per_layer"],
        "result": result,
    }
    _print_record(record, result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    if args.trace_out and trace:
        from perfbench.tracing import MemoryTracer

        kept = MemoryTracer()
        kept.events = raw["events"]
        kept.write(args.trace_out)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, workdir: Path) -> int:
    """Each workload in its own process; one summary table at the end."""
    results, status = {}, 0
    for name in WORKLOADS:
        out = workdir / f"{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0 or not out.exists():
            status = 1
            print(f"# {name}: exit code {proc.returncode}")
            continue
        with open(out) as fh:
            results[name] = json.load(fh)
        status |= 0 if results[name]["result"]["correct"] else 1
    names = list(next(iter(results.values()))["result"]["metrics"]) if results else []
    print("\n" + f"{'metric':34s}" + "".join(f"{w:>18s}" for w in results) + "  unit")
    for metric in names:
        cells = [r["result"]["metrics"][metric] for r in results.values()]
        print(f"{metric:34s}" + "".join(f"{c['value']:18.6g}" for c in cells) + f"  {cells[0]['unit']}")
    print("all output checks passed" if status == 0 else "FAILED: see the lines marked WRONG or FAILED above")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program source {src / 'repro'} is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import common

    for var in common.STRIPPED_ENV:
        os.environ.pop(var, None)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args, workdir)
        return run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
