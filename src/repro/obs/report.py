"""Summarize a trace: ``python -m repro.obs.report trace.jsonl``.

Turns raw trace-event JSONL into the answers the bench questions ask:
where the wall time went per shard-pipeline stage, which PRAM
primitives dominate and with what latency distribution, how busy each
backend lane was and who straggled, and what the supervisor had to do
(retries, timeouts, crashes, respawns). ``--json`` prints the same
summary dict, and ``--validate`` schema-checks every event.

The module reads only JSON + numpy — it deliberately imports nothing
from the solver stack, so a trace from any run (or machine) can be
inspected anywhere the package is installed.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

#: Phases this toolchain emits; anything else fails validation.
_KNOWN_PHASES = {"X", "i", "C", "M"}


def load_trace(path) -> list:
    """Parse trace-event JSONL into a list of event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError``
    naming the line number (truncated tails from a crashed run should
    be repaired explicitly, not silently dropped).
    """
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid trace JSON: {exc}") from None
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: trace event is not an object")
            events.append(event)
    return events


def validate_events(events) -> list:
    """Check events against the trace-event schema; return error strings.

    An empty list means every event carries the required fields with
    the right types: ``name``/``ph`` strings, ``ph`` a known phase,
    integer ``pid``/``tid``, non-negative integer ``ts`` (and ``dur``
    for complete events; metadata events have no timestamp).
    """
    errors = []
    for i, event in enumerate(events):
        where = f"event {i}"
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"{where}: missing or empty 'name'")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where} ({event['name']}): unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                errors.append(f"{where} ({event['name']}): non-integer {key!r}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            errors.append(f"{where} ({event['name']}): bad 'ts' {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where} ({event['name']}): bad 'dur' {dur!r}")
        if ph == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where} ({event['name']}): counter without args")
    return errors


def _percentile(durs: "np.ndarray", q: float) -> float:
    return float(np.percentile(durs, q)) if durs.size else 0.0


def summarize_trace(events) -> dict:
    """Aggregate a trace into per-stage / per-primitive / per-lane stats."""
    lanes = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            lanes[event["tid"]] = event.get("args", {}).get("name", str(event["tid"]))

    timed = [e for e in events if e.get("ph") in ("X", "i")]
    if timed:
        t0 = min(e["ts"] for e in timed)
        t1 = max(e["ts"] + e.get("dur", 0) for e in timed)
        wall_s = (t1 - t0) / 1e6
    else:
        wall_s = 0.0

    # Shard-pipeline stages: one row per span, ordered by start time.
    stages = []
    for event in timed:
        if event.get("cat") == "shard" and event["ph"] == "X":
            stages.append(
                {
                    "stage": event["name"],
                    "wall_s": event["dur"] / 1e6,
                    "share": (event["dur"] / 1e6 / wall_s) if wall_s else 0.0,
                    "args": event.get("args", {}),
                    "ts": event["ts"],
                }
            )
    stages.sort(key=lambda s: s["ts"])
    for stage in stages:
        del stage["ts"]

    # PRAM primitives: latency histogram + ledger correlation per name.
    prim_durs: dict = {}
    prim_work: dict = {}
    for event in timed:
        if event.get("cat") == "pram" and event["ph"] == "X":
            prim_durs.setdefault(event["name"], []).append(event["dur"])
            work = event.get("args", {}).get("work", 0)
            prim_work[event["name"]] = prim_work.get(event["name"], 0.0) + work
    primitives = {}
    for name, durs in prim_durs.items():
        arr = np.asarray(durs, dtype=np.float64)
        primitives[name] = {
            "count": int(arr.size),
            "total_ms": float(arr.sum() / 1e3),
            "mean_us": float(arr.mean()),
            "p50_us": _percentile(arr, 50),
            "p95_us": _percentile(arr, 95),
            "max_us": float(arr.max()),
            "ledger_work": float(prim_work[name]),
        }

    # Backend lanes: busy time, queue wait, utilization, straggler.
    lane_busy: dict = {}
    lane_wait: dict = {}
    lane_tasks: dict = {}
    window_lo, window_hi = None, None
    straggler = None
    for event in timed:
        if event.get("cat") != "backend" or event["ph"] != "X":
            continue
        tid = event["tid"]
        if event["name"] == "exec":
            lane_busy[tid] = lane_busy.get(tid, 0) + event["dur"]
            lane_tasks[tid] = lane_tasks.get(tid, 0) + 1
            lo, hi = event["ts"], event["ts"] + event["dur"]
            window_lo = lo if window_lo is None else min(window_lo, lo)
            window_hi = hi if window_hi is None else max(window_hi, hi)
            if straggler is None or event["dur"] > straggler["dur_us"]:
                straggler = {
                    "lane": lanes.get(tid, str(tid)),
                    "dur_us": event["dur"],
                    "args": event.get("args", {}),
                }
        elif event["name"] == "queue_wait":
            lane_wait[tid] = lane_wait.get(tid, 0) + event["dur"]
    backend = {"lanes": {}, "straggler": straggler}
    window_us = (window_hi - window_lo) if window_lo is not None else 0
    for tid in sorted(lane_busy):
        backend["lanes"][lanes.get(tid, str(tid))] = {
            "tasks": lane_tasks[tid],
            "busy_s": lane_busy[tid] / 1e6,
            "queue_wait_s": lane_wait.get(tid, 0) / 1e6,
            "utilization": (lane_busy[tid] / window_us) if window_us else 0.0,
        }

    # Supervisor/fault stream: event counts + a row per occurrence.
    fault_counts: dict = {}
    fault_rows = []
    for event in timed:
        if event.get("cat") == "fault":
            fault_counts[event["name"]] = fault_counts.get(event["name"], 0) + 1
            fault_rows.append({"event": event["name"], **event.get("args", {})})

    counters = {}
    for event in events:
        if event.get("ph") == "C":
            counters.setdefault(event["name"], {}).update(event.get("args", {}))

    return {
        "wall_s": wall_s,
        "events": len(events),
        "lanes": {str(tid): name for tid, name in sorted(lanes.items())},
        "stages": stages,
        "primitives": primitives,
        "backend": backend,
        "faults": {"counts": fault_counts, "rows": fault_rows[:200]},
        "counters": counters,
    }


def stitch_request_trace(events, trace_id) -> dict:
    """Stitch one request's spans — across processes — into one tree.

    Selects every span/instant whose ``args.trace_id`` matches, then
    nests spans per lane by interval containment (a span is a child of
    the innermost same-lane span that encloses it). Spans timed inside
    forked worker processes share the machine-wide monotonic clock with
    driver spans (see :mod:`repro.obs.tracer`), so containment across
    the process boundary is plain interval arithmetic — the worker's
    ``exec`` span lands under nothing on its own lane but is still part
    of the request's tree via the shared trace id.

    Returns a dict with the request ``roots`` (one tree per outermost
    span, ordered by start time), the lanes touched (worker lanes keep
    their ``worker-<pid>`` labels so "which processes served this
    request" is readable), plus flat ``span_names`` / ``categories`` /
    ``stages`` indexes for assertions and quick scanning. ``found`` is
    False when the trace holds nothing for that id (e.g. a request
    served before tracing was enabled).
    """
    trace_id = str(trace_id)
    lanes = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            lanes[event["tid"]] = event.get("args", {}).get("name", str(event["tid"]))

    def _matches(event):
        return event.get("args", {}).get("trace_id") == trace_id

    spans = [e for e in events if e.get("ph") == "X" and _matches(e)]
    instants = [e for e in events if e.get("ph") == "i" and _matches(e)]
    if not spans and not instants:
        return {
            "trace_id": trace_id,
            "found": False,
            "events": 0,
            "wall_s": 0.0,
            "roots": [],
            "lanes": {},
            "worker_lanes": [],
            "span_names": [],
            "categories": [],
            "stages": [],
            "instants": [],
        }

    t0 = min(e["ts"] for e in spans + instants)
    t1 = max(e["ts"] + e.get("dur", 0) for e in spans + instants)

    def _node(event):
        args = {k: v for k, v in event.get("args", {}).items() if k != "trace_id"}
        return {
            "name": event["name"],
            "cat": event.get("cat", ""),
            "lane": lanes.get(event["tid"], str(event["tid"])),
            "start_ms": (event["ts"] - t0) / 1e3,
            "dur_ms": event.get("dur", 0) / 1e3,
            "args": args,
            "children": [],
        }

    # Per-lane containment nesting: sort by (start, -dur) so an
    # enclosing span precedes its children, then keep a stack of open
    # ancestors. A 2µs slack absorbs integer-microsecond rounding at
    # span edges.
    slack = 2
    roots = []
    by_lane: dict = {}
    for event in spans:
        by_lane.setdefault(event["tid"], []).append(event)
    for tid in sorted(by_lane):
        stack: list = []  # (end_ts, node)
        for event in sorted(by_lane[tid], key=lambda e: (e["ts"], -e.get("dur", 0))):
            node = _node(event)
            end = event["ts"] + event.get("dur", 0)
            while stack and event["ts"] + slack >= stack[-1][0]:
                stack.pop()
            if stack:
                stack[-1][1]["children"].append(node)
            else:
                roots.append((event["ts"], node))
            stack.append((end + slack, node))
    roots.sort(key=lambda pair: pair[0])

    span_names = sorted({e["name"] for e in spans})
    categories = sorted({e.get("cat", "") for e in spans + instants} - {""})
    worker_lanes = sorted(
        {
            lanes.get(e["tid"], str(e["tid"]))
            for e in spans
            if str(lanes.get(e["tid"], "")).startswith("worker-")
        }
    )
    stages = [
        e["name"]
        for e in sorted(spans, key=lambda e: e["ts"])
        if e.get("cat") == "shard"
    ]
    return {
        "trace_id": trace_id,
        "found": True,
        "events": len(spans) + len(instants),
        "wall_s": (t1 - t0) / 1e6,
        "roots": [node for _, node in roots],
        "lanes": {
            str(tid): lanes.get(tid, str(tid))
            for tid in sorted({e["tid"] for e in spans + instants})
        },
        "worker_lanes": worker_lanes,
        "span_names": span_names,
        "categories": categories,
        "stages": stages,
        "instants": [
            {
                "name": e["name"],
                "cat": e.get("cat", ""),
                "lane": lanes.get(e["tid"], str(e["tid"])),
                "at_ms": (e["ts"] - t0) / 1e3,
                "args": {
                    k: v for k, v in e.get("args", {}).items() if k != "trace_id"
                },
            }
            for e in sorted(instants, key=lambda e: e["ts"])
        ],
    }


def render_request_trace(stitched: dict) -> str:
    """Text rendering of :func:`stitch_request_trace` output."""
    if not stitched["found"]:
        return f"trace {stitched['trace_id']}: no events found"
    lines = [
        f"request {stitched['trace_id']}: {stitched['events']} events, "
        f"wall {stitched['wall_s'] * 1e3:.1f}ms, "
        f"lanes {', '.join(stitched['lanes'].values())}"
    ]

    def _walk(node, depth):
        args = f"  {node['args']}" if node["args"] else ""
        lines.append(
            f"  {'  ' * depth}{node['name']} [{node['cat']}] "
            f"@{node['start_ms']:.2f}ms +{node['dur_ms']:.2f}ms "
            f"({node['lane']}){args}"
        )
        for child in node["children"]:
            _walk(child, depth + 1)

    for root in stitched["roots"]:
        _walk(root, 0)
    for mark in stitched["instants"]:
        lines.append(
            f"  * {mark['name']} [{mark['cat']}] @{mark['at_ms']:.2f}ms "
            f"({mark['lane']}) {mark['args']}"
        )
    return "\n".join(lines)


def render_summary(summary: dict) -> str:
    """Human-readable text rendering of :func:`summarize_trace` output."""
    lines = []
    lines.append(f"trace: {summary['events']} events, wall {summary['wall_s']:.3f}s, "
                 f"{len(summary['lanes'])} lanes")

    if summary["stages"]:
        lines.append("")
        lines.append("shard pipeline stages:")
        lines.append(f"  {'stage':<24}{'wall_s':>10}{'share':>8}")
        for stage in summary["stages"]:
            lines.append(
                f"  {stage['stage']:<24}{stage['wall_s']:>10.3f}{stage['share']:>7.1%}"
            )

    if summary["primitives"]:
        lines.append("")
        lines.append("pram primitives (by total time):")
        lines.append(
            f"  {'primitive':<20}{'count':>7}{'total_ms':>10}{'p50_us':>9}"
            f"{'p95_us':>9}{'max_us':>9}{'work':>12}"
        )
        ranked = sorted(
            summary["primitives"].items(), key=lambda kv: -kv[1]["total_ms"]
        )
        for name, st in ranked:
            lines.append(
                f"  {name:<20}{st['count']:>7}{st['total_ms']:>10.2f}"
                f"{st['p50_us']:>9.0f}{st['p95_us']:>9.0f}{st['max_us']:>9.0f}"
                f"{st['ledger_work']:>12.3g}"
            )

    if summary["backend"]["lanes"]:
        lines.append("")
        lines.append("backend lanes:")
        lines.append(f"  {'lane':<20}{'tasks':>7}{'busy_s':>9}{'wait_s':>9}{'util':>7}")
        for lane, st in summary["backend"]["lanes"].items():
            lines.append(
                f"  {lane:<20}{st['tasks']:>7}{st['busy_s']:>9.3f}"
                f"{st['queue_wait_s']:>9.3f}{st['utilization']:>6.1%}"
            )
        straggler = summary["backend"]["straggler"]
        if straggler:
            lines.append(
                f"  straggler: {straggler['lane']} "
                f"({straggler['dur_us'] / 1e3:.1f} ms, {straggler['args']})"
            )

    if summary["faults"]["counts"]:
        lines.append("")
        lines.append("supervisor events:")
        for name, count in sorted(summary["faults"]["counts"].items()):
            lines.append(f"  {name:<20}{count:>7}")

    if summary["counters"]:
        lines.append("")
        lines.append("counters:")
        for name, values in sorted(summary["counters"].items()):
            lines.append(f"  {name}: {json.dumps(values, sort_keys=True)}")

    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro trace-event JSONL file.",
    )
    parser.add_argument("trace", help="path to a trace .jsonl written under REPRO_TRACE")
    parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON instead of text"
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="also check every event against the trace-event schema",
    )
    parser.add_argument(
        "--trace-id",
        default=None,
        help="stitch and print one request's cross-process trace tree "
        "instead of the whole-trace summary",
    )
    ns = parser.parse_args(argv)

    events = load_trace(ns.trace)
    if ns.validate:
        errors = validate_events(events)
        if errors:
            for err in errors[:50]:
                print(f"schema: {err}")
            return 1
    if ns.trace_id is not None:
        stitched = stitch_request_trace(events, ns.trace_id)
        if ns.json:
            print(json.dumps(stitched, indent=2, sort_keys=True, default=float))
        else:
            print(render_request_trace(stitched))
        return 0 if stitched["found"] else 1
    summary = summarize_trace(events)
    if ns.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=float))
    else:
        print(render_summary(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
