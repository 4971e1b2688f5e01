"""In-memory tracing and per-layer self time.

The program emits Chrome trace events when handed a ``repro.obs.Tracer``
(``tracer=``/``machine=`` parameters, :func:`repro.obs.set_tracer`) or,
for the server, through ``REPRO_TRACE``. :class:`MemoryTracer` keeps the
events in a list instead of writing them per event; the benchmark adds
its own ``cat="bench"`` spans around every public call it makes.
"""

from __future__ import annotations

import json
import os

from repro.obs import Tracer

#: Spans that measure waiting for a layer rather than work done in it.
#: They overlap the busy spans of their lane, so self time leaves them out.
WAIT_SPANS = ("queue_wait", "serve.queue_wait")


class MemoryTracer(Tracer):
    """A ``repro.obs.Tracer`` that keeps its events in memory."""

    def __init__(self):
        super().__init__(path=None)
        self.events: list = []
        self._owner = os.getpid()

    def emit(self, event: dict) -> None:
        # forked pool workers inherit this object; only the creator records
        if os.getpid() == self._owner:
            self.events.append(event)

    def write(self, path) -> None:
        """Write the kept events as trace-event JSONL (Perfetto-loadable)."""
        with open(path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event, separators=(",", ":"), default=str) + "\n")


def spans(events, name=None, cat=None) -> list:
    """Complete (``ph == "X"``) events, optionally filtered by name and category."""
    return [
        e for e in events
        if e.get("ph") == "X"
        and (name is None or e["name"] == name)
        and (cat is None or e.get("cat") == cat)
    ]


def total_s(events, name=None, cat=None) -> float:
    return sum(e["dur"] for e in spans(events, name, cat)) / 1e6


def layer_of(event) -> str:
    """The layer a span belongs to: its category, except that the
    benchmark's own spans are named ``<layer>.<call>``."""
    cat = event.get("cat", "")
    if cat == "bench":
        return event["name"].split(".", 1)[0]
    return cat


def _union_us(intervals) -> int:
    covered, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo >= end:
            covered += hi - lo
            end = hi
        elif hi > end:
            covered += hi - end
            end = hi
    return covered


def self_time_by_layer(events) -> dict:
    """Seconds per layer of span time not covered by child spans.

    Spans nest by interval containment within one lane (pid, tid); a
    span's children are the spans it directly contains. Waiting spans
    (:data:`WAIT_SPANS`) are left out, so the totals are busy time, and
    lanes run in parallel, so the sum over layers can exceed wall time.
    """
    lanes: dict = {}
    for e in spans(events):
        if e["name"] in WAIT_SPANS:
            continue
        lanes.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    out: dict = {}
    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        children: dict = {}
        stack: list = []
        for e in lane:
            lo, hi = e["ts"], e["ts"] + e["dur"]
            while stack and not (stack[-1]["ts"] <= lo and hi <= stack[-1]["ts"] + stack[-1]["dur"]):
                stack.pop()
            if stack:
                children.setdefault(id(stack[-1]), []).append((lo, hi))
            stack.append(e)
        for e in lane:
            own = e["dur"] - _union_us(children.get(id(e), ()))
            layer = layer_of(e)
            out[layer] = out.get(layer, 0.0) + own / 1e6
    return out
