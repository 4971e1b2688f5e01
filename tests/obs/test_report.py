"""Tests for the trace loader, schema validator, and report CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.report import (
    load_trace,
    main,
    render_summary,
    summarize_trace,
    validate_events,
)
from repro.obs.tracer import trace_to


def _write_jsonl(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def _synthetic_events():
    return [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro-driver"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 100,
         "args": {"name": "worker-100"}},
        {"name": "shard.partition", "cat": "shard", "ph": "X", "ts": 0,
         "dur": 1000, "pid": 1, "tid": 1, "args": {"shards": 2}},
        {"name": "shard.solve", "cat": "shard", "ph": "X", "ts": 1000,
         "dur": 3000, "pid": 1, "tid": 1},
        {"name": "map", "cat": "pram", "ph": "X", "ts": 100, "dur": 50,
         "pid": 1, "tid": 1, "args": {"work": 10.0}},
        {"name": "map", "cat": "pram", "ph": "X", "ts": 200, "dur": 150,
         "pid": 1, "tid": 1, "args": {"work": 30.0}},
        {"name": "exec", "cat": "backend", "ph": "X", "ts": 500, "dur": 400,
         "pid": 1, "tid": 100, "args": {"task": 0}},
        {"name": "queue_wait", "cat": "backend", "ph": "X", "ts": 400,
         "dur": 100, "pid": 1, "tid": 100, "args": {"task": 0}},
        {"name": "task_fail", "cat": "fault", "ph": "i", "s": "t", "ts": 600,
         "pid": 1, "tid": 1, "args": {"task": 0, "attempt": 1}},
        {"name": "shm_bytes", "cat": "metrics", "ph": "C", "ts": 700,
         "pid": 1, "tid": 0, "args": {"bytes": 4096}},
    ]


def test_load_trace_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, _synthetic_events())
    events = load_trace(path)
    assert len(events) == len(_synthetic_events())
    assert events[0]["name"] == "process_name"


def test_load_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"name":"a","ph":"M","pid":1,"tid":0}\n\n\n')
    assert len(load_trace(path)) == 1


def test_load_trace_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"name":"a","ph":"M","pid":1,"tid":0}\nnot json\n')
    with pytest.raises(ValueError, match=":2:"):
        load_trace(path)


def test_load_trace_rejects_non_object(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("[1,2,3]\n")
    with pytest.raises(ValueError, match="not an object"):
        load_trace(path)


def test_validate_events_accepts_synthetic_trace():
    assert validate_events(_synthetic_events()) == []


def test_validate_events_flags_defects():
    bad = [
        {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1},  # no name
        {"name": "x", "ph": "Z", "pid": 1, "tid": 1, "ts": 0},  # bad phase
        {"name": "x", "ph": "X", "pid": "p", "tid": 1, "ts": 0, "dur": 1},
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1},
        {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0},  # no dur
        {"name": "x", "ph": "C", "pid": 1, "tid": 1, "ts": 0},  # no args
    ]
    errors = validate_events(bad)
    assert len(errors) == 6


def test_summarize_trace_sections():
    s = summarize_trace(_synthetic_events())
    assert s["events"] == len(_synthetic_events())
    assert s["wall_s"] == pytest.approx((4000 - 0) / 1e6)
    assert [st["stage"] for st in s["stages"]] == ["shard.partition", "shard.solve"]
    assert s["stages"][1]["share"] == pytest.approx(0.75)
    assert s["primitives"]["map"]["count"] == 2
    assert s["primitives"]["map"]["ledger_work"] == 40.0
    lane = s["backend"]["lanes"]["worker-100"]
    assert lane["tasks"] == 1
    assert lane["busy_s"] == pytest.approx(400 / 1e6)
    assert lane["queue_wait_s"] == pytest.approx(100 / 1e6)
    assert s["backend"]["straggler"]["lane"] == "worker-100"
    assert s["faults"]["counts"] == {"task_fail": 1}
    assert s["counters"]["shm_bytes"] == {"bytes": 4096}


def test_summarize_empty_trace():
    s = summarize_trace([])
    assert s["wall_s"] == 0.0
    assert s["stages"] == []
    assert s["primitives"] == {}


def test_render_summary_mentions_all_sections():
    text = render_summary(summarize_trace(_synthetic_events()))
    for needle in ("shard.partition", "map", "worker-100", "task_fail", "shm_bytes"):
        assert needle in text


def test_summary_is_json_serializable():
    json.dumps(summarize_trace(_synthetic_events()), default=float)


def test_main_text_and_json(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, _synthetic_events())
    assert main([str(path)]) == 0
    assert "shard.partition" in capsys.readouterr().out
    assert main([str(path), "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["events"] == len(_synthetic_events())


def test_main_validate_flags_schema_errors(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    _write_jsonl(path, [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}])
    assert main([str(path), "--validate"]) == 1
    assert "schema:" in capsys.readouterr().out


def test_real_trace_passes_validation(tmp_path):
    """A trace produced by the actual Tracer validates cleanly."""
    path = tmp_path / "real.jsonl"
    with trace_to(path) as t:
        with t.span("stage", "shard", {"n": 1}):
            t.instant("mark", "round", args={"i": 0})
        t.counter_event("bytes", {"shm": 1})
        t.flush()
    events = load_trace(path)
    assert validate_events(events) == []
    summarize_trace(events)


def _traced_request_events():
    """A two-lane request: driver spans nested on tid 1, a worker exec
    on lane 100, an instant, plus unrelated spans from another request."""
    tid = {"trace_id": "req-1"}
    return [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro-driver"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 100,
         "args": {"name": "worker-100"}},
        {"name": "serve.request", "cat": "serve", "ph": "X", "ts": 0,
         "dur": 10_000, "pid": 1, "tid": 1, "args": {"path": "/solve", **tid}},
        {"name": "serve.solve", "cat": "serve", "ph": "X", "ts": 1000,
         "dur": 8000, "pid": 1, "tid": 1, "args": dict(tid)},
        {"name": "shard.solve", "cat": "shard", "ph": "X", "ts": 2000,
         "dur": 5000, "pid": 1, "tid": 1, "args": dict(tid)},
        {"name": "exec", "cat": "backend", "ph": "X", "ts": 3000,
         "dur": 2000, "pid": 1, "tid": 100, "args": {"task": 0, **tid}},
        {"name": "task_fail", "cat": "fault", "ph": "i", "s": "t",
         "ts": 4000, "pid": 1, "tid": 1, "args": {"task": 0, **tid}},
        # another request's span — must not leak into req-1's tree
        {"name": "serve.request", "cat": "serve", "ph": "X", "ts": 0,
         "dur": 500, "pid": 1, "tid": 2, "args": {"trace_id": "req-2"}},
        # untraced span
        {"name": "map", "cat": "pram", "ph": "X", "ts": 100, "dur": 50,
         "pid": 1, "tid": 1},
    ]


class TestStitchRequestTrace:
    def test_selects_only_the_requested_trace(self):
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace(_traced_request_events(), "req-1")
        assert stitched["found"] is True
        assert stitched["events"] == 5
        assert stitched["span_names"] == [
            "exec", "serve.request", "serve.solve", "shard.solve",
        ]
        assert "map" not in stitched["span_names"]

    def test_nesting_by_containment_per_lane(self):
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace(_traced_request_events(), "req-1")
        # driver lane: request > solve > shard; worker lane: exec root
        roots = {r["name"]: r for r in stitched["roots"]}
        assert set(roots) == {"serve.request", "exec"}
        req = roots["serve.request"]
        assert [c["name"] for c in req["children"]] == ["serve.solve"]
        assert [c["name"] for c in req["children"][0]["children"]] == [
            "shard.solve"
        ]

    def test_worker_lanes_and_stages_indexed(self):
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace(_traced_request_events(), "req-1")
        assert stitched["worker_lanes"] == ["worker-100"]
        assert stitched["stages"] == ["shard.solve"]
        assert [i["name"] for i in stitched["instants"]] == ["task_fail"]
        # trace_id is implied by the query, stripped from node args
        assert all(
            "trace_id" not in r["args"] for r in stitched["roots"]
        )

    def test_empty_trace_not_found(self):
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace([], "req-1")
        assert stitched["found"] is False
        assert stitched["events"] == 0
        assert stitched["roots"] == []
        assert stitched["worker_lanes"] == []

    def test_unknown_id_not_found(self):
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace(_traced_request_events(), "nope")
        assert stitched["found"] is False

    def test_instants_only_trace_is_found(self):
        from repro.obs.report import stitch_request_trace

        events = [
            {"name": "mark", "cat": "app", "ph": "i", "s": "t", "ts": 10,
             "pid": 1, "tid": 1, "args": {"trace_id": "solo"}},
        ]
        stitched = stitch_request_trace(events, "solo")
        assert stitched["found"] is True
        assert stitched["roots"] == []
        assert [i["name"] for i in stitched["instants"]] == ["mark"]

    def test_worker_only_request_still_stitches(self):
        # A request whose driver spans were lost (e.g. trace enabled
        # mid-run) must still surface its worker-emitted spans.
        from repro.obs.report import stitch_request_trace

        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 100,
             "args": {"name": "worker-100"}},
            {"name": "exec", "cat": "backend", "ph": "X", "ts": 0,
             "dur": 100, "pid": 1, "tid": 100,
             "args": {"trace_id": "orphan"}},
        ]
        stitched = stitch_request_trace(events, "orphan")
        assert stitched["found"] is True
        assert stitched["worker_lanes"] == ["worker-100"]
        assert stitched["roots"][0]["name"] == "exec"

    def test_render_request_trace_text(self):
        from repro.obs.report import render_request_trace, stitch_request_trace

        stitched = stitch_request_trace(_traced_request_events(), "req-1")
        text = render_request_trace(stitched)
        assert "req-1" in text
        for needle in ("serve.request", "shard.solve", "exec", "task_fail"):
            assert needle in text
        missing = render_request_trace(stitch_request_trace([], "x"))
        assert "no events found" in missing

    def test_main_trace_id_flag(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        _write_jsonl(path, _traced_request_events())
        assert main([str(path), "--trace-id", "req-1"]) == 0
        assert "serve.request" in capsys.readouterr().out
        assert main([str(path), "--trace-id", "req-1", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["found"] is True
        assert main([str(path), "--trace-id", "nope"]) == 1
        assert "no events found" in capsys.readouterr().out

    def test_trace_id_round_trip_through_process_backend(self, tmp_path):
        # The end-to-end propagation claim at the obs layer: spans
        # emitted inside forked worker processes come back stamped with
        # the ambient trace id of the submitting driver thread.
        from repro.obs.tracer import trace_context
        from repro.pram.backends import ProcessBackend

        path = tmp_path / "t.jsonl"
        backend = ProcessBackend(2)
        try:
            with trace_to(path) as t:
                with trace_context("proc-req"):
                    out = backend.submit_batch(_double, list(range(8)))
                t.flush()
        finally:
            backend.close()
        assert out == [0, 2, 4, 6, 8, 10, 12, 14]
        from repro.obs.report import stitch_request_trace

        stitched = stitch_request_trace(load_trace(path), "proc-req")
        assert stitched["found"] is True
        assert stitched["worker_lanes"]  # >= 1 forked worker lane
        assert "exec" in stitched["span_names"]


def _double(x):
    return x * 2
