"""Trace checks that a supervised batch really ran on a worker pool.

An identity coreset fan-out runs in the caller, so a test that means to
exercise a pool must say so: every ``exec`` span (one per task run that
returned) must sit on a ``worker-<pid>`` lane, never on the caller's —
by default the lane of the traced ``shard.coreset`` stage.
"""

from __future__ import annotations

from repro.obs.report import load_trace


def assert_coreset_batch_on_pool(path, *, caller=None) -> list:
    """Assert the traced batch ran on pool lanes; return its exec lanes.

    ``caller`` is the native thread id the batch was submitted from;
    ``None`` takes the lanes of the trace's ``shard.coreset`` spans.
    """
    events = load_trace(path)
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e.get("ph") == "M" and e["name"] == "thread_name"
    }
    callers = (
        {e["tid"] for e in events if e.get("cat") == "shard" and e["name"] == "shard.coreset"}
        if caller is None
        else {caller}
    )
    execs = [
        e["tid"] for e in events if e.get("cat") == "backend" and e["name"] == "exec"
    ]
    assert callers and execs, "no traced coreset stage or exec span"
    assert not callers & set(execs), "a coreset task ran in the caller"
    labels = [names[lane] for lane in execs]
    assert all(label.startswith("worker-") for label in labels), labels
    return execs
