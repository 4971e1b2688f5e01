"""Round-trace summaries as the sparse solvers' bench reports use them."""

from repro.bench.reporting import summarize_rounds


def test_summarize_rounds_empty_label():
    assert summarize_rounds([], "nope", 10.0) == {"rounds": 0}


def test_summarize_rounds_deltas():
    log = [("r", 1, 0.0, 0.0), ("r", 2, 4.0, 0.1), ("x", 1, 5.0, 0.2)]
    out = summarize_rounds(log, "r", 10.0)
    assert out["rounds"] == 2
    assert out["work_first"] == 4.0
    assert out["work_last"] == 6.0
    assert out["work_total"] == 10.0
