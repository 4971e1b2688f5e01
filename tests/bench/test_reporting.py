"""Tests for round-trace summarization."""

from __future__ import annotations

from repro.bench.reporting import expand_rounds, summarize_rounds
from repro.pram.ledger import CostLedger, RoundMark


def _mark(label, index, work, wall=0.0):
    return RoundMark(label, index, work, wall)


class TestRoundMark:
    def test_coerce_passes_marks_through(self):
        m = _mark("a", 1, 2.0, 3.0)
        assert RoundMark.coerce(m) is m

    def test_coerce_accepts_legacy_tuples(self):
        m = RoundMark.coerce(("a", 1, 2.0, 3.0))
        assert isinstance(m, RoundMark)
        assert m.label == "a"
        assert m.work == 2.0

    def test_positional_unpacking_still_works(self):
        lab, idx, work, wall = _mark("a", 1, 2.0, 3.0)
        assert (lab, idx, work, wall) == ("a", 1, 2.0, 3.0)

    def test_ledger_round_log_holds_marks(self):
        ledger = CostLedger()
        ledger.charge_basic("x", 10)
        ledger.bump_round("outer")
        ledger.bump_round("outer")
        assert all(isinstance(m, RoundMark) for m in ledger.round_log)
        assert [m.label for m in ledger.round_log] == ["outer", "outer"]
        assert ledger.round_log[0].index == 1
        assert ledger.round_log[1].index == 2


class TestSummarizeRounds:
    def test_empty_log(self):
        assert summarize_rounds([], "outer", 100.0) == {"rounds": 0}

    def test_no_matching_label(self):
        log = [_mark("other", 1, 10.0)]
        assert summarize_rounds(log, "outer", 100.0) == {"rounds": 0}

    def test_single_mark(self):
        log = [_mark("outer", 1, 10.0)]
        s = summarize_rounds(log, "outer", 25.0)
        assert s["rounds"] == 1
        assert s["work_total"] == 15.0
        assert s["work_first"] == 15.0
        assert s["work_last"] == 15.0
        assert s["work_median"] == 15.0

    def test_mixed_labels(self):
        log = [
            _mark("outer", 1, 0.0),
            _mark("inner", 1, 5.0),
            _mark("outer", 2, 10.0),
            _mark("inner", 2, 12.0),
            _mark("outer", 3, 30.0),
        ]
        s = summarize_rounds(log, "outer", 60.0)
        assert s["rounds"] == 3
        # deltas between consecutive outer marks: 10, 20, then 30 to final
        assert s["work_first"] == 10.0
        assert s["work_last"] == 30.0
        assert s["work_total"] == 60.0
        assert s["work_median"] == 20.0

    def test_accepts_legacy_tuples(self):
        log = [("outer", 1, 10.0, 0.0), ("outer", 2, 20.0, 1.0), ("x", 1, 25.0, 2.0)]
        s = summarize_rounds(log, "outer", 40.0)
        assert s["rounds"] == 2
        assert s["work_total"] == 30.0
        assert s["work_first"] == 10.0
        assert s["work_last"] == 20.0


class TestRunsOfRounds:
    def test_a_run_expands_into_zero_work_rounds(self):
        """A mark whose index jumps by 3 stands for 3 rounds: the 2
        skipped ones start at its work and cost nothing."""
        log = [_mark("pd", 1, 0.0), _mark("pd", 4, 10.0), _mark("x", 1, 12.0), _mark("pd", 5, 20.0)]
        assert expand_rounds(log, "pd") == [0.0, 10.0, 10.0, 10.0, 20.0]
        s = summarize_rounds(log, "pd", 26.0)
        assert s == {
            "rounds": 5, "work_total": 26.0, "work_first": 10.0,
            "work_last": 6.0, "work_median": 6.0,
        }

    def test_the_first_mark_counts_from_zero(self):
        assert expand_rounds([_mark("pd", 3, 5.0)], "pd") == [5.0, 5.0, 5.0]

    def test_runs_summarize_like_single_bumps(self):
        one, runs = CostLedger(), CostLedger()
        for ledger in (one, runs):
            ledger.charge_basic("x", 7)
        for _ in range(4):
            one.bump_round("pd")
        runs.bump_rounds("pd", 4)
        for ledger in (one, runs):
            ledger.charge_basic("x", 9)
            ledger.bump_round("pd")
        assert len(runs.round_log) == 2
        assert expand_rounds(runs.round_log, "pd") == expand_rounds(one.round_log, "pd")
        assert summarize_rounds(runs.round_log, "pd", 20.0) == summarize_rounds(
            one.round_log, "pd", 20.0
        )

    def test_readme_example(self):
        """The README's round-log example: 267 levels, most of them
        skipped, so the median level costs nothing."""
        from repro import PramMachine, euclidean_instance, parallel_primal_dual

        machine = PramMachine(seed=0)
        parallel_primal_dual(euclidean_instance(1500, 1500, seed=0), epsilon=0.1, machine=machine)
        s = summarize_rounds(machine.ledger.round_log, "pd_iterations", machine.ledger.work)
        assert s["rounds"] == 267 and s["work_median"] == 0.0
        assert 0 < s["work_total"] <= machine.ledger.work
        marks = [m for m in machine.ledger.round_log if m.label == "pd_iterations"]
        assert len(marks) < 267 / 10
