"""Cost ledger: charging rules, snapshots, rounds, model parameters."""

import math

import pytest

from repro.pram.ledger import CostLedger, CostSnapshot


def test_initial_totals_zero():
    led = CostLedger()
    assert led.work == led.depth == led.cache == 0
    assert led.total_calls == 0


def test_charge_accumulates():
    led = CostLedger()
    led.charge("op", work=10, depth=2, cache=1)
    led.charge("op", work=5, depth=3, cache=0.5)
    assert led.work == 15 and led.depth == 5 and led.cache == 1.5
    assert led.calls_by_op["op"] == 2
    assert led.work_by_op["op"] == 15


def test_charge_basic_costs():
    led = CostLedger(block_size=64)
    led.charge_basic("map", 1024)
    assert led.work == 1024
    assert led.depth == math.ceil(math.log2(1024)) + 1
    assert led.cache == 1024 / 64


def test_charge_basic_depth_override():
    led = CostLedger()
    led.charge_basic("map", 100, depth=1)
    assert led.depth == 1


def test_charge_basic_zero_size_noop():
    led = CostLedger()
    led.charge_basic("map", 0)
    assert led.work == 0 and led.total_calls == 0


def test_charge_sort_work_superlinear():
    led = CostLedger()
    led.charge_sort("sort", 1 << 12, 1 << 12)
    assert led.work == (1 << 12) * 12
    assert led.depth == 12


def test_charge_sort_cache_uses_mb_log():
    led = CostLedger(cache_size=2**20, block_size=64)
    led.charge_sort("sort", 2**16, 2**16)
    log_mb = math.log(2**16) / math.log(2**20 / 64)
    assert led.cache == pytest.approx((2**16 / 64) * max(1.0, log_mb))


def test_tall_cache_assumption_enforced():
    with pytest.raises(ValueError, match="tall-cache"):
        CostLedger(cache_size=100, block_size=64)


def test_block_size_must_exceed_one():
    with pytest.raises(ValueError, match="block_size"):
        CostLedger(block_size=1)


def test_snapshot_subtraction():
    led = CostLedger()
    led.charge("a", work=5, depth=1, cache=0.1)
    s1 = led.snapshot()
    led.charge("b", work=7, depth=2, cache=0.2)
    delta = led.since(s1)
    assert delta.work == 7 and delta.depth == 2 and delta.calls == 1
    assert isinstance(delta, CostSnapshot)


def test_rounds_counter():
    led = CostLedger()
    assert led.bump_round("outer") == 1
    assert led.bump_round("outer") == 2
    assert led.bump_round("inner") == 1
    assert led.rounds == {"outer": 2, "inner": 1}


def test_reset_clears_but_keeps_params():
    led = CostLedger(cache_size=2**18, block_size=32)
    led.charge_basic("map", 100)
    led.bump_round("r")
    led.reset()
    assert led.work == 0 and led.total_calls == 0 and not led.rounds
    assert led.cache_size == 2**18 and led.block_size == 32


def test_bump_rounds_jumps_the_index_by_its_count():
    """A run of rounds is one four-field mark whose index jumps by the
    run's length; the counter and the totals move as if each round had
    been bumped alone."""
    led = CostLedger()
    led.charge_basic("map", 10, depth=1)
    assert led.bump_round("pd") == 1
    led.charge_basic("map", 20, depth=1)
    assert led.bump_rounds("pd", 5) == 6
    assert led.bump_rounds("other", 3) == 3
    assert led.rounds == {"pd": 6, "other": 3}
    assert [tuple(mark[:3]) for mark in led.round_log] == [
        ("pd", 1, 10.0), ("pd", 6, 30.0), ("other", 3, 30.0)
    ]
    assert all(len(mark) == 4 for mark in led.round_log)
    assert led.work == 30.0 and led.total_calls == 2


@pytest.mark.parametrize("count", [0, -2])
def test_bump_rounds_refuses_an_empty_run(count):
    led = CostLedger()
    with pytest.raises(ValueError, match="count"):
        led.bump_rounds("pd", count)
    assert not led.rounds and led.round_log == []


def test_round_log_marks_work_and_wall():
    led = CostLedger()
    led.charge_basic("map", 10, depth=1)
    led.bump_round("phase")
    led.charge_basic("map", 20, depth=1)
    led.bump_round("phase")
    labels = [entry[0] for entry in led.round_log]
    assert labels == ["phase", "phase"]
    # marks record cumulative work at round entry, monotone wall times
    assert led.round_log[0][2] == 10.0 and led.round_log[1][2] == 30.0
    assert led.round_log[0][3] <= led.round_log[1][3]
    led.reset()
    assert led.round_log == []
