"""Tests for repro.obs.rss — VmRSS sampling and peak-RSS timing."""

from __future__ import annotations

import time

from repro.obs.rss import rss_mib, run_with_peak_rss


def test_rss_mib_positive_on_linux():
    # /proc/self/status exists on every CI target; off-Linux this is 0.0
    # by contract, so only assert non-negativity plus the Linux value.
    value = rss_mib()
    assert value >= 0.0
    try:
        open("/proc/self/status").close()
    except OSError:
        return
    assert value > 0.0


def test_run_with_peak_rss_returns_result_wall_peak():
    result, wall, peak = run_with_peak_rss(lambda: sum(range(1000)), interval=0.001)
    assert result == sum(range(1000))
    assert wall >= 0.0
    assert peak >= rss_mib() * 0.5  # same order as the current residency


def test_run_with_peak_rss_times_the_call():
    _, wall, _ = run_with_peak_rss(lambda: time.sleep(0.05), interval=0.005)
    assert wall >= 0.05


def test_run_with_peak_rss_propagates_exceptions():
    import pytest

    with pytest.raises(ValueError):
        run_with_peak_rss(lambda: (_ for _ in ()).throw(ValueError("boom")))

