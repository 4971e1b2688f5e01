"""Resident-set-size sampling.

The out-of-core story (PR 7) is a memory claim, so peak RSS is a
first-class measurement: :func:`run_with_peak_rss` runs a callable
while a daemon thread samples ``/proc/self/status`` and returns the
observed peak alongside the wall time. Linux-only by way of procfs;
on platforms without it :func:`rss_mib` returns 0.0 and the peak
degrades to "whatever the main thread saw" (still monotone, just
coarser).
"""

from __future__ import annotations

import threading
import time

#: Default sampling interval in seconds — fine enough to catch the
#: transient allocation peaks inside a solve, coarse enough that the
#: sampler thread is invisible in the measurement itself.
DEFAULT_RSS_INTERVAL_S = 0.02


def rss_mib() -> float:
    """Current resident set size in MiB (0.0 where procfs is absent)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_with_peak_rss(fn, interval: float = DEFAULT_RSS_INTERVAL_S):
    """Run ``fn()``, sampling RSS concurrently.

    Returns ``(result, wall_s, peak_rss_mib)``. The sampler thread is
    shut down deterministically (event + join) so no sampling outlives
    the measurement and leaks into the next one.
    """
    peak = [rss_mib()]
    stop = threading.Event()

    def _sample():
        while not stop.is_set():
            peak[0] = max(peak[0], rss_mib())
            stop.wait(interval)

    sampler = threading.Thread(target=_sample, daemon=True)
    sampler.start()
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        stop.set()
        sampler.join()
    wall = time.perf_counter() - t0
    peak[0] = max(peak[0], rss_mib())
    return result, wall, peak[0]
