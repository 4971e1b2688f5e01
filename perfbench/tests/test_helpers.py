"""Tests for the benchmark's own helpers: tails, /proc parsers, objectives, due-time latency."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import objective, paper_solvers, procfs, serve_fresh, stats, tracing

# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct, reported",
    [(99, 90, False), (100, 90, True), (999, 99, False), (1000, 99, True), (10, 50, False), (20, 50, True)],
)
def test_tail_needs_ten_samples_beyond_it(n, pct, reported):
    values = list(range(n))
    value = stats.tail(values, pct)
    assert (value is not None) == reported
    if reported:
        assert sum(v > value for v in values) >= stats.MIN_BEYOND


def test_tails_reports_only_supported_percentiles():
    assert stats.tails(list(range(99))) == {}
    assert set(stats.tails(list(range(150)))) == {"p90"}
    assert set(stats.tails(list(range(1000)))) == {"p90", "p99"}


def test_nearest_rank_and_geomean():
    assert stats.nearest_rank([5, 1, 3, 2, 4], 50) == 3
    assert stats.nearest_rank(list(range(1, 101)), 90) == 90
    assert stats.geomean([1.0, 4.0]) == pytest.approx(2.0)


# -- /proc parsers ------------------------------------------------------------


def _stat_line(pid, comm, ppid, utime, stime, cutime=0, cstime=0, pgrp=None):
    # fields 3.. of proc(5): state ppid pgrp session tty tpgid flags minflt
    # cminflt majflt cmajflt utime stime cutime cstime ...
    rest = ["S", ppid, pgrp or pid, 0, 0, 0, 0, 0, 0, 0, 0, utime, stime, cutime, cstime, 20, 0, 1]
    return f"{pid} ({comm}) " + " ".join(str(x) for x in rest) + "\n"


def test_parse_stat_survives_odd_command_names():
    st = procfs.parse_stat(_stat_line(42, "a b) (c", 7, 11, 13, 17, 19))
    assert (st["pid"], st["ppid"], st["utime"], st["stime"], st["cutime"], st["cstime"]) == (42, 7, 11, 13, 17, 19)


def test_tree_cpu_counts_live_children_and_reaped_ones(tmp_path):
    # 100 has a live child 101 (with grandchild 102) and has reaped a child
    # whose 7+3 ticks now sit in its cutime/cstime; 200 is unrelated.
    procs = {
        100: _stat_line(100, "driver", 1, 5, 5, 7, 3),
        101: _stat_line(101, "worker", 100, 10, 2),
        102: _stat_line(102, "helper", 101, 1, 1),
        200: _stat_line(200, "other", 1, 99, 99),
    }
    for pid, line in procs.items():
        (tmp_path / str(pid)).mkdir()
        (tmp_path / str(pid) / "stat").write_text(line)
        (tmp_path / str(pid) / "status").write_text(f"Name:\tx\nVmHWM:\t  {pid} kB\n")
    (tmp_path / "self").mkdir()
    assert procfs.tree_cpu_ticks(100, proc=str(tmp_path)) == 5 + 5 + 7 + 3 + 10 + 2 + 1 + 1
    assert procfs.tree_peak_rss_mib(100, proc=str(tmp_path)) == (100 + 101 + 102) / 1024
    procfs.reset_peak_rss(100, proc=str(tmp_path))
    assert [(tmp_path / str(p) / "clear_refs").exists() for p in (100, 101, 102, 200)] == [True] * 3 + [False]
    assert (tmp_path / "101" / "clear_refs").read_text() == "5"


def test_reset_peak_rss_forgets_an_earlier_peak():
    procfs.reset_peak_rss(os.getpid())
    base = procfs.tree_peak_rss_mib(os.getpid())
    block = np.ones(64 << 17)  # 64 MiB, touched
    del block
    assert procfs.tree_peak_rss_mib(os.getpid()) >= base + 60
    procfs.reset_peak_rss(os.getpid())
    assert procfs.tree_peak_rss_mib(os.getpid()) < base + 60


_BURN = (
    "import sys, time\n"
    "t = time.process_time()\n"
    "while time.process_time() - t < 0.3: pass\n"
    "print('burnt', flush=True)\n"
    "sys.stdin.readline()\n"
)


def test_tree_cpu_sees_a_live_child_and_keeps_it_after_exit():
    before = procfs.tree_cpu_ticks(os.getpid())
    child = subprocess.Popen([sys.executable, "-c", _BURN], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "burnt"
        live = procfs.tree_cpu_ticks(os.getpid())
        child.stdin.write("\n")
        child.stdin.flush()
        child.wait(timeout=30)
    finally:
        child.kill()
        child.wait()
        child.stdin.close()
        child.stdout.close()
    reaped = procfs.tree_cpu_ticks(os.getpid())
    burnt = int(0.25 * procfs.CLK_TCK)
    assert live - before >= burnt  # counted while the child was alive
    assert reaped - before >= burnt  # still counted once it exited and was reaped


def test_steal_parser():
    text = "cpu  10 0 20 300 4 0 1 77 0 0\ncpu0 5 0 10 150 2 0 0 40 0 0\nintr 1\n"
    assert procfs.parse_steal(text) == 77
    with open("/proc/stat") as fh:
        assert procfs.parse_steal(fh.read()) >= 0
    with pytest.raises(ValueError):
        procfs.parse_steal("intr 1\n")


def test_hwm_parser():
    assert procfs.parse_hwm_kib("Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 10 kB\n") == 2048
    assert procfs.parse_hwm_kib("Name:\tkthreadd\n") == 0


# -- objective recomputation against brute force -----------------------------


def _random_csr(rng, n_rows, n_cols, density):
    indptr, indices, data = [0], [], []
    for _ in range(n_rows):
        cols = np.flatnonzero(rng.random(n_cols) < density)
        indices.extend(cols.tolist())
        data.extend(rng.random(cols.size).tolist())
        indptr.append(len(indices))
    return np.array(indptr), np.array(indices, dtype=int), np.array(data)


def _csr_entry(indptr, indices, data, row, col):
    for pos in range(indptr[row], indptr[row + 1]):
        if indices[pos] == col:
            return data[pos]
    return math.inf


@pytest.mark.parametrize("seed", range(5))
def test_objectives_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_f, n_c = 4, 7
    D, f = rng.random((n_f, n_c)), rng.random(n_f)
    opened = [0, 2]
    brute = sum(f[i] for i in opened) + sum(min(D[i][j] for i in opened) for j in range(n_c))
    assert objective.fl_dense(D, f, opened) == pytest.approx(brute, rel=1e-12)

    indptr, indices, data = _random_csr(rng, n_f, n_c, 0.5)
    fallback = rng.random(n_c) + 1.0
    brute = sum(f[i] for i in opened) + sum(
        min([_csr_entry(indptr, indices, data, i, j) for i in opened] + [fallback[j]])
        for j in range(n_c)
    )
    assert objective.fl_csr(indptr, indices, data, f, fallback, opened) == pytest.approx(brute, rel=1e-12)

    pts = rng.random((9, 2))
    Dc = np.array([[math.dist(p, q) for q in pts] for p in pts])
    for centers in itertools.combinations(range(9), 2):
        service = [min(Dc[j][c] for c in centers) for j in range(9)]
        assert objective.clustering_dense(Dc, centers, "kmedian") == pytest.approx(sum(service))
        assert objective.clustering_dense(Dc, centers, "kcenter") == pytest.approx(max(service))
        assert objective.kmedian_points(pts, centers, chunk=4) == pytest.approx(sum(service))

    indptr, indices, data = _random_csr(rng, 9, 9, 0.4)
    fallback = rng.random(9) + 1.0
    centers = [1, 5, 7]
    service = [min([_csr_entry(indptr, indices, data, j, c) for c in centers] + [fallback[j]])
               for j in range(9)]
    assert objective.clustering_csr(indptr, indices, data, fallback, centers, "kmedian") == pytest.approx(sum(service))
    assert objective.clustering_csr(indptr, indices, data, fallback, centers, "kcenter") == pytest.approx(max(service))


def test_objectives_reject_out_of_range_solutions():
    with pytest.raises(ValueError):
        objective.clustering_dense(np.zeros((3, 3)), [3], "kmedian")
    with pytest.raises(ValueError):
        objective.fl_dense(np.zeros((2, 3)), np.zeros(2), [])


# -- latency from the due time ------------------------------------------------


class _SlowServer:
    """Stands in for the server: every solve takes ``service_s``."""

    service_s = 0.3

    def client(self):
        server = self

        class Client:
            calls: list = []

            def solve_and_wait(self, **kwargs):
                time.sleep(server.service_s)
                return {"status": "done", "seed": kwargs["seed"]}

        return Client()


def test_a_late_request_is_timed_from_when_it_was_due():
    # 4 requests due every 1/8 s, 2 threads, 0.3 s each: requests 2 and 3
    # must wait for a free thread, so they start after they were due
    records = serve_fresh.open_loop(_SlowServer(), "inst", 1, 0.5)
    assert [r["seed"] for r in records] == [1, 2, 3, 4]
    late = records[2]
    assert late["start"] - late["due"] > 0.02
    assert serve_fresh.latency(late) == late["end"] - late["due"]
    assert serve_fresh.latency(late) >= _SlowServer.service_s + (late["start"] - late["due"])
    lateness = serve_fresh.lateness(records)
    assert lateness["max"] >= late["start"] - late["due"]


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_per_lane():
    def span(name, cat, ts, dur, tid=1):
        return {"ph": "X", "name": name, "cat": cat, "ts": ts, "dur": dur, "pid": 1, "tid": tid}

    events = [
        span("bench.op", "bench", 0, 100),
        span("shard.coreset", "shard", 10, 30),
        span("map", "pram", 20, 5),
        span("shard.merge", "shard", 30, 30),  # overlaps its sibling: counted once
        span("exec", "backend", 0, 80, tid=2),  # another lane: not a child
        span("queue_wait", "backend", 0, 50, tid=2),  # waiting, not busy
    ]
    selfs = tracing.self_time_by_layer(events)
    assert selfs["bench"] == pytest.approx(50e-6)
    assert selfs["shard"] == pytest.approx((30 - 5 + 30) * 1e-6)
    assert selfs["pram"] == pytest.approx(5e-6)
    assert selfs["backend"] == pytest.approx(80e-6)


def test_memory_tracer_keeps_spans():
    tracer = tracing.MemoryTracer()
    with tracer.span("bench.op", "bench"):
        pass
    assert [e["name"] for e in tracing.spans(tracer.events)] == ["bench.op"]


# -- paper-solvers: medians per input and per solve ---------------------------


def test_typical_pass_takes_medians_per_input_and_per_solve():
    def op(i, a, b):
        solved = paper_solvers.Solved
        result = {"a": solved(a, a / 2, None), "b": solved(b, b / 2, None)}
        return (a + b, (a + b) / 2, (i, result))

    # input 0 passes take about 1 s, input 1 passes about 3 s, and input 1
    # ran one pass more, which would put one median over all passes at 3 s;
    # the slow solve "a" in one pass of each input is left out as well
    ops = [op(0, 0.5, 0.5), op(1, 1.0, 2.0), op(0, 0.9, 0.6), op(1, 1.2, 2.0), op(1, 1.0, 2.2),
           op(0, 0.5, 0.6), op(1, 1.1, 2.1)]
    assert paper_solvers.typical_pass_s(ops, "wall_s") == pytest.approx(((0.5 + 0.6) + (1.05 + 2.05)) / 2)
    assert paper_solvers.typical_pass_s(ops, "cpu_s") == pytest.approx(((0.5 + 0.6) + (1.05 + 2.05)) / 4)
    assert paper_solvers.typical_pass_s(ops, "wall_s", ["b"]) == pytest.approx((0.6 + 2.05) / 2)
