"""Load-generator smoke: the report is complete and honest."""

from __future__ import annotations

import json

import pytest

from repro.serve import ServeClient, ServerConfig, serve_in_thread
from repro.serve.loadgen import main as loadgen_main
from repro.serve.loadgen import run_loadgen


@pytest.fixture(scope="module")
def served():
    config = ServerConfig(backend="serial", workers=2)
    with serve_in_thread(config) as handle:
        yield handle


def test_fresh_load_completes_everything(served):
    report = run_loadgen(
        served.host, served.port, clients=4, requests=16, n=160, k=3, seed=100
    )
    assert report["clients"] == 4
    assert report["requests_sent"] == 16
    assert report["completed"] == 16
    assert report["failed"] == 0
    assert report["failure_rate"] == 0.0
    assert report["throughput_rps"] > 0
    lat = report["latency_s"]
    assert 0 < lat["min"] <= lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]


def test_fresh_load_is_one_request_per_solve(served):
    """Each solve long-polls its submit, so a solve that finishes within
    the hold is one HTTP request; the report keeps its keys."""
    client = ServeClient(served.host, served.port)
    before = client.metrics()["counters"]["serve.requests_total"]
    report = run_loadgen(
        served.host, served.port, clients=2, requests=8, n=160, k=3, seed=700
    )
    after = client.metrics()["counters"]["serve.requests_total"]
    assert set(report) == {
        "clients", "requests_sent", "completed", "failed", "failure_rate",
        "wall_s", "throughput_rps", "time_per_request_s", "latency_s",
        "instance_id", "identical_requests", "n", "dim", "k", "qps_target",
    }
    assert report["completed"] == 8
    # besides the solves: the instance upload, the /health scrape and the
    # first /metrics GET (counted after its own snapshot)
    assert after - before - 3 == report["completed"]


def test_identical_load_hits_the_result_cache(served):
    client = ServeClient(served.host, served.port)
    before = client.metrics()["counters"].get("serve.result_cache_hits", 0)
    report = run_loadgen(
        served.host,
        served.port,
        clients=2,
        requests=10,
        n=160,
        k=3,
        seed=200,
        identical=True,
    )
    assert report["completed"] == 10
    after = client.metrics()["counters"].get("serve.result_cache_hits", 0)
    # all but the first solve (and any coalesced concurrent duplicates)
    # must be served from the cache
    coalesced = client.metrics()["counters"].get("serve.coalesced", 0)
    assert (after - before) + coalesced >= 8


def test_qps_pacing_slows_the_run(served):
    report = run_loadgen(
        served.host, served.port, clients=2, requests=6, n=160, k=3, seed=300, qps=20
    )
    assert report["completed"] == 6
    # 6 requests at 20 rps occupy slots up to t=0.25s
    assert report["wall_s"] >= 0.2
    assert report["qps_target"] == 20


def test_duration_mode_stops_on_deadline(served):
    report = run_loadgen(
        served.host,
        served.port,
        clients=2,
        duration=0.5,
        requests=10**9,  # ignored in duration mode
        n=160,
        k=3,
        seed=400,
    )
    assert report["failed"] == 0
    assert report["completed"] >= 1


def test_cli_spawn_smoke(tmp_path, capsys):
    out = tmp_path / "report.json"
    loadgen_main(
        [
            "--spawn",
            "--spawn-backend",
            "serial",
            "--clients",
            "2",
            "--requests",
            "6",
            "--n",
            "120",
            "--k",
            "2",
            "--out",
            str(out),
        ]
    )
    report = json.loads(out.read_text())
    assert report["completed"] == 6
    assert report["failed"] == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_report_scrapes_server_slo(tmp_path):
    from repro.obs import SloTarget

    config = ServerConfig(
        backend="serial", workers=2,
        slo=SloTarget(p99_latency_s=60.0, min_samples=1),
    )
    with serve_in_thread(config) as handle:
        report = run_loadgen(
            handle.host, handle.port, clients=2, requests=4, n=120, k=2, seed=500
        )
    assert report["slo"]["status"] == "ok"
    assert report["slo"]["measured"]["count"] >= 4


def test_report_has_no_slo_key_when_server_has_no_target(served):
    report = run_loadgen(
        served.host, served.port, clients=2, requests=4, n=120, k=2, seed=600
    )
    assert "slo" not in report


def test_cli_exits_zero_within_thresholds(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = loadgen_main(
        [
            "--spawn", "--spawn-backend", "serial",
            "--clients", "2", "--requests", "4", "--n", "120", "--k", "2",
            "--slo-p99", "60", "--max-failure-rate", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["breaches"] == []
    capsys.readouterr()


def test_cli_exits_nonzero_on_slo_breach(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = loadgen_main(
        [
            "--spawn", "--spawn-backend", "serial",
            "--clients", "2", "--requests", "4", "--n", "120", "--k", "2",
            "--slo-p99", "0.000001",  # impossible target
            "--out", str(out),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert len(report["breaches"]) == 1
    assert "p99" in report["breaches"][0]
    assert "SLO BREACH" in capsys.readouterr().out


def test_cli_exits_nonzero_on_failure_breach(tmp_path, capsys):
    def failing_solve(instance, params):
        raise RuntimeError("rigged")

    config = ServerConfig(backend="serial", workers=1, solve_fn=failing_solve)
    with serve_in_thread(config) as handle:
        code = loadgen_main(
            [
                "--host", handle.host, "--port", str(handle.port),
                "--clients", "2", "--requests", "4", "--n", "120", "--k", "2",
                "--max-failure-rate", "0.0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
    assert code == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["failed"] == 4
    assert any("failure rate" in b for b in report["breaches"])
    capsys.readouterr()
