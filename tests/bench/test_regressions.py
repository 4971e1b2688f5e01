"""Regression harness: report structure, parity flags, round traces, CLI."""

import json

from repro.bench.regressions import main, run_regression


def test_report_structure_and_identity():
    report = run_regression(nf=10, nc=28, seed=3, machine_seed=2, epsilon=0.2)
    assert set(report["algorithms"]) == {"parallel_greedy", "parallel_primal_dual"}
    assert report["meta"]["backends"] == ["serial"]
    for entry in report["algorithms"].values():
        assert entry["solutions_identical"] is True
        assert set(entry["backends"]) == {"serial"}
        row = entry["backends"]["serial"]
        assert row["wall_s"] > 0
        assert row["charges_invariant"] is True
        assert row["ledger_work"] > 0
        assert len(row["per_round"]) >= 1
        total = sum(r["ledger_work"] for r in row["per_round"])
        # per-round deltas cover at most the run's total work
        assert total <= row["ledger_work"] * (1 + 1e-9)
    # the report must be JSON-serializable as-is
    json.dumps(report)


def test_backend_sweep_parity_and_invariant_charges():
    """Thread/process rows must match serial bit-for-bit in solution and
    ledger — the committed BENCH_PR2.json asserts exactly this at scale."""
    report = run_regression(
        nf=12,
        nc=36,
        seed=5,
        machine_seed=3,
        epsilon=0.2,
        backends=("serial", "thread", "process"),
        num_workers=2,
    )
    for entry in report["algorithms"].values():
        assert entry["solutions_identical"] is True
        assert set(entry["backends"]) == {"serial", "thread", "process"}
        work = {name: row["ledger_work"] for name, row in entry["backends"].items()}
        assert work["serial"] == work["thread"] == work["process"]
        for row in entry["backends"].values():
            assert row["charges_invariant"] is True
    json.dumps(report)


def test_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["--nf", "10", "--nc", "24", "--backends", "serial,thread", "--out", str(out)])
    printed = capsys.readouterr().out
    assert "parallel_greedy: identical=True" in printed
    assert "parallel_primal_dual: identical=True" in printed
    assert "charges_invariant=True" in printed
    report = json.loads(out.read_text())
    assert report["meta"]["backends"] == ["serial", "thread"]
    for entry in report["algorithms"].values():
        assert entry["solutions_identical"] is True
        assert set(entry["backends"]) == {"serial", "thread"}
