"""Sparse bench harness: report structure, summary capping, feasibility."""

import json

from repro.bench.reporting import summarize_rounds
from repro.bench.sparse_bench import run_sparse_bench
from repro.bench.workloads import sparse_scaling_suite


def test_sparse_scaling_suite_shapes():
    suite = sparse_scaling_suite(0, sizes=(200, 400), k=3)
    assert [name for name, _ in suite] == ["knn-20x200-k3", "knn-40x400-k3"]
    for _, inst in suite:
        assert inst.nnz == 3 * inst.n_clients
        assert inst.n_facilities == inst.n_clients // 10


def test_sparse_scaling_suite_deterministic():
    import numpy as np

    a = sparse_scaling_suite(5, sizes=(150,), k=2)[0][1]
    b = sparse_scaling_suite(5, sizes=(150,), k=2)[0][1]
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(a.f, b.f)


def test_report_structure_and_feasibility_marker():
    report = run_sparse_bench(
        overlap_sizes=(150,),
        scaling_sizes=(300,),
        k=3,
        repeats=1,
        budget_gib=1e-6,  # force the infeasible marker even at test sizes
        clustering_overlap_sizes=(120,),
        clustering_scaling_sizes=(300,),
        clustering_overlap_neighbors=60,
        clustering_neighbors=48,
        shard_sizes=(500,),
        shard_k=4,
        shard_shards=2,
        shard_coreset_size=40,
        shard_store_sizes=(500,),
        shard_store_workers=2,
    )
    (overlap_entry,) = report["overlap"].values()
    for algorithm in ("parallel_greedy", "parallel_primal_dual"):
        row = overlap_entry[algorithm]
        assert row["speedup_wall"] > 0
        assert row["mem_ratio"] > 0
        assert row["dense"]["peak_mib"] > 0
        assert row["sparse"]["ledger_work"] > 0
        # the truncation error is visible: sparse solution priced densely
        assert row["sparse_solution_dense_cost"] > 0
        # raw opened index arrays never reach the report
        assert "opened_idx" not in row["dense"] and "opened_idx" not in row["sparse"]
    (scaling_entry,) = report["sparse_scaling"].values()
    assert scaling_entry["dense_feasible"] is False
    assert scaling_entry["dense_bytes"] == scaling_entry["n_f"] * scaling_entry["n_c"] * 8
    # clustering tiers (PR 4): dense-vs-sparse ratios and the
    # infeasibility marker, with no raw center arrays in the JSON
    (cluster_overlap,) = report["clustering_overlap"].values()
    assert cluster_overlap["speedup_wall_kcenter"] > 0
    assert cluster_overlap["mem_ratio_kcenter"] > 0
    assert cluster_overlap["sparse_kmedian_dense_cost"] > 0
    for side in ("dense", "sparse"):
        assert "centers_idx" not in cluster_overlap[side]["kmedian"]
        assert cluster_overlap[side]["kcenter"]["probes"] >= 1
        assert cluster_overlap[side]["kmedian"]["swap_rounds"] >= 1
    (cluster_scaling,) = report["clustering_scaling"].values()
    assert cluster_scaling["dense_feasible"] is False
    assert cluster_scaling["dense_bytes"] == cluster_scaling["n"] ** 2 * 8
    assert "centers_idx" not in cluster_scaling["sparse"]["kmedian"]
    # shard tier (PR 5): both feasibility markers plus the composed
    # accounting fields; PR 7 adds the out-of-core store entry alongside
    shard_entry, store_entry = report["shard_scaling"].values()
    assert "mode" not in shard_entry and store_entry["mode"] == "store"
    assert shard_entry["dense_feasible"] is False  # tiny budget forces it
    assert shard_entry["single_csr_feasible"] is False
    sh = shard_entry["shard"]
    assert sh["cost_true"] > 0 and sh["movement"] >= 0
    assert sh["merged_n"] <= shard_entry["shards"] * shard_entry["coreset_size"]
    assert "5" in sh["bound"]  # the (5+ε) local-search ratio composed in
    # out-of-core tier (PR 7): same seeded pipeline, so identical costs,
    # plus the residency evidence (sampled RSS + on-disk block bytes)
    st = store_entry["shard"]
    assert st["cost_true"] == sh["cost_true"]
    assert st["cost_merged"] == sh["cost_merged"]
    assert st["peak_rss_mib"] > 0
    assert st["store_bytes"] > 0 and st["workers"] == 2
    # the whole report must serialize as-is (the committed BENCH_PR5.json)
    json.dumps(report)


def test_round_traces_are_summaries_not_samples():
    """Per-suite summary stats, never raw per-round sample lists."""
    report = run_sparse_bench(
        overlap_sizes=(150,),
        scaling_sizes=(300,),
        k=3,
        repeats=1,
        clustering_overlap_sizes=(120,),
        clustering_scaling_sizes=(300,),
        clustering_overlap_neighbors=60,
        clustering_neighbors=48,
        shard_sizes=(400,),
        shard_k=4,
        shard_shards=2,
        shard_coreset_size=40,
        shard_store_sizes=(400,),
        shard_store_workers=2,
    )
    for tier in ("overlap", "sparse_scaling"):
        for entry in report[tier].values():
            for algorithm in ("parallel_greedy", "parallel_primal_dual"):
                for measure in entry[algorithm].values():
                    if not isinstance(measure, dict):
                        continue
                    rounds = measure["rounds"]
                    assert set(rounds) <= {
                        "rounds",
                        "work_total",
                        "work_first",
                        "work_last",
                        "work_median",
                    }
                    assert rounds["rounds"] >= 1
                    assert rounds["work_total"] <= measure["ledger_work"] * (1 + 1e-9)


def test_summarize_rounds_empty_label():
    assert summarize_rounds([], "nope", 10.0) == {"rounds": 0}


def test_summarize_rounds_deltas():
    log = [("r", 1, 0.0, 0.0), ("r", 2, 4.0, 0.1), ("x", 1, 5.0, 0.2)]
    out = summarize_rounds(log, "r", 10.0)
    assert out["rounds"] == 2
    assert out["work_first"] == 4.0
    assert out["work_last"] == 6.0
    assert out["work_total"] == 10.0

