"""Benchmark support: named workloads, experiment harness, reporting.

The ``benchmarks/`` directory contains one pytest-benchmark file per
experiment, named by its ID in the file name (F1 Figure 1's LP pair,
T1–T6 the per-algorithm theorems, E1–E5 the cross-cutting scaling and
ablation studies, X1 the sketched extensions); the shared machinery
lives here so each bench file reads as: pick workload → run experiment
→ print the paper-claim vs. measured rows.
"""

from repro.bench.workloads import (
    clustering_ratio_suite,
    clustering_scaling_suite,
    fl_lp_suite,
    fl_ratio_suite,
    fl_scaling_suite,
)
from repro.bench.harness import ExperimentTable
from repro.bench.reporting import render_markdown_table, summarize_rounds

__all__ = [
    "fl_ratio_suite",
    "fl_lp_suite",
    "fl_scaling_suite",
    "clustering_ratio_suite",
    "clustering_scaling_suite",
    "ExperimentTable",
    "render_markdown_table",
    "summarize_rounds",
]
