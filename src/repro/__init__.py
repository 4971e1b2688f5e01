"""repro — Parallel approximation algorithms for facility-location problems.

A full reproduction of Blelloch & Tangwongsan, *Parallel Approximation
Algorithms for Facility-Location Problems* (SPAA 2010): the §3–§7
parallel algorithms expressed over the paper's §2 work–depth machine
model, the sequential baselines they are measured against, the Figure 1
LP substrate, and the workload/analysis toolkit that performs the
experimental evaluation the paper left open.

Quickstart::

    from repro import euclidean_instance, parallel_primal_dual
    inst = euclidean_instance(n_f=30, n_c=120, seed=0)
    sol = parallel_primal_dual(inst, epsilon=0.1, seed=0)
    print(sol.cost, sol.opened, sol.model_costs.work)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-claim vs. measured results.
"""

from repro.errors import (
    ConvergenceError,
    ExecutionError,
    InfeasibleSolutionError,
    InvalidInstanceError,
    InvalidParameterError,
    LPSolveError,
    ReproError,
    ShardFailedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.faults import (
    NO_RETRY,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    Supervisor,
    TaskAttempt,
    TaskFailure,
    supervised_submit_batch,
)
from repro.obs import (
    EventLog,
    MetricsRegistry,
    NullTracer,
    SloEvaluator,
    SloTarget,
    Tracer,
    current_log,
    current_trace_id,
    current_tracer,
    log_to,
    new_trace_id,
    run_with_peak_rss,
    set_log,
    set_tracer,
    trace_context,
    trace_to,
)
from repro.metrics import (
    ClusteringInstance,
    FacilityLocationInstance,
    MetricSpace,
    SparseClusteringInstance,
    SparseFacilityLocationInstance,
    clustered_clustering,
    clustered_instance,
    euclidean_clustering,
    euclidean_instance,
    graph_instance,
    knn_clustering_instance,
    knn_instance,
    knn_sparsify,
    load_instance,
    random_metric_instance,
    save_instance,
    star_instance,
    threshold_sparsify,
    two_scale_instance,
)
from repro.pram import (
    CostLedger,
    CostSnapshot,
    PramMachine,
    RoundMark,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    brent_time,
    make_backend,
    parallelism,
    speedup_curve,
)
from repro.core import (
    ClusteringSolution,
    FacilityLocationSolution,
    max_dominator_set,
    max_dominator_set_sparse,
    max_u_dominator_set,
    max_u_dominator_set_sparse,
    parallel_fl_local_search,
    parallel_greedy,
    parallel_kcenter,
    parallel_kmeans,
    parallel_kmedian,
    parallel_kmedian_lagrangian,
    parallel_local_search,
    parallel_lp_rounding,
    parallel_primal_dual,
)
from repro.lp import (
    lp_lower_bound,
    solve_dual,
    solve_kmedian_lp,
    solve_primal,
)
from repro.analysis import Certificate, certify_facility_location
from repro.shard import (
    ShardCoreset,
    ShardSolution,
    build_coreset,
    grid_partition,
    kdtree_partition,
    make_partition,
    merge_coresets,
    random_partition,
    shard_and_solve,
    supervised_shard_coresets,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InvalidParameterError",
    "ConvergenceError",
    "LPSolveError",
    "InfeasibleSolutionError",
    "ExecutionError",
    "WorkerCrashError",
    "TaskTimeoutError",
    "ShardFailedError",
    # faults
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "NO_RETRY",
    "Supervisor",
    "TaskAttempt",
    "TaskFailure",
    "supervised_submit_batch",
    # obs
    "EventLog",
    "MetricsRegistry",
    "NullTracer",
    "SloEvaluator",
    "SloTarget",
    "Tracer",
    "current_log",
    "current_trace_id",
    "current_tracer",
    "log_to",
    "new_trace_id",
    "run_with_peak_rss",
    "set_log",
    "set_tracer",
    "trace_context",
    "trace_to",
    # metrics
    "MetricSpace",
    "FacilityLocationInstance",
    "ClusteringInstance",
    "SparseFacilityLocationInstance",
    "SparseClusteringInstance",
    "euclidean_instance",
    "clustered_instance",
    "graph_instance",
    "knn_instance",
    "knn_clustering_instance",
    "knn_sparsify",
    "threshold_sparsify",
    "random_metric_instance",
    "star_instance",
    "two_scale_instance",
    "euclidean_clustering",
    "clustered_clustering",
    "save_instance",
    "load_instance",
    # pram
    "PramMachine",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "available_backends",
    "CostLedger",
    "CostSnapshot",
    "RoundMark",
    "brent_time",
    "parallelism",
    "speedup_curve",
    # core
    "FacilityLocationSolution",
    "ClusteringSolution",
    "max_dominator_set",
    "max_u_dominator_set",
    "max_dominator_set_sparse",
    "max_u_dominator_set_sparse",
    "parallel_greedy",
    "parallel_primal_dual",
    "parallel_kcenter",
    "parallel_lp_rounding",
    "parallel_local_search",
    "parallel_kmedian",
    "parallel_kmeans",
    "parallel_fl_local_search",
    "parallel_kmedian_lagrangian",
    # lp
    "solve_primal",
    "solve_dual",
    "solve_kmedian_lp",
    "lp_lower_bound",
    # analysis
    "Certificate",
    "certify_facility_location",
    # shard
    "ShardCoreset",
    "ShardSolution",
    "build_coreset",
    "grid_partition",
    "kdtree_partition",
    "make_partition",
    "merge_coresets",
    "random_partition",
    "shard_and_solve",
    "supervised_shard_coresets",
]
