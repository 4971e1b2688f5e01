"""Shard-and-conquer: clustering beyond a single instance's memory.

The sparse subsystem (PRs 3–4) takes the §6.1/§7 solvers to 100k-node
CSR instances; the ROADMAP's production scale — millions of points —
does not fit even one CSR candidate structure comfortably, let alone a
dense matrix. The standard distributed-clustering route (Cohen-Addad et
al.'s MPC k-means, arXiv:2507.14089; Garimella et al.'s Pregel facility
location, arXiv:1503.03635) is::

    partition → per-shard weighted coreset → merge → solve → map back

This package implements that pipeline on top of the existing machinery:

* :mod:`repro.shard.partition` — random / balanced-grid / locality
  (KD-median) shard assignment over raw point coordinates;
* :mod:`repro.shard.coreset` — Gonzalez-seeded and sampling-based
  weighted coresets per shard, executed shard-parallel over the
  serial or process backend with per-shard PRAM ledger charges
  folded into the global ledger under parallel composition;
* :mod:`repro.shard.merge` — concatenate the shard coresets into one
  *weighted* :class:`~repro.metrics.sparse.SparseClusteringInstance`
  (kNN candidate structure, KD-tree-first);
* :mod:`repro.shard.solve` — the driver
  :func:`~repro.shard.solve.shard_and_solve`, which runs any existing
  clustering solver on the merged instance, maps centers back to
  original point ids, evaluates the true objective over all points,
  and reports the composed approximation accounting via
  :func:`repro.analysis.composed_coreset_bound`.

With ``shards=1`` and ``coreset="none"`` the pipeline is the identity:
an instance passed straight through produces byte-identical seeded
solutions to calling the solver directly — the regression anchor the
test suite pins.
"""

from repro.shard.coreset import (
    ShardCoreset,
    build_coreset,
    supervised_shard_coresets,
)
from repro.shard.merge import merge_coresets
from repro.shard.partition import (
    grid_partition,
    kdtree_partition,
    make_partition,
    random_partition,
    shard_sizes,
)
from repro.shard.solve import ShardSolution, shard_and_solve
from repro.shard.store import (
    STORE_VERSION,
    ShardStore,
    StoredShard,
    partition_to_store,
)

__all__ = [
    "STORE_VERSION",
    "ShardStore",
    "StoredShard",
    "partition_to_store",
    "ShardCoreset",
    "build_coreset",
    "supervised_shard_coresets",
    "merge_coresets",
    "random_partition",
    "grid_partition",
    "kdtree_partition",
    "make_partition",
    "shard_sizes",
    "ShardSolution",
    "shard_and_solve",
]
