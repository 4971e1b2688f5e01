"""The paper's contribution: parallel approximation algorithms (§3–§7).

Every algorithm here is expressed in the §2 vocabulary of basic matrix
operations executed on a :class:`repro.pram.PramMachine`, so its
work/depth/cache in the paper's model is measured, not asserted:

* :func:`max_dominator_set` / :func:`max_u_dominator_set` — §3
  dominator-set variants of maximal independent set (Lemma 3.1), in
  the remark's ``O(|E| log |V|)`` work.
* :func:`parallel_greedy` — §4 greedy facility location, the
  ``(3.722+ε)``-approximation (proven ``6+ε`` without the
  factor-revealing LP), Theorem 4.9.
* :func:`parallel_primal_dual` — §5 primal–dual facility location, the
  ``(3+ε)``-approximation, Theorem 5.4.
* :func:`parallel_kcenter` — §6.1 Hochbaum–Shmoys-style k-center
  2-approximation, Theorem 6.1.
* :func:`parallel_lp_rounding` — §6.2 filtering + randomized rounding,
  the ``(4+ε)``-approximation given an optimal LP solution, Theorem 6.5.
* :func:`parallel_local_search` — §7 local search for k-median
  (``5+ε``) and k-means (``81+ε``), Theorem 7.1.

Extensions the paper sketches but leaves open (implemented here, with
their caveats documented in-module):

* :func:`parallel_fl_local_search` — the §7-remark local search for
  facility location (round count open in the paper).
* :func:`max_dominator_set_sparse` / :func:`max_u_dominator_set_sparse`
  — the Lemma 3.1 remark: ``O(|E| log |V|)``-work dominator sets on
  sparse graphs (the §3 names are these entries).
* :func:`parallel_kmedian_lagrangian` — the Jain–Vazirani k-median
  pipeline the §5 LMP property exists to enable.

Greedy, primal–dual, k-center, §7 local search and the Lagrangian
k-median accept CSR candidate structures
(:class:`~repro.metrics.sparse.SparseFacilityLocationInstance`,
:class:`~repro.metrics.sparse.SparseClusteringInstance`), where the
paper's input-size parameter ``m`` is the candidate-edge count. They
and the dominator sets have one body each, the CSR one (§7 local
search's is :mod:`repro.core.local_search_sparse`): a dense instance
runs as its full CSR (``from_instance``) and its solution is reported
on the dense instance.
"""

from repro.core.result import ClusteringSolution, FacilityLocationSolution
from repro.core.dominator import max_dominator_set, max_u_dominator_set
from repro.core.dominator_sparse import max_dominator_set_sparse, max_u_dominator_set_sparse
from repro.core.stars import star_members
from repro.core.greedy import parallel_greedy
from repro.core.primal_dual import parallel_primal_dual
from repro.core.kcenter import parallel_kcenter
from repro.core.lp_rounding import parallel_lp_rounding
from repro.core.local_search import parallel_kmeans, parallel_kmedian, parallel_local_search
from repro.core.fl_local_search import parallel_fl_local_search
from repro.core.kmedian_lagrangian import parallel_kmedian_lagrangian

__all__ = [
    "FacilityLocationSolution",
    "ClusteringSolution",
    "max_dominator_set",
    "max_u_dominator_set",
    "max_dominator_set_sparse",
    "max_u_dominator_set_sparse",
    "star_members",
    "parallel_greedy",
    "parallel_primal_dual",
    "parallel_kcenter",
    "parallel_lp_rounding",
    "parallel_local_search",
    "parallel_kmedian",
    "parallel_kmeans",
    "parallel_fl_local_search",
    "parallel_kmedian_lagrangian",
]
