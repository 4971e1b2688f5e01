"""E3 — parallelism: Brent speedup curves from the work–depth ledger.

The RNC claim at the model level: W/D parallelism and the Brent
speedup curve ``T₁/T_p`` per algorithm from ledger totals. The §2
model charges each basic operation from the sizes it touches, not from
how it ran, so the curve is a property of the algorithm, not of the
host's cores; the primitives themselves run as plain NumPy.
"""

from repro.bench.harness import ExperimentTable
from repro.core.greedy import parallel_greedy
from repro.core.kcenter import parallel_kcenter
from repro.core.primal_dual import parallel_primal_dual
from repro.metrics.generators import euclidean_clustering, euclidean_instance
from repro.pram.brent import parallelism, speedup_curve


def test_e3_brent_curves(benchmark):
    table = ExperimentTable("E3a", "model parallelism W/D and Brent speedups")
    inst = euclidean_instance(20, 160, seed=0)
    cl = euclidean_clustering(90, 5, seed=0)
    runs = {
        "greedy": lambda: parallel_greedy(inst, epsilon=0.2, seed=0).model_costs,
        "primal-dual": lambda: parallel_primal_dual(inst, epsilon=0.2, seed=0).model_costs,
        "k-center": lambda: parallel_kcenter(cl, seed=0).model_costs,
    }
    for name, fn in runs.items():
        costs = fn()
        curve = dict(speedup_curve(costs, [1, 16, 256, 4096]))
        table.add(
            algorithm=name,
            work=costs.work,
            depth=costs.depth,
            parallelism=parallelism(costs),
            speedup_p16=curve[16],
            speedup_p256=curve[256],
            speedup_p4096=curve[4096],
        )
        assert parallelism(costs) > 16  # far more parallelism than cores
        assert curve[16] > 8  # near-linear at small p
    table.emit()

    benchmark(lambda: runs["primal-dual"]().work)
