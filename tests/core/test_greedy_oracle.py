"""The one §4 greedy body against its dense oracle.

``parallel_greedy`` runs the CSR body of :mod:`repro.core.greedy_sparse`
on every instance, a dense one as its full CSR. The dense matrix body
in :mod:`tests.reference.greedy_dense` is its oracle, field for field:
opened set, cost, α bytes, τ-trace, γ, preprocessed clients and round
counters — or the same ``ConvergenceError`` message when a cap stops
both.

The drawn instances put facilities and clients on a small integer grid
under the L1 metric, with integer opening costs and client weights, so
every sum either body forms is exact and no floating-point
reassociation can split them. The grid is small, so points coincide
and star prices tie.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.greedy import parallel_greedy
from repro.errors import ConvergenceError
from repro.metrics.generators import euclidean_instance
from repro.metrics.instance import FacilityLocationInstance
from repro.pram.machine import PramMachine
from tests.reference.greedy_dense import greedy_dense


def _outcome(run):
    try:
        return run()
    except ConvergenceError as exc:
        return str(exc)


def _assert_same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.opened.tobytes() == b.opened.tobytes()
    assert a.cost == b.cost
    assert a.alpha.tobytes() == b.alpha.tobytes()
    assert a.extra["tau_trace"] == b.extra["tau_trace"]
    assert a.extra["gamma"] == b.extra["gamma"]
    assert a.extra["preprocessed_clients"] == b.extra["preprocessed_clients"]
    assert a.rounds == b.rounds


@st.composite
def grid_instances(draw):
    n_f = draw(st.integers(1, 6))
    n_c = draw(st.integers(1, 10))
    side = draw(st.integers(1, 4))
    coords = st.integers(0, side)
    fac = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n_f, max_size=n_f)))
    cli = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n_c, max_size=n_c)))
    D = np.abs(fac[:, None, :] - cli[None, :, :]).sum(axis=2).astype(float)
    f = np.array(draw(st.lists(st.integers(0, 6), min_size=n_f, max_size=n_f)), dtype=float)
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(1, 3), min_size=n_c, max_size=n_c).map(
                lambda w: np.array(w, dtype=float)
            ),
        )
    )
    return FacilityLocationInstance(D, f, client_weights=weights)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    grid_instances(),
    st.sampled_from([0.1, 0.5, 1.0]),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 3)),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(0, 2**16),
)
def test_greedy_matches_dense_oracle(inst, eps, preprocess, outer, sub, seed):
    kw = dict(
        epsilon=eps,
        preprocess=preprocess,
        max_outer_rounds=outer,
        max_subselect_rounds=sub,
    )
    got = _outcome(lambda: parallel_greedy(inst, machine=PramMachine(seed=seed), **kw))
    want = _outcome(lambda: greedy_dense(inst, machine=PramMachine(seed=seed), **kw))
    _assert_same(got, want)


@pytest.mark.parametrize("seed", [0, 1])
def test_greedy_matches_dense_oracle_at_bench_size(seed):
    """The bench's dense facility-location size, 700 × 700."""
    inst = euclidean_instance(700, 700, seed=0)
    got = parallel_greedy(inst, epsilon=0.1, machine=PramMachine(seed=seed))
    want = greedy_dense(inst, epsilon=0.1, machine=PramMachine(seed=seed))
    _assert_same(got, want)
