"""Shared benchmark fixtures.

Benchmarks print their experiment tables (captured in bench logs) and
time the algorithm kernels with pytest-benchmark. Claim assertions run
alongside so a regression in either speed *or* quality fails the bench
suite.
"""

import pytest

from repro.metrics.generators import euclidean_clustering, euclidean_instance


@pytest.fixture(scope="session")
def medium_instance():
    """The standard timing instance: m = 20×80 = 1600."""
    return euclidean_instance(20, 80, seed=100)


@pytest.fixture(scope="session")
def medium_clustering():
    return euclidean_clustering(80, 5, seed=100)
