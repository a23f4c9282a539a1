import pytest

from detmc import bench, graphs, sampling


@pytest.fixture(scope="session")
def lps_5_13():
    return graphs.lps_graph(5, 13)


@pytest.fixture(scope="session")
def lps_5_13_cert(lps_5_13):
    return graphs.certify(lps_5_13)


@pytest.fixture(scope="session")
def desk_graph():
    """The 512 x 512, degree-60 sampling graph used across solver tests."""
    return graphs.random_biregular(512, 512, 60, seed=7)


@pytest.fixture(scope="session")
def small_instance():
    """A 30 x 30 rank-2 instance with a degree-6 graph and its observation."""
    gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=4)
    g = graphs.random_biregular(30, 30, 6, seed=3)
    return gt, g, sampling.observe(gt.matrix, g)
