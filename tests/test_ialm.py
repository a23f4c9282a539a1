import numpy as np
import pytest

from detmc import bench, graphs, ialm, sampling
from detmc.errors import ParameterError
from support import complete_graph


def nuclear_norm(A):
    return float(np.linalg.svd(A, compute_uv=False).sum())


class TestSvt:
    def test_diagonal(self):
        out = ialm.svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 4))
        assert np.allclose(ialm.svt(A, 0.0), A, atol=1e-12)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ParameterError):
            ialm.svt(np.eye(2), -1.0)

    def test_rank_reduction_and_prox_optimality(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 6))
        s = np.linalg.svd(A, compute_uv=False)
        tau = s[1]
        out = ialm.svt(A, tau)
        assert np.linalg.matrix_rank(out, tol=1e-9) <= 1

        def prox_objective(X):
            return 0.5 * np.linalg.norm(X - A) ** 2 + tau * nuclear_norm(X)

        base = prox_objective(out)
        for k in range(25):  # argmin spot check against random perturbations
            E = np.random.default_rng(k).standard_normal(A.shape)
            E *= (0.01 if k % 2 else 0.3) / np.linalg.norm(E)
            assert prox_objective(out + E) >= base - 1e-10

    def test_non_expansive(self):
        rng = np.random.default_rng(2)
        for tau in (0.1, 0.7, 2.0):
            A = rng.standard_normal((7, 5))
            B = rng.standard_normal((7, 5))
            lhs = np.linalg.norm(ialm.svt(A, tau) - ialm.svt(B, tau))
            assert lhs <= np.linalg.norm(A - B) + 1e-10


class TestSolve:
    def test_full_observation_fast(self):
        gt = bench.synthetic_low_rank(20, 20, 2, 1.0, seed=3)
        obs = sampling.observe(gt.matrix, complete_graph(20, 20))
        Mhat, trace = ialm.solve(obs, ialm.IalmConfig(tol=1e-4), gt=gt)
        assert trace.final_rel_error < 1e-4
        assert trace.iterations[-1] <= 5
        assert trace.meta["stop_reason"] == "tol"

    def test_max_iter_stop(self):
        gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=4)
        obs = sampling.observe(gt.matrix, graphs.random_biregular(30, 30, 12, seed=3))
        _, trace = ialm.solve(obs, ialm.IalmConfig(max_iter=3), gt=gt)
        assert trace.iterations[-1] == 3
        assert trace.meta["stop_reason"] == "max-iter"

    def test_partial_observation_desk_instance(self):
        gt = bench.synthetic_low_rank(256, 256, 3, 1.0, seed=4)
        g = graphs.random_biregular(256, 256, 40, seed=5)
        obs = sampling.observe(gt.matrix, g)
        Mhat, trace = ialm.solve(obs, ialm.IalmConfig(tol=1e-4, max_iter=200), gt=gt)
        assert trace.final_rel_error < 1e-4
        # observed-entry feasibility at termination
        feas = np.linalg.norm(Mhat[g.rows, g.cols] - obs.values) / np.linalg.norm(obs.values)
        assert feas <= 10 * 1e-4

    def test_feasibility_stop_without_ground_truth(self):
        gt = bench.synthetic_low_rank(64, 64, 2, 2.0, seed=6)
        g = graphs.random_biregular(64, 64, 24, seed=7)
        obs = sampling.observe(gt.matrix, g)
        Mhat, trace = ialm.solve(obs, ialm.IalmConfig(tol=1e-6, max_iter=200))
        feas = np.linalg.norm(Mhat[g.rows, g.cols] - obs.values) / np.linalg.norm(obs.values)
        assert feas < 1e-5
        assert trace.meta["stop_reason"] == "tol"

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            ialm.IalmConfig(rho=1.0)
        with pytest.raises(ParameterError):
            ialm.IalmConfig(mu0=-1.0)
