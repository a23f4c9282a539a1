import numpy as np
import pytest

from detmc import bench, graphs, ialm, sampling
from detmc.errors import DivergenceError, ParameterError
from support import bernoulli_with_empty_row_and_column, complete_graph


def nuclear_norm(A):
    return float(np.linalg.svd(A, compute_uv=False).sum())


def reference_ialm(obs, gt, mu0, rho, tol, max_iter):
    """The IALM iteration run to ``max_iter`` with no stop rule.

    Returns the relative error after every iteration and, per iteration,
    whether the settled test held: feasibility below ``tol`` and a step
    below ``tol`` times the observation's norm.
    """
    pat = obs.pattern
    mask = np.zeros(obs.shape, dtype=bool)
    mask[pat.rows, pat.cols] = True
    D = np.zeros(obs.shape)
    D[pat.rows, pat.cols] = obs.values
    d_norm, m_norm = np.linalg.norm(D), np.linalg.norm(gt.matrix)
    A, E, Y, mu = np.zeros_like(D), np.zeros_like(D), np.zeros_like(D), mu0
    rel, settled = [], []
    for k in range(1, max_iter + 1):
        U, S, Vt = np.linalg.svd(D - E + Y / mu, full_matrices=False)
        A_next = (U * np.maximum(S - 1.0 / mu, 0.0)) @ Vt
        E = np.where(mask, 0.0, D - A_next + Y / mu)
        R = D - A_next - E
        Y = Y + mu * R
        mu *= rho
        settled.append(k > 1 and np.linalg.norm(R) < tol * d_norm
                       and np.linalg.norm(A_next - A) < tol * d_norm)
        A = A_next
        rel.append(np.linalg.norm(A - gt.matrix) / m_norm)
    return np.array(rel), np.array(settled), d_norm / m_norm


def svt_oracle(A, tau):
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    return (U * np.maximum(S - tau, 0.0)) @ Vt


def sparse_plus_low_rank(shape, rank, seed):
    rng = np.random.default_rng(seed)
    n1, n2 = shape
    L = rng.standard_normal((n1, rank)) @ rng.standard_normal((rank, n2))
    return L + np.where(rng.random(shape) < 0.1, rng.standard_normal(shape), 0.0)


def with_spectrum(S, shape, seed):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((shape[0], len(S))))[0]
    V = np.linalg.qr(rng.standard_normal((shape[1], len(S))))[0]
    return (U * S) @ V.T


class TestSvtOracle:
    """``ialm._svt`` against thresholding a full SVD, to 1e-10 ||A||_F."""

    def check(self, A, tau, dense):
        out, shrunk, used_dense = ialm._svt(A, tau)
        assert used_dense == dense
        S = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(np.sort(shrunk)[::-1], S[S > tau] - tau,
                           rtol=0, atol=1e-10 * np.linalg.norm(A))
        assert np.linalg.norm(out - svt_oracle(A, tau)) <= 1e-10 * np.linalg.norm(A)
        return shrunk

    @pytest.mark.parametrize("shape", [(90, 90), (120, 70), (70, 120)])
    def test_sparse_plus_low_rank(self, shape):
        A = sparse_plus_low_rank(shape, 4, seed=sum(shape))
        S = np.linalg.svd(A, compute_uv=False)
        # past the low-rank part, into the sparse noise's bulk, and near its edge
        for i in (3, 20, S.size - 2):
            tau = 0.5 * (S[i] + S[i + 1])
            self.check(A, tau, dense=False)

    def test_repeated_singular_value_kept(self):
        S = np.r_[5.0, np.full(6, 2.0), np.linspace(1.0, 0.1, 20)]
        A = with_spectrum(S, (60, 50), seed=1)
        shrunk = self.check(A, 1.5, dense=False)
        assert np.sum(np.isclose(shrunk, 0.5, rtol=1e-12)) == 6

    def test_cluster_just_above_threshold(self):
        tau = 1e-2
        S = np.r_[3.0, 1.0, tau * (1 + 1e-9 * np.arange(1, 11)), tau * np.linspace(0.99, 0.5, 10)]
        A = with_spectrum(S, (50, 40), seed=2)
        assert self.check(A, tau, dense=False).size == 12

    def test_threshold_above_top_singular_value(self):
        A = sparse_plus_low_rank((40, 30), 2, seed=3)
        out, shrunk, _ = ialm._svt(A, 1.01 * np.linalg.norm(A, 2))
        assert shrunk.size == 0
        assert np.array_equal(out, np.zeros_like(A))

    def test_zero_threshold_takes_dense_svd(self):
        A = sparse_plus_low_rank((40, 30), 2, seed=4)
        self.check(A, 0.0, dense=True)

    @pytest.mark.parametrize("factor, dense", [(0.999, False), (1.001, True)])
    def test_gram_ratio_boundary(self, factor, dense):
        # ||A||_F / tau just below and just above the Gram route's limit
        A = sparse_plus_low_rank((80, 80), 3, seed=5)
        tau = np.linalg.norm(A) / (factor * ialm._GRAM_RATIO)
        assert self.check(A, tau, dense=dense).size == 80


class TestSvt:
    """The proximal map of tau * nuclear norm that ``ialm._svt`` computes."""

    def test_diagonal(self):
        out = ialm._svt(np.diag([3.0, 1.0]), 2.0)[0]
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 4))
        assert np.allclose(ialm._svt(A, 0.0)[0], A, atol=1e-12)

    def test_rank_reduction_and_prox_optimality(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 6))
        s = np.linalg.svd(A, compute_uv=False)
        tau = s[1]
        out = ialm._svt(A, tau)[0]
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
            lhs = np.linalg.norm(ialm._svt(A, tau)[0] - ialm._svt(B, tau)[0])
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

    def test_mu0_recorded(self):
        # the 256 x 256, d = 32 instance of test_iteration_counts' table
        n, r, d = 256, 3, 32
        g = graphs.random_biregular(
            n, n, d, seed=np.random.SeedSequence((0, 1000 + d)).entropy)
        gt = bench.synthetic_low_rank(n, n, r, 1.2, np.random.SeedSequence((0, d, r, 0)))
        obs = sampling.observe(gt.matrix, g)
        D = np.zeros((n, n))
        D[g.rows, g.cols] = obs.values
        _, trace = ialm.solve(obs, ialm.IalmConfig(max_iter=1))
        assert trace.meta["mu0"] == pytest.approx(1.0 / np.linalg.norm(D, 2), rel=1e-13)

    def test_config_validation(self):
        # a NaN tol ran out max_iter, and max_iter = 0 returned the zero matrix
        nan = float("nan")
        for setting in ({"tol": nan}, {"max_iter": 0}):
            with pytest.raises(ParameterError):
                ialm.IalmConfig(**setting)

    def _settle_instance(self, d, seed):
        gt = bench.synthetic_low_rank(64, 64, 2, 1.0, seed=seed + 10)
        return gt, sampling.observe(gt.matrix, graphs.random_biregular(64, 64, d, seed=seed))

    @staticmethod
    def _reference(obs, gt, trace, tol, max_iter):
        """``reference_ialm`` from the run's recorded penalty schedule."""
        return reference_ialm(obs, gt, trace.meta["mu0"], trace.meta["rho"], tol, max_iter)

    def test_settled_run_above_ten_tol_stops_on_stall(self):
        tol, max_iter = 1e-4, 500
        gt, obs = self._settle_instance(16, 0)
        cfg = ialm.IalmConfig(tol=tol, max_iter=max_iter)
        _, trace = ialm.solve(obs, cfg, gt=gt)
        k = trace.iterations[-1]
        assert trace.meta["stop_reason"] == "stall"
        assert k < max_iter
        assert trace.final_rel_error > 10 * tol
        rel, settled, p_omega_ratio = self._reference(obs, gt, trace, tol, max_iter)
        # the same iterates up to the stop, which is the first settled one
        assert np.allclose(trace.rel_error[1:], rel[:k], rtol=1e-9, atol=0)
        assert int(np.argmax(settled)) + 1 == k
        # running on to max_iter never reaches tol and moves the error by
        # less than the bound on the remaining steps
        assert rel.min() >= tol
        assert abs(rel[-1] - trace.final_rel_error) <= 10 * tol * p_omega_ratio

    def test_run_across_the_gram_limit_matches_the_reference(self):
        # at tol 1e-8 the run goes on until mu * ||D - E + Y/mu||_F, the
        # operand's ||Z||_F / tau, passes ialm._GRAM_RATIO: its thresholds
        # come from the Gram eigenpairs first and from the dense SVD after
        tol = 1e-8
        gt, obs = self._settle_instance(16, 0)
        _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol, max_iter=500), gt=gt)
        k = trace.iterations[-1]
        assert 0 < trace.meta["svt_dense"] < k
        rel, settled, _ = self._reference(obs, gt, trace, tol, k)
        assert np.allclose(trace.rel_error[1:], rel, rtol=1e-9, atol=0)
        assert int(np.argmax(settled)) + 1 == k

    @staticmethod
    def _non_square_pattern(kind):
        if kind == "tall":
            return graphs.random_biregular(48, 36, 12, seed=3)
        if kind == "wide":
            return graphs.random_biregular(36, 48, 16, seed=3)
        return bernoulli_with_empty_row_and_column()

    @pytest.mark.parametrize("kind", ["tall", "wide", "bernoulli-empty-row-and-column"])
    def test_non_square_pattern_matches_the_reference(self, kind):
        # the Gram route thresholds A^T A on a tall operand and A A^T on a
        # wide one; an empty row or column is never observed
        tol = 1e-6
        pat = self._non_square_pattern(kind)
        gt = bench.synthetic_low_rank(pat.n1, pat.n2, 2, 1.0, seed=4)
        obs = sampling.observe(gt.matrix, pat)
        _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol, max_iter=300), gt=gt)
        k = trace.iterations[-1]
        assert trace.meta["stop_reason"] == "stall"
        rel, settled, _ = self._reference(obs, gt, trace, tol, k)
        assert np.allclose(trace.rel_error[1:], rel, rtol=1e-9, atol=0)
        assert int(np.argmax(settled)) + 1 == k

    def test_settled_run_within_ten_tol_continues(self):
        tol = 1e-4
        gt, obs = self._settle_instance(18, 0)
        _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol, max_iter=200), gt=gt)
        k = trace.iterations[-1]
        rel, settled, _ = self._reference(obs, gt, trace, tol, k)
        first = int(np.argmax(settled))
        assert settled[first] and first + 1 < k
        assert tol <= rel[first] <= 10 * tol
        assert trace.meta["stop_reason"] == "tol"
        assert trace.final_rel_error < tol

    @staticmethod
    def _overflow_instance():
        g = graphs.random_biregular(64, 64, 16, seed=1)
        return sampling.observe(bench.synthetic_low_rank(64, 64, 2, 1.0, 2).matrix, g)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho, last", [(1e100, 4), (1e120, 3)])
    def test_overflowed_penalty_raises_before_use(self, monkeypatch, rho, last):
        # mu0 * rho^k overflows at iteration ``last``; the next iteration's
        # Y += mu * R made NaN, and the SVD then failed with LinAlgError
        monkeypatch.setattr(ialm, "_RHO", rho)
        obs = self._overflow_instance()
        with pytest.raises(DivergenceError) as exc:
            ialm.solve(obs, ialm.IalmConfig(tol=0.0, max_iter=50))
        assert exc.value.trace.iterations[-1] == last
        assert exc.value.trace.meta["stop_reason"] == "diverged"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rho", [1e100, 1e120])
    def test_stop_rules_come_before_the_overflow_check(self, monkeypatch, rho):
        # at rho = 1e120 the penalty overflows at iteration 3, where the
        # run has settled: the stop rules see that iteration first
        monkeypatch.setattr(ialm, "_RHO", rho)
        _, trace = ialm.solve(self._overflow_instance(), ialm.IalmConfig(tol=1e-4))
        assert (trace.iterations[-1], trace.meta["stop_reason"]) == (3, "tol")
