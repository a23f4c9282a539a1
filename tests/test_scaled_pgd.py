import numpy as np
import pytest
import scipy.optimize

from detmc import bench, graphs, metrics, pgd, sampling, scaled_pgd
from detmc.errors import DivergenceError, ParameterError
from support import complete_graph


def ball_projection_oracle(X, Y, budget):
    """Independent route to the row-constrained weighted projection.

    Each row decouples: minimize ||(x - xbar) S||^2 subject to
    sqrt(n) ||x S|| <= budget, with S the square root of the co-factor
    Gram.  In w = x S coordinates this is the textbook Euclidean ball
    projection; solving back through S gives machine-precision references
    without assuming the implementation's formula.
    """

    def project_side(A, gram, n):
        w_eig, V = np.linalg.eigh(gram)
        S = (V * np.sqrt(np.maximum(w_eig, 0.0))) @ V.T
        out = np.empty_like(A)
        cap = budget / np.sqrt(n)
        for i, row in enumerate(A):
            w = row @ S
            norm = np.linalg.norm(w)
            w_star = w if norm <= cap else w * (cap / norm)
            out[i] = np.linalg.solve(S, w_star)
        return out

    n1, n2 = X.shape[0], Y.shape[0]
    return project_side(X, Y.T @ Y, n1), project_side(Y, X.T @ X, n2)


def slsqp_projection_oracle(X, Y, budget):
    """Generic-NLP cross-check of the same constrained projection.

    SLSQP resolves the active constraint only to ~1e-7, so comparisons
    against it use a matching tolerance.
    """

    def project_side(A, gram, n):
        w, V = np.linalg.eigh(gram)
        S = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
        out = np.empty_like(A)
        for i, row in enumerate(A):
            def fun(x, row=row):
                d = (x - row) @ S
                return float(d @ d)

            def jac(x, row=row):
                return 2.0 * ((x - row) @ S) @ S

            cons = {
                "type": "ineq",
                "fun": lambda x: budget**2 / n - float((x @ S) @ (x @ S)),
                "jac": lambda x: -2.0 * (x @ S) @ S,
            }
            res = scipy.optimize.minimize(
                fun, row, jac=jac, constraints=[cons], method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-16},
            )
            out[i] = res.x
        return out

    n1, n2 = X.shape[0], Y.shape[0]
    return project_side(X, Y.T @ Y, n1), project_side(Y, X.T @ X, n2)


class TestProjectRows:
    def test_one_by_one_arithmetic(self):
        pair = pgd.FactorPair(np.array([[2.0]]), np.array([[1.0]]))
        out = scaled_pgd.project_rows(pair, 1.0)
        assert out.X[0, 0] == pytest.approx(1.0)
        assert out.Y[0, 0] == pytest.approx(0.5)

    def test_identity_when_feasible(self):
        rng = np.random.default_rng(0)
        pair = pgd.FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
        out = scaled_pgd.project_rows(pair, 1e6)
        assert np.array_equal(out.X, pair.X)
        assert np.array_equal(out.Y, pair.Y)

    def test_constraint_met_against_input_cofactor(self):
        rng = np.random.default_rng(1)
        X = 3.0 * rng.standard_normal((7, 3))
        Y = 3.0 * rng.standard_normal((6, 3))
        budget = 4.0
        out = scaled_pgd.project_rows(pgd.FactorPair(X, Y), budget)
        # the closed form anchors each side's constraint at the INPUT co-factor
        xprod = np.sqrt(((out.X @ Y.T) ** 2).sum(axis=1))
        yprod = np.sqrt(((out.Y @ X.T) ** 2).sum(axis=1))
        assert np.sqrt(7) * xprod.max() <= budget + 1e-9
        assert np.sqrt(6) * yprod.max() <= budget + 1e-9

    def test_matches_constrained_minimizer_oracles(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            X = rng.standard_normal((5, 3)) * (1.0 + trial / 5.0)
            Y = rng.standard_normal((4, 3)) * (1.0 + trial / 7.0)
            budget = 1.0 + 0.4 * trial
            out = scaled_pgd.project_rows(pgd.FactorPair(X, Y), budget)
            bx, by = ball_projection_oracle(X, Y, budget)
            assert np.allclose(out.X, bx, atol=1e-10)
            assert np.allclose(out.Y, by, atol=1e-10)
            ox, oy = slsqp_projection_oracle(X, Y, budget)
            assert np.allclose(out.X, ox, atol=2e-7)
            assert np.allclose(out.Y, oy, atol=2e-7)

    def test_non_expansive_in_gauge_distance(self):
        rng = np.random.default_rng(3)
        gt = bench.synthetic_low_rank(24, 20, 2, 3.0, seed=4)
        budget = 1.1 * np.sqrt(gt.coherence_mu * gt.rank) * gt.sigma1
        W = np.sqrt(gt.svd.S)
        for trial in range(10):
            dX = rng.standard_normal(gt.left_factor.shape)
            dY = rng.standard_normal(gt.right_factor.shape)
            # scale the perturbation so the identity-gauge objective (an
            # upper bound on the distance) sits inside the guarantee's basin
            norm = np.sqrt(((dX * W) ** 2).sum() + ((dY * W) ** 2).sum())
            eps = rng.uniform(0.1, 1.0) * 0.4 * gt.sigma_r / norm
            pair = pgd.FactorPair(gt.left_factor + eps * dX, gt.right_factor + eps * dY)
            before = metrics.gauge_distance(pair, gt)
            assert before.distance <= 0.5 * gt.sigma_r  # inside the basin
            after = metrics.gauge_distance(scaled_pgd.project_rows(pair, budget), gt)
            assert after.distance <= before.distance + 1e-9


class TestSpectralInit:
    def test_full_observation_exact(self):
        gt = bench.synthetic_low_rank(16, 12, 2, 3.0, seed=5)
        obs = sampling.observe(gt.matrix, complete_graph(16, 12))
        pair, budget = scaled_pgd.spectral_init(obs, 2, gt=gt)
        res = metrics.gauge_distance(pair, gt)
        assert res.distance <= 1e-8

    def test_infinite_budget_is_unprojected(self):
        gt = bench.synthetic_low_rank(16, 12, 2, 3.0, seed=6)
        obs = sampling.observe(gt.matrix, complete_graph(16, 12))
        cfg = scaled_pgd.ScaledPgdConfig(budget=np.inf)
        pair, budget = scaled_pgd.spectral_init(obs, 2, cfg, gt=gt)
        assert np.isinf(budget)
        tsvd = sampling.rescaled_top_svd(obs, 2)
        assert np.allclose(pair.X, tsvd.U * np.sqrt(tsvd.S), atol=1e-12)

    def test_init_distance_shrinks_with_rate(self):
        # theorem-scale basins need sample sizes beyond desk scale; the
        # honest check is monotone improvement toward the target
        gt = bench.synthetic_low_rank(512, 512, 3, 10.0, seed=11)
        dists = []
        for d in (60, 256, 448):
            g = graphs.random_biregular(512, 512, d, seed=3)
            obs = sampling.observe(gt.matrix, g)
            pair, _ = scaled_pgd.spectral_init(obs, 3, gt=gt)
            dists.append(metrics.gauge_distance(pair, gt).distance)
        assert dists[2] < dists[1] < dists[0]
        assert dists[2] < 0.6 * gt.sigma_r


class TestStep:
    def test_fixed_point_at_ground_truth(self, small_instance):
        gt, g, obs = small_instance
        pair = pgd.FactorPair(gt.left_factor, gt.right_factor)
        out = scaled_pgd.step(pair, obs, eta=0.145)
        assert np.allclose(out.X, pair.X, atol=1e-10)
        assert np.allclose(out.Y, pair.Y, atol=1e-10)

    def test_scalar_full_observation(self):
        # X=2, Y=1, target 1 observed completely: X step is 2 - eta
        g = complete_graph(1, 1)
        obs = sampling.observe(np.array([[1.0]]), g)
        pair = pgd.FactorPair(np.array([[2.0]]), np.array([[1.0]]))
        out = scaled_pgd.step(pair, obs, eta=0.1)
        assert out.X[0, 0] == pytest.approx(2.0 - 0.1)

    def test_matches_dense_oracle(self, small_instance):
        gt, g, obs = small_instance
        rng = np.random.default_rng(7)
        X = gt.left_factor + 0.2 * rng.standard_normal(gt.left_factor.shape)
        Y = gt.right_factor + 0.2 * rng.standard_normal(gt.right_factor.shape)
        eta = 0.12
        out = scaled_pgd.step(pgd.FactorPair(X, Y), obs, eta=eta)
        mask = np.zeros((g.n1, g.n2))
        mask[g.rows, g.cols] = 1.0
        Kd = (X @ Y.T - gt.matrix) * mask
        Xo = X - (eta / g.rate) * Kd @ Y @ np.linalg.inv(Y.T @ Y)
        Yo = Y - (eta / g.rate) * Kd.T @ X @ np.linalg.inv(X.T @ X)
        assert np.allclose(out.X, Xo, atol=1e-10)
        assert np.allclose(out.Y, Yo, atol=1e-10)

    def test_rank_deficient_gram_uses_generalized_inverse(self):
        g = complete_graph(4, 4)
        M = np.outer(np.arange(1.0, 5.0), np.ones(4))
        obs = sampling.observe(M, g)
        X = np.column_stack([np.ones(4), np.zeros(4)])  # second column dead
        Y = np.column_stack([np.ones(4), np.zeros(4)])
        out = scaled_pgd.step(pgd.FactorPair(X, Y), obs, eta=0.1)
        assert np.all(np.isfinite(out.X))
        assert np.all(np.isfinite(out.Y))
        assert np.allclose(out.X[:, 1], 0.0)  # dead direction untouched

    def test_gauge_equivariance_of_product(self, small_instance):
        gt, g, obs = small_instance
        rng = np.random.default_rng(8)
        X = gt.left_factor + 0.1 * rng.standard_normal(gt.left_factor.shape)
        Y = gt.right_factor + 0.1 * rng.standard_normal(gt.right_factor.shape)
        Q0 = np.eye(gt.rank) + 0.3 * rng.standard_normal((gt.rank, gt.rank))
        a = scaled_pgd.step(pgd.FactorPair(X, Y), obs, eta=0.145)
        b = scaled_pgd.step(
            pgd.FactorPair(X @ Q0, Y @ np.linalg.inv(Q0).T), obs, eta=0.145
        )
        pa = a.X @ a.Y.T
        pb = b.X @ b.Y.T
        assert np.linalg.norm(pa - pb) <= 1e-8 * np.linalg.norm(pa)


class TestSolve:
    def test_full_observation(self):
        gt = bench.synthetic_low_rank(24, 24, 2, 5.0, seed=9)
        obs = sampling.observe(gt.matrix, complete_graph(24, 24))
        cfg = scaled_pgd.ScaledPgdConfig(max_iter=100, tol=1e-10)
        pair, trace = scaled_pgd.solve(obs, 2, cfg, gt=gt)
        assert trace.final_rel_error < 1e-10
        assert trace.iterations[-1] <= 100

    def test_rate_insensitive_to_condition_number(self, desk_graph):
        iters = {}
        for kappa in (1.0, 10.0):
            gt = bench.synthetic_low_rank(512, 512, 3, kappa, seed=11)
            obs = sampling.observe(gt.matrix, desk_graph)
            cfg = scaled_pgd.ScaledPgdConfig(max_iter=1500, tol=1e-4)
            _, trace = scaled_pgd.solve(obs, 3, cfg, gt=gt)
            assert trace.final_rel_error < 1e-4
            errs = np.asarray([e for e in trace.rel_error if not np.isnan(e)])
            tail = errs[(errs < 1e-2) & (errs > 1e-10)]
            iters[kappa] = metrics.fit_linear_rate(tail)
        assert abs(iters[10.0] - iters[1.0]) <= 0.2 * iters[1.0]

    def test_rate_comparable_to_plain_solver_at_kappa_one(self, desk_graph):
        gt = bench.synthetic_low_rank(512, 512, 3, 1.0, seed=11)
        obs = sampling.observe(gt.matrix, desk_graph)
        rates = {}
        _, tr_s = scaled_pgd.solve(
            obs, 3, scaled_pgd.ScaledPgdConfig(max_iter=2000, tol=1e-8), gt=gt
        )
        _, tr_p = pgd.solve(obs, 3, pgd.PgdConfig(max_iter=2000, tol=1e-8), gt=gt)
        for name, tr in (("scaled", tr_s), ("plain", tr_p)):
            errs = np.asarray([e for e in tr.rel_error if np.isfinite(e)])
            band = errs[(errs < 1e-2) & (errs > 1e-7)]
            rates[name] = metrics.fit_linear_rate(band)
        assert abs(rates["plain"] - rates["scaled"]) <= 0.25 * rates["scaled"], rates

    def test_in_basin_contraction_bound(self, desk_graph):
        gt = bench.synthetic_low_rank(512, 512, 3, 5.0, seed=11)
        obs = sampling.observe(gt.matrix, desk_graph)
        eta = 0.1
        cfg = scaled_pgd.ScaledPgdConfig(eta=eta, max_iter=300, tol=1e-12, log_dist=True)
        _, trace = scaled_pgd.solve(obs, 3, cfg, gt=gt)
        dists = np.asarray(trace.dist)
        inb = dists <= 0.1 * gt.sigma_r
        assert inb.any()
        start = int(np.argmax(inb))
        floor = 1e-10 * gt.sigma_r
        seg = dists[start:]
        ratios = (seg[1:] / seg[:-1])[seg[:-1] > floor]
        assert ratios.size >= 50
        bound = np.sqrt(1 - 1.6 * eta + 11 * eta**2) + 0.05
        assert ratios.max() <= bound

    def test_eta_cap_enforced(self):
        with pytest.raises(ParameterError):
            scaled_pgd.ScaledPgdConfig(eta=0.2)
        cfg = scaled_pgd.ScaledPgdConfig(eta=0.2, allow_large_eta=True)
        assert cfg.eta == 0.2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_guard(self, small_instance):
        gt, g, obs = small_instance
        cfg = scaled_pgd.ScaledPgdConfig(
            eta=50.0, allow_large_eta=True, max_iter=400, tol=1e-10, budget=np.inf
        )
        with pytest.raises(DivergenceError) as exc:
            scaled_pgd.solve(obs, gt.rank, cfg, gt=gt)
        assert exc.value.trace.meta["stop_reason"] == "diverged"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_iterate_raises_divergence(self, small_instance):
        gt, g, obs = small_instance
        # the first step overflows; the projection then turns Inf into NaN
        cfg = scaled_pgd.ScaledPgdConfig(eta=1e300, allow_large_eta=True, max_iter=10,
                                         log_dist=True)
        with pytest.raises(DivergenceError) as exc:
            scaled_pgd.solve(obs, gt.rank, cfg, gt=gt)
        trace = exc.value.trace
        assert trace.iterations == [0, 1]
        assert np.isfinite(trace.loss[0]) and not np.isfinite(trace.loss[1])
        assert trace.meta["stop_reason"] == "diverged"
