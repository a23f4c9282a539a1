import numpy as np
import pytest

from detmc import bench, graphs, metrics, pgd, sampling, scaled_pgd
from detmc.errors import DivergenceError, ParameterError
from support import complete_graph


def lifted_loss_oracle(pair, gt, g, lam):
    """Loss evaluated on the explicitly built lifted objects (n <= 32)."""
    n1, n2 = g.n1, g.n2
    Z = pair.stacked()
    Zs = gt.stacked_factor
    N = Zs @ Zs.T
    lifted_mask = np.zeros((n1 + n2, n1 + n2))
    lifted_mask[g.rows, n1 + g.cols] = 1.0
    lifted_mask[n1 + g.cols, g.rows] = 1.0
    D = np.diag(np.concatenate([np.ones(n1), -np.ones(n2)]))
    fit = np.linalg.norm(lifted_mask * (Z @ Z.T - N)) ** 2 / (2 * g.rate)
    reg = 0.25 * lam * np.linalg.norm(Z.T @ D @ Z) ** 2
    return fit + reg


class TestSpectralInit:
    def test_full_observation_recovers_target(self):
        gt = bench.synthetic_low_rank(16, 12, 2, 3.0, seed=0)
        obs = sampling.observe(gt.matrix, complete_graph(16, 12))
        pair, znorm, clip = pgd.spectral_init(obs, 2, gt.coherence_mu)
        assert metrics.rotation_distance(pair, gt).distance <= 1e-8
        assert znorm == pytest.approx(np.sqrt(2 * gt.sigma1), rel=1e-8)

    def test_stepsize_denominator_is_exact(self):
        # partially observed, kappa = 1: the step's denominator is the
        # squared two-norm of the unclipped stacked init
        gt = bench.synthetic_low_rank(256, 256, 3, 1.0, seed=0)
        obs = sampling.observe(gt.matrix, graphs.random_biregular(256, 256, 32, seed=10))
        tsvd = sampling.rescaled_top_svd(obs, 3)
        sq = np.sqrt(tsvd.S)
        Z = np.vstack([tsvd.U * sq, tsvd.V * sq])
        _, trace = pgd.solve(obs, 3, pgd.PgdConfig(max_iter=1))
        assert trace.meta["stepsize_denominator"] == pytest.approx(
            np.linalg.norm(Z, 2) ** 2, rel=1e-13)

    def test_rank_one_ones_matrix(self):
        obs = sampling.observe(np.ones((2, 2)), complete_graph(2, 2))
        pair, _, _ = pgd.spectral_init(obs, 1, mu=2.0)
        assert np.allclose(pair.X, np.ones((2, 1)), atol=1e-12)
        assert np.allclose(pair.Y, np.ones((2, 1)), atol=1e-12)

    def test_lands_in_basin_at_high_rate(self):
        # the theorem-scale basin needs heavy sampling at desk sizes: at
        # d = 448 of 512 the measured distance clears 0.25*sqrt(sigma_r)
        gt = bench.synthetic_low_rank(512, 512, 3, 5.0, seed=11)
        g = graphs.random_biregular(512, 512, 448, seed=3)
        obs = sampling.observe(gt.matrix, g)
        pair, _, _ = pgd.spectral_init(obs, 3, gt.coherence_mu)
        dist = metrics.rotation_distance(pair, gt).distance
        assert dist < 0.25 * np.sqrt(gt.sigma_r)

    def test_rank_guard(self):
        obs = sampling.observe(np.ones((4, 3)), complete_graph(4, 3))
        with pytest.raises(ParameterError):
            pgd.spectral_init(obs, 4, mu=2.0)


class TestLoss:
    def test_zero_at_balanced_ground_truth(self, small_instance):
        gt, g, obs = small_instance
        pair = pgd.FactorPair(gt.left_factor, gt.right_factor)
        assert pgd.loss(pair, obs, lam=0.5) <= 1e-16

    def test_zero_factors_lambda_zero(self, small_instance):
        gt, g, obs = small_instance
        pair = pgd.FactorPair(
            np.zeros((g.n1, gt.rank)), np.zeros((g.n2, gt.rank))
        )
        expected = float((obs.values**2).sum()) / obs.rate
        assert pgd.loss(pair, obs, lam=0.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_lifted_oracle(self):
        gt = bench.synthetic_low_rank(14, 10, 2, 2.0, seed=1)
        g = graphs.random_biregular(14, 10, 5, seed=2)
        obs = sampling.observe(gt.matrix, g)
        rng = np.random.default_rng(3)
        for lam in (0.0, 0.5, 1.0):
            pair = pgd.FactorPair(
                rng.standard_normal((14, 2)), rng.standard_normal((10, 2))
            )
            mine = pgd.loss(pair, obs, lam)
            oracle = lifted_loss_oracle(pair, gt, g, lam)
            assert mine == pytest.approx(oracle, rel=1e-10)


class TestGradient:
    def test_zero_at_balanced_ground_truth(self, small_instance):
        gt, g, obs = small_instance
        pair = pgd.FactorPair(gt.left_factor, gt.right_factor)
        grad = pgd.gradient(pair, obs, lam=0.5)
        scale = np.linalg.norm(gt.stacked_factor)
        assert np.linalg.norm(grad.stacked()) <= 1e-9 * scale

    def test_balancing_blocks_vanish_when_balanced(self, small_instance):
        gt, g, obs = small_instance
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(rng.standard_normal((gt.rank, gt.rank)))[0]
        # X'X = Y'Y by construction
        pair = pgd.FactorPair(gt.left_factor @ Q, gt.right_factor @ Q)
        g0 = pgd.gradient(pair, obs, lam=0.0)
        g1 = pgd.gradient(pair, obs, lam=0.7)
        assert np.allclose(g0.stacked(), g1.stacked(), atol=1e-12)

    def test_matches_finite_differences(self):
        gt = bench.synthetic_low_rank(12, 8, 2, 2.0, seed=5)
        g = graphs.random_biregular(12, 8, 4, seed=6)
        obs = sampling.observe(gt.matrix, g)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((12, 2))
        Y = rng.standard_normal((8, 2))
        pair = pgd.FactorPair(X, Y)
        grad = pgd.gradient(pair, obs, lam=0.5)
        h = 1e-6
        for idx in [(0, 0), (3, 1), (11, 0)]:
            Xp, Xm = X.copy(), X.copy()
            Xp[idx] += h
            Xm[idx] -= h
            fd = (
                pgd.loss(pgd.FactorPair(Xp, Y), obs, 0.5)
                - pgd.loss(pgd.FactorPair(Xm, Y), obs, 0.5)
            ) / (2 * h)
            assert grad.X[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        for idx in [(0, 1), (7, 0)]:
            Yp, Ym = Y.copy(), Y.copy()
            Yp[idx] += h
            Ym[idx] -= h
            fd = (
                pgd.loss(pgd.FactorPair(X, Yp), obs, 0.5)
                - pgd.loss(pgd.FactorPair(X, Ym), obs, 0.5)
            ) / (2 * h)
            assert grad.Y[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestProjectRows:
    def test_identity_within_bound(self):
        rng = np.random.default_rng(8)
        pair = pgd.FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
        big = 100.0
        out = pgd.project_rows(pair, big)
        assert np.array_equal(out.X, pair.X)
        assert np.array_equal(out.Y, pair.Y)

    def test_clips_single_row(self):
        pair = pgd.FactorPair(np.array([[6.0, 8.0]]), np.array([[0.0, 1.0]]))
        out = pgd.project_rows(pair, 5.0)
        assert np.allclose(out.X, [[3.0, 4.0]])
        assert np.allclose(out.Y, [[0.0, 1.0]])

    def test_clips_row_whose_squares_overflow(self):
        # 1e200**2 overflows; the row must still come out at the bound
        pair = pgd.FactorPair(np.array([[1e200, 1e200]]), np.array([[0.0, 1.0]]))
        out = pgd.project_rows(pair, 1.0)
        assert np.linalg.norm(out.X[0]) == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(out.Y, pair.Y)

    def test_row_norms_bounded(self):
        rng = np.random.default_rng(9)
        pair = pgd.FactorPair(rng.standard_normal((30, 3)) * 3, rng.standard_normal((20, 3)) * 3)
        out = pgd.project_rows(pair, 1.5)
        stacked = out.stacked()
        assert np.sqrt((stacked**2).sum(axis=1)).max() <= 1.5 + 1e-12

    def test_non_expansive_toward_feasible_points(self):
        rng = np.random.default_rng(10)
        bound = 2.0
        for _ in range(50):
            Z = rng.standard_normal((12, 2)) * 3
            Zbar = rng.standard_normal((12, 2))
            norms = np.sqrt((Zbar**2).sum(axis=1, keepdims=True))
            Zbar = Zbar / np.maximum(norms / bound, 1.0)  # feasible
            pz = pgd.project_rows(pgd.FactorPair(Z[:7], Z[7:]), bound)
            lhs = np.linalg.norm(pz.stacked() - Zbar)
            rhs = np.linalg.norm(Z - Zbar)
            assert lhs <= rhs + 1e-12


class TestSolve:
    def test_full_observation_converges_fast(self):
        gt = bench.synthetic_low_rank(24, 24, 2, 1.0, seed=11)
        obs = sampling.observe(gt.matrix, complete_graph(24, 24))
        cfg = pgd.PgdConfig(eta=0.5, max_iter=200, tol=1e-10)
        pair, trace = pgd.solve(obs, 2, cfg, gt=gt)
        assert trace.final_rel_error < 1e-10
        assert trace.iterations[-1] <= 200

    def test_desk_instance_regression(self, desk_graph):
        gt = bench.synthetic_low_rank(512, 512, 3, 1.0, seed=11)
        obs = sampling.observe(gt.matrix, desk_graph)
        cfg = pgd.PgdConfig(eta=0.5, max_iter=400, tol=1e-6)
        pair, trace = pgd.solve(obs, 3, cfg, gt=gt)
        assert trace.final_rel_error < 1e-6
        # frozen iteration count band for this seeded instance (observed 58)
        assert 30 <= trace.iterations[-1] <= 90
        # geometric decay of the error
        errs = np.asarray([e for e in trace.rel_error if not np.isnan(e) and e > 1e-12])
        rate = metrics.fit_linear_rate(errs[3:])
        assert rate < 0.9

    def test_kappa_slows_convergence(self, desk_graph):
        iters = {}
        for kappa in (1.0, 10.0):
            gt = bench.synthetic_low_rank(512, 512, 3, kappa, seed=11)
            obs = sampling.observe(gt.matrix, desk_graph)
            cfg = pgd.PgdConfig(eta=0.25, max_iter=3000, tol=1e-4)
            _, trace = pgd.solve(obs, 3, cfg, gt=gt)
            assert trace.final_rel_error < 1e-4
            iters[kappa] = trace.iterations[-1]
        assert iters[10.0] >= 2 * iters[1.0]

    def test_step_map_rotation_equivariance(self, small_instance):
        gt, g, obs = small_instance
        rng = np.random.default_rng(12)
        R0 = np.linalg.qr(rng.standard_normal((gt.rank, gt.rank)))[0]
        pair, znorm, clip = pgd.spectral_init(obs, gt.rank, gt.coherence_mu)
        rot = pgd.FactorPair(pair.X @ R0, pair.Y @ R0)
        step = 0.3 / znorm**2
        for _ in range(20):
            gr = pgd.gradient(pair, obs, 0.5)
            pair = pgd.project_rows(
                pgd.FactorPair(pair.X - step * gr.X, pair.Y - step * gr.Y), clip
            )
            gr2 = pgd.gradient(rot, obs, 0.5)
            rot = pgd.project_rows(
                pgd.FactorPair(rot.X - step * gr2.X, rot.Y - step * gr2.Y), clip
            )
        # same orbit: rotated run equals base run up to the same rotation
        assert np.allclose(rot.X, pair.X @ R0, atol=1e-8)
        assert np.allclose(rot.Y, pair.Y @ R0, atol=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_guard(self, small_instance):
        gt, g, obs = small_instance
        # blind, so that mu = 1e300 lifts the row clip
        cfg = pgd.PgdConfig(eta=500.0, max_iter=300, tol=1e-8, mu=1e300)
        with pytest.raises(DivergenceError) as exc:
            pgd.solve(obs, gt.rank, cfg)
        assert exc.value.trace is not None
        assert len(exc.value.trace.iterations) >= 1
        assert exc.value.trace.meta["stop_reason"] == "diverged"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_iterate_raises_divergence(self, small_instance):
        gt, g, obs = small_instance
        # blind, so that mu = 1e300 lifts the row clip: the first step of
        # eta = 1e300 overflows the loss
        cfg = pgd.PgdConfig(eta=1e300, mu=1e300, max_iter=10)
        with pytest.raises(DivergenceError) as exc:
            pgd.solve(obs, gt.rank, cfg)
        trace = exc.value.trace
        assert trace.iterations == [0, 1]
        assert np.isfinite(trace.loss[0]) and not np.isfinite(trace.loss[1])
        assert trace.meta["stop_reason"] == "diverged"

    def test_stops_without_ground_truth(self):
        gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=4)
        g = graphs.random_biregular(30, 30, 12, seed=3)
        obs = sampling.observe(gt.matrix, g)
        cfg = pgd.PgdConfig(eta=0.25, max_iter=6000, tol=1e-6)
        pair, trace = pgd.solve(obs, gt.rank, cfg)
        assert trace.iterations[-1] < 6000  # loss floor / stagnation fired
        assert metrics.relative_error(pair.X, pair.Y, gt) < 1e-6

    def test_trace_monotone_distance_in_basin(self, desk_graph):
        gt = bench.synthetic_low_rank(512, 512, 3, 5.0, seed=11)
        obs = sampling.observe(gt.matrix, desk_graph)
        cfg = pgd.PgdConfig(eta=0.25, max_iter=300, tol=1e-12, log_dist=True)
        _, trace = pgd.solve(obs, 3, cfg, gt=gt)
        dists = np.asarray(trace.dist)
        floor = 1e-8 * np.sqrt(gt.sigma_r)
        keep = dists[:-1] > floor
        ratios = (dists[1:] / dists[:-1])[keep]
        assert ratios.max() <= 1.0 + 1e-10


class TestStopReason:
    """``trace.meta["stop_reason"]`` names the rule that ended the run; the
    loop is shared, so both factored solvers are checked."""

    @staticmethod
    def instance(pattern):
        gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=4)
        return gt, sampling.observe(gt.matrix, pattern)

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd"])
    def test_with_ground_truth(self, small_instance, solver):
        gt, g, obs = small_instance
        _, trace = bench.solve(solver, obs, gt.rank, gt, max_iter=3)
        assert trace.meta["stop_reason"] == "max-iter"
        assert trace.iterations[-1] == 3
        gt, obs = self.instance(graphs.random_biregular(30, 30, 12, seed=3))
        _, trace = bench.solve(solver, obs, gt.rank, gt, tol=1e-6)
        assert trace.meta["stop_reason"] == "tol"
        assert trace.final_rel_error < 1e-6

    @pytest.mark.parametrize("solver, settings", [
        ("pgd", {"eta": 0.25}),
        # the default incoherence estimate over-clips the scaled solver's
        # blind runs here; 8 is the value of the README's blind example
        ("scaled-pgd", {"mu": 8.0}),
    ])
    def test_without_ground_truth(self, solver, settings):
        gt, obs = self.instance(graphs.random_biregular(30, 30, 12, seed=3))
        _, trace = bench.solve(solver, obs, gt.rank, **settings)
        assert trace.meta["stop_reason"] == "loss-floor"
        assert trace.loss[-1] <= pgd._LOSS_FLOOR_REL * trace.loss[0]
        gt, obs = self.instance(complete_graph(30, 30))
        _, trace = bench.solve(solver, obs, gt.rank, **settings)
        assert trace.meta["stop_reason"] == "stagnation"
        assert trace.iterations[-1] < 2000


class TestLayout:
    """The loop holds the factors r-major; callers get n x r C-ordered
    pairs back, and the public helpers run the loop's own arithmetic."""

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd"])
    def test_solvers_return_c_ordered_factors(self, small_instance, solver):
        gt, g, obs = small_instance
        for truth in (gt, None):
            pair, _ = bench.solve(solver, obs, gt.rank, truth, max_iter=5, mu=8.0)
            assert pair.X.shape == (g.n1, gt.rank) and pair.Y.shape == (g.n2, gt.rank)
            assert pair.X.flags.c_contiguous and pair.Y.flags.c_contiguous

    def test_pgd_iteration_is_the_public_gradient_step_and_projection(self, small_instance):
        gt, g, obs = small_instance
        config = pgd.PgdConfig(max_iter=1, eta=0.2)
        start, znorm, clip = pgd.spectral_init(obs, gt.rank, config.mu)
        out, trace = pgd.solve(obs, gt.rank, config)
        assert trace.loss[0] == pgd.loss(start, obs, config.lam)
        step = config.eta / znorm**2
        grad = pgd.gradient(start, obs, config.lam)
        moved = pgd.FactorPair(start.X - step * grad.X, start.Y - step * grad.Y)
        expected = pgd.project_rows(moved, clip)
        assert np.array_equal(out.X, expected.X) and np.array_equal(out.Y, expected.Y)
        assert trace.loss[1] == pgd.loss(out, obs, config.lam)

    def test_scaled_iteration_is_the_public_step_and_projection(self, small_instance):
        gt, g, obs = small_instance
        config = scaled_pgd.ScaledPgdConfig(max_iter=1, mu=8.0)
        start, budget = scaled_pgd.spectral_init(obs, gt.rank, config)
        out, _ = scaled_pgd.solve(obs, gt.rank, config)
        expected = scaled_pgd.project_rows(scaled_pgd.step(start, obs, config.eta), budget)
        assert np.array_equal(out.X, expected.X) and np.array_equal(out.Y, expected.Y)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            pgd.PgdConfig(eta=0.0)
        with pytest.raises(ParameterError):
            pgd.PgdConfig(lam=-0.1)
        with pytest.raises(ParameterError):
            pgd.PgdConfig(eval_every=0)
        # a NaN mu made the clip bound NaN, so the projection never clipped
        nan, inf = float("nan"), float("inf")
        for config_cls in (pgd.PgdConfig, scaled_pgd.ScaledPgdConfig):
            for setting in ({"eta": nan}, {"eta": inf}, {"mu": -1.0}, {"mu": 0.0},
                            {"mu": nan}, {"mu": inf}, {"tol": nan}, {"tol": inf},
                            {"max_iter": 0}):
                with pytest.raises(ParameterError):
                    config_cls(**setting)

    def test_trace_indices_strictly_increasing(self):
        tr = pgd.IterationTrace()
        tr.append(0, 1.0, 0.5, float("nan"), 0.0)
        with pytest.raises(ParameterError):
            tr.append(0, 0.9, 0.4, float("nan"), 0.0)


class TestStopRule:
    """``pgd.StopRule`` on fed sequences: the divergence guard, then the rules
    in order (tol, the settled label, max-iter)."""

    nan = float("nan")

    @staticmethod
    def rule(truth=False, max_iter=1000, tol=1e-6):
        trace = pgd.IterationTrace()
        config = pgd.PgdConfig(max_iter=max_iter, tol=tol)
        return pgd.StopRule(config, truth, trace, "loss"), trace

    def feed(self, rule, values):
        for k, value in enumerate(values):
            assert rule.update(k, value, self.nan) is None

    def test_patience_rises_raise(self):
        rule, trace = self.rule()
        rises = pgd._DIVERGENCE_PATIENCE
        self.feed(rule, 1.01 ** np.arange(rises))  # one start, rises - 1 rises
        with pytest.raises(DivergenceError) as exc:
            rule.update(rises, 1.01**rises, self.nan)
        assert exc.value.trace is trace
        assert trace.meta["stop_reason"] == "diverged"

    def test_a_fall_resets_the_streak(self):
        rule, trace = self.rule()
        rises = 1.01 ** np.arange(pgd._DIVERGENCE_PATIENCE)  # 49 rises
        self.feed(rule, np.concatenate([rises, 0.5 * rises]))  # a fall, 49 more
        assert "stop_reason" not in trace.meta

    def test_rises_of_1e_10_relative_never_trip(self):
        rule, trace = self.rule()
        self.feed(rule, (1 + 1e-10) ** np.arange(10 * pgd._DIVERGENCE_PATIENCE))
        assert "stop_reason" not in trace.meta

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_raises_at_once(self, value):
        rule, trace = self.rule()
        rule.update(0, 1.0, self.nan)
        with pytest.raises(DivergenceError) as exc:
            rule.update(1, value, self.nan)
        assert exc.value.trace is trace
        assert trace.meta["stop_reason"] == "diverged"

    def test_tol_beats_a_settled_label(self):
        rule, trace = self.rule(truth=True, max_iter=3)
        assert rule.update(3, 1.0, 1e-7, "tol") == "tol"
        assert trace.meta["stop_reason"] == "tol"
        rule, trace = self.rule(truth=True)
        assert rule.update(0, 1.0, 1e-7, "stagnation") == "tol"

    def test_a_label_beats_max_iter(self):
        rule, trace = self.rule(max_iter=3)
        assert rule.update(3, 1.0, self.nan, "loss-floor") == "loss-floor"
        assert trace.meta["stop_reason"] == "loss-floor"
        rule, trace = self.rule(truth=True, max_iter=3)
        assert rule.update(3, 1.0, 1e-4, "tol") == "stall"
        assert trace.meta["stop_reason"] == "stall"

    def test_settled_within_ten_tol_goes_on(self):
        rule, trace = self.rule(truth=True, max_iter=3)
        for k in range(3):
            assert rule.update(k, 1.0, 5e-6, "tol") is None
        assert "stop_reason" not in trace.meta
        assert rule.update(3, 1.0, 5e-6, "tol") == "max-iter"
        assert trace.meta["stop_reason"] == "max-iter"
