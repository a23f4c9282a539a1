import math

import numpy as np
import pytest

from detmc import bench, metrics, pgd
from detmc.errors import ParameterError
from detmc.kernels import orthogonal_procrustes


def scalar_gauge_oracle(x, y, xs, ys, s):
    """Golden-section minimization of the r=1 gauge objective over both signs."""

    def f(q):  # q is a scalar or a column of grid points
        return (s * np.sum((x * q - xs) ** 2, axis=-1)
                + s * np.sum((y / q - ys) ** 2, axis=-1))

    gr = (math.sqrt(5) - 1) / 2
    best = math.inf
    for sign in (1.0, -1.0):
        qs = sign * np.logspace(-4, 4, 4001)
        i = int(np.argmin(f(qs[:, None])))
        a, b = qs[max(i - 1, 0)], qs[min(i + 1, len(qs) - 1)]
        if a > b:
            a, b = b, a
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(200):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = f(d)
        best = min(best, f(0.5 * (a + b)))
    return math.sqrt(best)


def perturbed_pair(gt, scale, seed):
    rng = np.random.default_rng(seed)
    return pgd.FactorPair(
        gt.left_factor + scale * rng.standard_normal(gt.left_factor.shape),
        gt.right_factor + scale * rng.standard_normal(gt.right_factor.shape),
    )


def gauge_gradient(pair, gt, Q):
    """Gradient of the weighted gauge objective, from the n x r factors."""
    S = gt.svd.S
    P = np.linalg.inv(Q).T
    Gx = 2.0 * pair.X.T @ ((pair.X @ Q - gt.left_factor) * S)
    Gy = 2.0 * pair.Y.T @ ((pair.Y @ P - gt.right_factor) * S)
    return Gx - P @ Gy.T @ P


def direct_gauge_residuals(pair, gt, Q):
    w = np.sqrt(gt.svd.S)
    rx = np.linalg.norm((pair.X @ Q - gt.left_factor) * w)
    ry = np.linalg.norm((pair.Y @ np.linalg.inv(Q).T - gt.right_factor) * w)
    return rx, ry


class TestRotationDistance:
    def test_exact(self):
        gt = bench.synthetic_low_rank(12, 9, 3, 2.0, seed=0)
        pair = pgd.FactorPair(gt.left_factor, gt.right_factor)
        res = metrics.rotation_distance(pair, gt)
        assert res.distance <= 1e-10
        assert np.allclose(res.Q, np.eye(3), atol=1e-8)

    def test_rotated_orbit_point(self):
        gt = bench.synthetic_low_rank(12, 9, 3, 2.0, seed=1)
        R0 = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0]
        pair = pgd.FactorPair(gt.left_factor @ R0, gt.right_factor @ R0)
        assert metrics.rotation_distance(pair, gt).distance <= 1e-10

    def test_scalar_doubling(self):
        gt = bench.synthetic_low_rank(8, 8, 1, 1.0, seed=3)
        pair = pgd.FactorPair(2.0 * gt.left_factor, 2.0 * gt.right_factor)
        res = metrics.rotation_distance(pair, gt)
        znorm = np.linalg.norm(gt.stacked_factor)
        assert res.distance == pytest.approx(znorm, rel=1e-10)

    def test_invariant_under_rotating_query(self):
        gt = bench.synthetic_low_rank(15, 11, 3, 3.0, seed=4)
        pair = perturbed_pair(gt, 0.1, seed=5)
        R0 = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]
        rotated = pgd.FactorPair(pair.X @ R0, pair.Y @ R0)
        d1 = metrics.rotation_distance(pair, gt).distance
        d2 = metrics.rotation_distance(rotated, gt).distance
        assert abs(d1 - d2) <= 1e-10 * max(d1, 1.0)

    def test_aligned_residual_consistency(self):
        gt = bench.synthetic_low_rank(10, 10, 2, 2.0, seed=7)
        pair = perturbed_pair(gt, 0.05, seed=8)
        res = metrics.rotation_distance(pair, gt)
        assert np.linalg.norm(res.H) == pytest.approx(res.distance, rel=1e-12)


    def test_shape_mismatch(self):
        gt = bench.synthetic_low_rank(10, 8, 2, 2.0, seed=9)
        pair = pgd.FactorPair(gt.left_factor[:9], gt.right_factor)
        with pytest.raises(ParameterError, match=r"^shape mismatch: \(17, 2\) vs \(18, 2\)$"):
            metrics.rotation_distance(pair, gt)


class TestGaugeDistance:
    def test_exact(self):
        gt = bench.synthetic_low_rank(14, 10, 3, 2.0, seed=9)
        pair = pgd.FactorPair(gt.left_factor, gt.right_factor)
        res = metrics.gauge_distance(pair, gt)
        assert res.distance <= 1e-10
        assert np.allclose(res.Q, np.eye(3), atol=1e-6)
        assert res.converged

    def test_diagonal_gauge_invariance(self):
        gt = bench.synthetic_low_rank(14, 10, 3, 5.0, seed=10)
        c = 2.0
        pair = pgd.FactorPair(c * gt.left_factor, gt.right_factor / c)
        res = metrics.gauge_distance(pair, gt)
        assert res.distance <= 1e-10
        assert np.allclose(res.Q, np.eye(3) / c, atol=1e-8)

    def test_scalar_matches_golden_section_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            gt = bench.synthetic_low_rank(6, 5, 1, 1.0, seed=100 + trial)
            pair = perturbed_pair(gt, 0.3 * rng.random() + 0.05, seed=200 + trial)
            res = metrics.gauge_distance(pair, gt)
            oracle = scalar_gauge_oracle(
                pair.X[:, 0], pair.Y[:, 0],
                gt.left_factor[:, 0], gt.right_factor[:, 0],
                float(gt.svd.S[0]),
            )
            assert res.distance == pytest.approx(oracle, abs=1e-8, rel=1e-8)

    def test_invariant_under_gauge_of_query(self):
        gt = bench.synthetic_low_rank(16, 12, 3, 3.0, seed=12)
        pair = perturbed_pair(gt, 0.05, seed=13)
        Q0 = np.eye(3) + 0.3 * np.random.default_rng(14).standard_normal((3, 3))
        gauged = pgd.FactorPair(pair.X @ Q0, pair.Y @ np.linalg.inv(Q0).T)
        d1 = metrics.gauge_distance(pair, gt).distance
        d2 = metrics.gauge_distance(gauged, gt).distance
        assert abs(d1 - d2) <= 1e-8 * max(d1, 1.0)

    def test_stationarity_of_reported_gauge(self):
        gt = bench.synthetic_low_rank(12, 12, 3, 4.0, seed=15)
        cases = [(gt, perturbed_pair(gt, 0.08, seed=16))]
        # far outside the basin the residual at the minimum is large, and
        # Gauss-Newton steps alone do not reach the bound in 200 steps
        gt = bench.synthetic_low_rank(30, 30, 3, 5.0, seed=31)
        cases.append((gt, perturbed_pair(gt, 0.7, seed=33)))
        # ten gauged perturbations of a kappa=5 truth at 1-30% of sigma_r
        gt = bench.synthetic_low_rank(40, 40, 2, 5.0, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            dX = rng.standard_normal(gt.left_factor.shape)
            dY = rng.standard_normal(gt.right_factor.shape)
            eps = rng.uniform(0.01, 0.3) * gt.sigma_r / math.sqrt(
                float((dX**2).sum() + (dY**2).sum()))
            Q0 = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
            cases.append((gt, pgd.FactorPair(
                (gt.left_factor + eps * dX) @ Q0,
                (gt.right_factor + eps * dY) @ np.linalg.inv(Q0).T)))
        for gt, pair in cases:
            res = metrics.gauge_distance(pair, gt)
            assert res.converged
            scale = 2.0 * gt.svd.S[0] * max(
                np.linalg.norm(a) ** 2
                for a in (pair.X, pair.Y, gt.left_factor, gt.right_factor))
            g = gauge_gradient(pair, gt, res.Q)
            assert np.linalg.norm(g) <= 1e-8 * scale

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_small_distance_measured_on_the_factors(self, eps):
        # an expanded Gram form of the objective cancels below sqrt(eps) of
        # the factor scale; the reported numbers must be the n x r residuals
        gt = bench.synthetic_low_rank(60, 50, 3, 5.0, seed=1)
        pair = perturbed_pair(gt, eps, seed=2)
        res = metrics.gauge_distance(pair, gt)
        assert res.converged
        rx, ry = direct_gauge_residuals(pair, gt, res.Q)
        assert res.distance == pytest.approx(math.hypot(rx, ry), rel=1e-12)
        R, _ = orthogonal_procrustes(np.vstack([pair.X, pair.Y]), gt.stacked_factor)
        assert res.distance <= math.hypot(*direct_gauge_residuals(pair, gt, R.T))
        if eps == 1e-12:
            assert res.distance < 1e-10

    @pytest.mark.parametrize("stall", ["no-steps", "singular"])
    def test_unconverged_solve_reports_the_warm_start(self, monkeypatch, stall):
        gt = bench.synthetic_low_rank(12, 12, 3, 4.0, seed=15)
        pair = perturbed_pair(gt, 0.08, seed=16)
        if stall == "no-steps":
            monkeypatch.setattr(metrics, "_NEWTON_STEPS", 0)
        else:
            def singular(*args):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        res = metrics.gauge_distance(pair, gt)
        R, _ = orthogonal_procrustes(np.vstack([pair.X, pair.Y]), gt.stacked_factor)
        assert not res.converged
        assert np.array_equal(res.Q, R.T)
        rx, ry = direct_gauge_residuals(pair, gt, R.T)
        assert res.distance == pytest.approx(math.hypot(rx, ry), rel=1e-12)

    def test_dominated_by_rotation_distance_for_flat_spectrum(self):
        # with all target singular values equal the weighting is a constant
        # multiple, so the gauge minimum cannot exceed the rotation minimum
        for trial in range(5):
            gt = bench.synthetic_low_rank(12, 10, 3, 1.0, seed=300 + trial)
            pair = perturbed_pair(gt, 0.1, seed=400 + trial)
            d_rot = metrics.rotation_distance(pair, gt).distance
            d_gl = metrics.gauge_distance(pair, gt).distance
            assert d_gl <= d_rot + 1e-9

    def test_residual_components(self):
        # the distance joins the X and Y residuals at the reported gauge
        gt = bench.synthetic_low_rank(10, 8, 2, 2.0, seed=17)
        pair = perturbed_pair(gt, 0.05, seed=18)
        res = metrics.gauge_distance(pair, gt)
        assert res.distance == pytest.approx(
            math.hypot(*direct_gauge_residuals(pair, gt, res.Q)), rel=1e-12
        )


class TestRelativeError:
    def test_exact_factors(self):
        gt = bench.synthetic_low_rank(20, 20, 3, 2.0, seed=19)
        assert metrics.relative_error(gt.left_factor, gt.right_factor, gt) <= 1e-12

    def test_zero_factors(self):
        gt = bench.synthetic_low_rank(20, 20, 3, 2.0, seed=20)
        X = np.zeros_like(gt.left_factor)
        Y = np.zeros_like(gt.right_factor)
        assert metrics.relative_error(X, Y, gt) == pytest.approx(1.0)

    def test_perturbation_matches_dense_oracle(self):
        gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=21)
        rng = np.random.default_rng(22)
        X = gt.left_factor + 1e-3 * rng.standard_normal(gt.left_factor.shape)
        Y = gt.right_factor + 1e-3 * rng.standard_normal(gt.right_factor.shape)
        val = metrics.relative_error(X, Y, gt)
        dense = np.linalg.norm(X @ Y.T - gt.matrix) / np.linalg.norm(gt.matrix)
        assert val == pytest.approx(dense, rel=1e-12)
        assert 1e-4 < val < 1e-2  # first-order in the perturbation size

    def test_blocked_matches_dense(self):
        gt = bench.synthetic_low_rank(600, 40, 2, 3.0, seed=23)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((600, 2))
        Y = rng.standard_normal((40, 2))
        dense = np.linalg.norm(X @ Y.T - gt.matrix) / np.linalg.norm(gt.matrix)
        assert metrics.relative_error(X, Y, gt) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("err", [1e-1, 1e-6, 1e-9])
    def test_factored_form_matches_dense_recompute(self, err):
        # Both values carry an absolute rounding error of a few eps * ||M||,
        # so they can differ by about eps / err relative.  The largest gap
        # measured on shapes up to 1092 x 1092 was 2 * eps / err.
        gt = bench.synthetic_low_rank(300, 200, 3, 4.0, seed=25)
        rng = np.random.default_rng(26)
        X, Y = gt.left_factor, gt.right_factor
        DX = rng.standard_normal(X.shape)
        DY = rng.standard_normal(Y.shape)
        X = X + err * DX * (np.linalg.norm(X) / np.linalg.norm(DX))
        Y = Y + err * DY * (np.linalg.norm(Y) / np.linalg.norm(DY))
        val = metrics.relative_error(X, Y, gt)
        dense = np.linalg.norm(X @ Y.T - gt.matrix) / np.linalg.norm(gt.matrix)
        assert 0.1 * err < dense < 10 * err
        assert val == pytest.approx(dense, rel=100 * np.finfo(float).eps / err)


class TestFitLinearRate:
    def test_exact_geometric(self):
        errors = 0.9 ** np.arange(40)
        assert metrics.fit_linear_rate(errors) == pytest.approx(0.9, abs=1e-6)

    def test_constant_sequence(self):
        assert metrics.fit_linear_rate(np.ones(10)) == pytest.approx(1.0)

    def test_noisy_geometric(self):
        k = np.arange(60)
        errors = 3.0 * 0.8**k + 1e-12
        assert metrics.fit_linear_rate(errors[:35]) == pytest.approx(0.8, abs=1e-3)

    def test_window_selects_tail(self):
        errors = np.concatenate([np.ones(20), 0.5 ** np.arange(20)])
        assert metrics.fit_linear_rate(errors[-15:]) == pytest.approx(0.5, abs=1e-6)

    def test_errors(self):
        with pytest.raises(ParameterError):
            metrics.fit_linear_rate([1.0, 0.5, 0.25])
        with pytest.raises(ParameterError):
            metrics.fit_linear_rate([1.0, 0.5, 0.0, 0.25, 0.125])
