"""Alignment-aware error metrics for factored iterates.

Two distances to the ground-truth factors are provided: one minimizing
over orthogonal rotations of the stacked factor (used by the unscaled
solver's analysis), and one minimizing over all invertible r x r gauges
with the two sides weighted by the square root of the target spectrum
(used by the scaled solver's analysis).  The gauge distance has no closed
form; it is minimized over the gauge matrix with a rotation warm start,
an L-BFGS descent phase, and a damped-Newton polish to push the gradient
to stationarity.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import AlignmentError, ParameterError
from .kernels import orthogonal_procrustes

_GAUGE_GRAD_TOL = 1e-8
_MAX_INNER = 10_000


@dataclass
class AlignmentResult:
    kind: str  # "orthogonal" | "general-linear"
    Q: np.ndarray
    distance: float
    residual_X: float | None = None
    residual_Y: float | None = None
    H: np.ndarray | None = None  # aligned residual (orthogonal kind)
    converged: bool = True


def rotation_distance(pair, gt):
    """Distance to the solution orbit over orthogonal rotations.

    Stacks the factors, solves the Procrustes problem against the stacked
    ground-truth factor, and returns the rotation, the attained distance,
    and the aligned residual.
    """
    Z = np.vstack([pair.X, pair.Y])
    Zstar = gt.stacked_factor
    if Z.shape != Zstar.shape:
        raise ParameterError(f"shape mismatch: {Z.shape} vs {Zstar.shape}")
    R, residual = orthogonal_procrustes(Z, Zstar)
    return AlignmentResult(
        kind="orthogonal", Q=R, distance=residual, H=Z - Zstar @ R
    )


class _GaugeObjective:
    """Weighted two-sided alignment objective over invertible gauges.

    All evaluations run on r x r Gram matrices, so the cost per iterate is
    independent of the ambient dimensions.
    """

    def __init__(self, pair, gt):
        W2 = gt.svd.S.copy()  # weights squared
        self.W2 = W2
        self.r = W2.size
        X, Y = pair.X, pair.Y
        self.Ax = X.T @ X
        self.Bx = X.T @ gt.left_factor
        self.Cx = gt.left_factor.T @ gt.left_factor
        self.Ay = Y.T @ Y
        self.By = Y.T @ gt.right_factor
        self.Cy = gt.right_factor.T @ gt.right_factor
        self.grad_scale = float(
            2.0 * W2[0] * max(
                np.trace(self.Ax), np.trace(self.Ay),
                np.trace(self.Cx), np.trace(self.Cy), 1e-300,
            )
        )

    def _halves(self, Q):
        P = np.linalg.inv(Q).T
        rx = Q.T @ self.Ax @ Q - Q.T @ self.Bx - self.Bx.T @ Q + self.Cx
        ry = P.T @ self.Ay @ P - P.T @ self.By - self.By.T @ P + self.Cy
        fx = float((np.diag(rx) * self.W2).sum())
        fy = float((np.diag(ry) * self.W2).sum())
        return P, max(fx, 0.0), max(fy, 0.0)

    def value(self, Q):
        _, fx, fy = self._halves(Q)
        return fx + fy

    def value_grad(self, q):
        Q = q.reshape(self.r, self.r)
        sign, logdet = np.linalg.slogdet(Q)
        if sign == 0 or logdet < -200:
            return 1e30, np.zeros(self.r * self.r)
        P, fx, fy = self._halves(Q)
        Gx = 2.0 * ((self.Ax @ Q - self.Bx) * self.W2)
        inner = (self.Ay @ P - self.By) * self.W2  # Y'(Y Q^-T - Y*) W^2
        Gy = -2.0 * (P @ inner.T @ P)
        return fx + fy, (Gx + Gy).ravel()

    def newton_polish(self, Q, tol, max_iter=60):
        """Damped Newton on the gauge, Hessian by differencing the gradient."""
        r2 = self.r * self.r
        q = Q.ravel().copy()
        f, g = self.value_grad(q)
        for _ in range(max_iter):
            if np.linalg.norm(g) <= tol:
                break
            H = np.empty((r2, r2))
            h = 1e-7 * max(np.linalg.norm(q) / max(self.r, 1), 1e-8)
            for j in range(r2):
                qp = q.copy()
                qp[j] += h
                qm = q.copy()
                qm[j] -= h
                H[:, j] = (self.value_grad(qp)[1] - self.value_grad(qm)[1]) / (2 * h)
            H = 0.5 * (H + H.T)
            lam = 1e-12 * max(np.abs(np.diag(H)).max(), 1.0)
            for _ in range(40):
                try:
                    step = np.linalg.solve(H + lam * np.eye(r2), -g)
                except np.linalg.LinAlgError:
                    lam *= 10
                    continue
                fn, gn = self.value_grad(q + step)
                if fn <= f + 1e-12 * abs(f):
                    q, f, g = q + step, fn, gn
                    break
                lam *= 10
            else:
                break
        return q.reshape(self.r, self.r), f, g


def gauge_distance(pair, gt, fallback=True):
    """Distance over invertible gauges, weighted by sqrt of the target spectrum.

    Minimizes ``||(X Q - X*) W||_F^2 + ||(Y Q^-T - Y*) W||_F^2`` over
    invertible ``Q``, with ``W`` the square root of the target singular
    values.  A finite minimizer is guaranteed only near the solution set;
    if the inner solver fails to reach stationarity the rotation warm
    start is reported instead, flagged via ``converged=False`` (or an
    ``AlignmentError`` is raised when ``fallback`` is off).
    """
    obj = _GaugeObjective(pair, gt)
    R, _ = orthogonal_procrustes(np.vstack([pair.X, pair.Y]), gt.stacked_factor)
    # minimize over Q with the rotation transferred to the gauge side:
    # stacked Procrustes aligns Z ~ Z* R, i.e. X R^T ~ X*, so Q0 = R^T.
    q0 = R.T.ravel().copy()
    tol = _GAUGE_GRAD_TOL * obj.grad_scale

    res = scipy.optimize.minimize(
        obj.value_grad,
        q0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": _MAX_INNER, "maxfun": 2 * _MAX_INNER,
                 "ftol": 1e-18, "gtol": 1e-2 * tol},
    )
    Q, f, g = obj.newton_polish(res.x.reshape(obj.r, obj.r), tol=1e-5 * tol)

    if np.linalg.norm(g) > tol or not np.isfinite(f):
        if not fallback:
            raise AlignmentError(
                f"gauge alignment stalled at gradient norm {np.linalg.norm(g):.2e}"
            )
        Q = R.T
        f = obj.value(Q)
        converged = False
    else:
        converged = True

    _, fx, fy = obj._halves(Q)
    return AlignmentResult(
        kind="general-linear",
        Q=Q,
        distance=float(np.sqrt(max(fx + fy, 0.0))),
        residual_X=float(np.sqrt(fx)),
        residual_Y=float(np.sqrt(fy)),
        converged=converged,
    )


def relative_error(X, Y, gt):
    """``||X @ Y.T - U S V.T||_F / ||S||_2`` against ``gt.svd`` in factored form.

    ``X @ Y.T - U S V.T = [X, -U S] @ [Y, V].T``; with ``R_a`` and ``R_b``
    the R factors of those two stacked matrices, the numerator equals
    ``||R_a @ R_b.T||_F``.  The cost is O((n1 + n2) r^2) and no n1 x n2
    product is formed.  The reference is the ground truth's SVD, not
    ``gt.matrix``: the two differ by at most 1e-10 relative when the truth
    came from ``sampling.ground_truth``.
    """
    svd = gt.svd
    denom = np.linalg.norm(svd.S)
    if denom == 0:
        raise ParameterError("ground-truth matrix is zero")
    Ra = np.linalg.qr(np.hstack([X, -(svd.U * svd.S)]), mode="r")
    Rb = np.linalg.qr(np.hstack([Y, svd.V]), mode="r")
    return float(np.linalg.norm(Ra @ Rb.T)) / denom


def relative_error_dense(Mhat, gt):
    """``||Mhat - M*||_F / ||M*||_F`` for a dense estimate."""
    denom = np.linalg.norm(gt.matrix)
    if denom == 0:
        raise ParameterError("ground-truth matrix is zero")
    return float(np.linalg.norm(Mhat - gt.matrix)) / denom


def fit_linear_rate(trace_or_errors, window=None):
    """Per-iteration geometric factor fitted to a positive error sequence.

    Least-squares slope of log(error) against iteration index over the
    requested window (an int selects that many trailing points), clamped
    into (0, 1].
    """
    errors = getattr(trace_or_errors, "rel_error", trace_or_errors)
    errors = np.asarray(errors, dtype=np.float64)
    if window is not None:
        errors = errors[-int(window):]
    if errors.size < 5:
        raise ParameterError("need at least 5 points to fit a rate")
    if np.any(errors <= 0):
        raise ParameterError("errors in the fit window must be positive")
    k = np.arange(errors.size)
    slope = np.polyfit(k, np.log(errors), 1)[0]
    return float(min(np.exp(slope), 1.0))
