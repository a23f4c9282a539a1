"""Alignment-aware error metrics for factored iterates.

Two distances to the ground-truth factors are provided: one minimizing
over orthogonal rotations of the stacked factor (used by the unscaled
solver's analysis), and one minimizing over all invertible r x r gauges
with the two sides weighted by the square root of the target spectrum
(used by the scaled solver's analysis).  The gauge distance has no closed
form; it is minimized over the gauge matrix by one Newton solve on the
n x r factor residuals, from a rotation warm start, until the gradient
is stationary.  Its cost is linear in n1 + n2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .kernels import orthogonal_procrustes

_GAUGE_GRAD_TOL = 1e-8
_NEWTON_STEPS = 200


@dataclass
class AlignmentResult:
    Q: np.ndarray
    distance: float
    H: np.ndarray | None = None  # aligned residual (rotation_distance only)
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
    return AlignmentResult(Q=R, distance=residual, H=Z - Zstar @ R)


def gauge_distance(pair, gt):
    """Distance over invertible gauges, weighted by sqrt of the target spectrum.

    Minimizes ``||(X Q - X*) W||_F^2 + ||(Y Q^-T - Y*) W||_F^2`` over
    invertible ``Q``, with ``W`` the square root of the target singular
    values, by Newton steps on the two n x r residuals from a rotation
    warm start.  The Newton matrix comes from r x r Grams, so a step costs
    O((n1 + n2) r^2 + r^6); the distance is measured on the residuals
    themselves, so it stays accurate down to rounding of the factors.
    ``converged`` means the objective's gradient is at most
    ``_GAUGE_GRAD_TOL`` times
    ``2 S[0] max(||X||_F^2, ||Y||_F^2, ||X*||_F^2, ||Y*||_F^2)``.  A
    finite minimizer is guaranteed only near the solution set; if the
    solve does not reach that bound, or meets a singular gauge, the
    rotation warm start is reported instead, flagged via
    ``converged=False``.  The result carries ``Q``, the distance (the
    root sum of squares of the two weighted residuals) and ``converged``.
    """
    X, Y = pair.X, pair.Y
    Xs, Ys = gt.left_factor, gt.right_factor
    S = gt.svd.S
    w = np.sqrt(S)
    r = w.size
    scale = 2.0 * S[0] * max(
        float((X * X).sum()), float((Y * Y).sum()),
        float((Xs * Xs).sum()), float((Ys * Ys).sum()), 1e-300,
    )
    tol = _GAUGE_GRAD_TOL * scale

    def residuals(Q):
        P = np.linalg.inv(Q).T
        return P, (X @ Q - Xs) * w, (Y @ P - Ys) * w

    def size(Q):
        _, Ex, Ey = residuals(Q)
        return np.hypot(np.linalg.norm(Ex), np.linalg.norm(Ey))

    # stacked Procrustes aligns Z ~ Z* R, i.e. X R^T ~ X*, so Q0 = R^T.
    R, _ = orthogonal_procrustes(np.vstack([X, Y]), gt.stacked_factor)
    # derivatives in row-major vec(Q); the X residual is linear in Q, and
    # the Y block of J^T J is a Kronecker product in transposed vec order
    JxtJx = np.kron(X.T @ X, np.diag(S))
    YtY = Y.T @ Y
    swap = np.arange(r * r).reshape(r, r).T.ravel()
    Q = R.T
    try:
        for k in range(_NEWTON_STEPS + 1):
            P, Ex, Ey = residuals(Q)
            M = P.T @ (Y.T @ (Ey * w)) @ P.T
            Jtf = (X.T @ (Ex * w)).ravel() - M.T.ravel()
            gnorm = 2.0 * np.linalg.norm(Jtf)
            # the value cannot resolve the optimum below sqrt(eps), so the
            # stop is on the gradient; written so that NaN stops too
            if not gnorm > 1e-5 * tol or k == _NEWTON_STEPS:
                break
            # Hessian / 2 = J^T J + <Ey, Y d2P W>, where the second derivative
            # of P = Q^-T along (A, B) is P A^T P B^T P + P B^T P A^T P.
            # Gauss-Newton alone (J^T J) converges only linearly when the
            # minimum's residual is large, as it is outside the basin.
            T = np.einsum("jk,il->ijkl", M, P).reshape(r * r, r * r)
            Pw = P * w
            JtJ = JxtJx + np.kron(P.T @ YtY @ P, Pw @ Pw.T)[np.ix_(swap, swap)]
            H = JtJ + T + T.T
            if not np.linalg.eigvalsh(H)[0] > 0:
                H = JtJ
            step = np.linalg.solve(H, -Jtf).reshape(r, r)
            bound = (1.0 + 1e-12) * np.hypot(np.linalg.norm(Ex), np.linalg.norm(Ey))
            while not size(Q + step) <= bound:
                step = 0.5 * step
            if np.array_equal(Q + step, Q):
                break
            Q = Q + step
    except np.linalg.LinAlgError:
        gnorm = np.nan
    converged = bool(gnorm <= tol)

    if not converged:
        Q = R.T
        _, Ex, Ey = residuals(Q)
    fx, fy = float((Ex * Ex).sum()), float((Ey * Ey).sum())
    return AlignmentResult(Q=Q, distance=float(np.sqrt(fx + fy)), converged=converged)


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


def fit_linear_rate(errors):
    """Per-iteration geometric factor fitted to a positive error sequence.

    Least-squares slope of log(error) against iteration index, clamped
    into (0, 1].
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size < 5:
        raise ParameterError("need at least 5 points to fit a rate")
    if np.any(errors <= 0):
        raise ParameterError("errors in the fit window must be positive")
    k = np.arange(errors.size)
    slope = np.polyfit(k, np.log(errors), 1)[0]
    return float(min(np.exp(slope), 1.0))
