"""Scaled projected gradient descent on the unregularized factored loss.

Gradient steps are right-preconditioned by the inverses of the opposite
factor's Gram matrix, which removes the condition-number dependence of
the convergence rate.  The projection rescales rows whose contribution to
the product exceeds an incoherence budget, using the closed form evaluated
against the pre-projection co-factor.

``solve`` runs the loop shared with the unscaled solver, ``pgd.iterate``;
``bench.solve`` runs any solver by name.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import ParameterError
from .pgd import FactorPair, IterationTrace, iterate
from .sampling import observed_residual, rescaled_top_svd

_ETA_CAP = 0.145


@dataclass
class ScaledPgdConfig:
    eta: float = 0.145
    alpha: float = 0.1
    mu: float = 2.0
    budget: float | None = None  # B = (1+alpha)*sqrt(mu*r)*sigma1 when None
    max_iter: int = 2000
    tol: float = 1e-6
    pinv_threshold: float = 1e-12
    allow_large_eta: bool = False
    use_oracle_sigma1: bool = False
    log_dist: bool = False
    eval_every: int = 1  # ground-truth metrics logged every k-th iteration
    stall_window: int = 0  # iterations; >0 stops runs making no headway

    def __post_init__(self):
        if self.eta <= 0:
            raise ParameterError("eta must be positive")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be at least 1")
        if self.eta > _ETA_CAP and not self.allow_large_eta:
            raise ParameterError(
                f"eta={self.eta} exceeds {_ETA_CAP}; pass allow_large_eta=True to override"
            )


def project_rows(pair, budget):
    """Closed-form projection onto the product-incoherence constraint.

    Row i of X is rescaled by min(1, B / (sqrt(n1) * ||X_i @ Y.T||)), with
    the row-product norms computed against the input co-factor through the
    r x r Gram matrix (O(n r^2), no n1 x n2 product).  Same rule for Y.
    """
    if budget <= 0:
        raise ParameterError("incoherence budget must be positive")
    return FactorPair(*_scale_rows(pair.X, pair.Y, budget))


def _scale_rows(X, Y, budget):
    n1, n2 = X.shape[0], Y.shape[0]
    gy = Y.T @ Y
    gx = X.T @ X
    xprod = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", X, gy, X), 0.0))
    yprod = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", Y, gx, Y), 0.0))
    with np.errstate(divide="ignore"):
        sx = np.minimum(1.0, budget / (np.sqrt(n1) * xprod))
        sy = np.minimum(1.0, budget / (np.sqrt(n2) * yprod))
    return X * sx[:, None], Y * sy[:, None]


def _resolve_budget(config, tsvd, gt):
    if config.budget is not None:
        return config.budget
    if config.use_oracle_sigma1 and gt is not None:
        sigma1 = gt.sigma1
        mu = gt.coherence_mu
        r = gt.rank
    else:
        sigma1 = float(tsvd.S[0])
        mu = gt.coherence_mu if gt is not None else config.mu
        r = tsvd.S.size
    return (1.0 + config.alpha) * np.sqrt(mu * r) * sigma1


def spectral_init(obs, r, config=None, gt=None):
    """Projected balanced square-root factors of the rescaled observation."""
    config = config or ScaledPgdConfig()
    n1, n2 = obs.shape
    if r > min(n1, n2):
        raise ParameterError(f"rank {r} exceeds min dimension {min(n1, n2)}")
    tsvd = rescaled_top_svd(obs, r)
    sq = np.sqrt(tsvd.S)
    pair = FactorPair(tsvd.U * sq, tsvd.V * sq)
    budget = _resolve_budget(config, tsvd, gt)
    if np.isinf(budget):
        return pair, budget
    return project_rows(pair, budget), budget


def _pinv_gram(G, threshold):
    """Generalized inverse of a symmetric PSD Gram matrix."""
    w, V = np.linalg.eigh(G)
    cutoff = threshold * max(w[-1], 0.0)
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (V * inv_w) @ V.T


def step(pair, obs, eta, pinv_threshold=1e-12):
    """One preconditioned gradient step; both blocks use the same residual."""
    K = observed_residual(pair.X, pair.Y, obs)
    return FactorPair(*_step_from_residual(K, pair.X, pair.Y, obs, eta, pinv_threshold))


def _step_from_residual(K, X, Y, obs, eta, pinv_threshold):
    gy_inv = _pinv_gram(Y.T @ Y, pinv_threshold)
    gx_inv = _pinv_gram(X.T @ X, pinv_threshold)
    Xn = X - (eta / obs.rate) * ((K @ Y) @ gy_inv)
    Yn = Y - (eta / obs.rate) * ((K.T @ X) @ gx_inv)
    return Xn, Yn


def solve(obs, r, config=None, gt=None):
    """Run scaled projected gradient descent; mirrors ``pgd.solve``."""
    config = config or ScaledPgdConfig()

    t0 = time.perf_counter()
    pair, budget = spectral_init(obs, r, config, gt=gt)
    init_seconds = time.perf_counter() - t0

    trace = IterationTrace(meta={
        "solver": "scaled-pgd", "eta": config.eta, "budget": budget,
    })

    def objective(X, Y):
        K = observed_residual(X, Y, obs)
        return 0.5 * float((K.data**2).sum()) / obs.rate, K

    def advance(X, Y, K):
        X, Y = _step_from_residual(K, X, Y, obs, config.eta, config.pinv_threshold)
        return (X, Y) if np.isinf(budget) else _scale_rows(X, Y, budget)

    return iterate(pair, objective, advance, metrics.gauge_distance, config, gt,
                   trace, init_seconds)
