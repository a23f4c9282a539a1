"""Scaled projected gradient descent on the unregularized factored loss.

Gradient steps are right-preconditioned by the inverses of the opposite
factor's Gram matrix, which removes the condition-number dependence of
the convergence rate.  The projection rescales rows whose contribution to
the product exceeds an incoherence budget, using the closed form evaluated
against the pre-projection co-factor; ``pgd._row_norms`` measures each
row's product, with unscaled PGD's rescue for rows whose squares overflow.
The analysis fixes both the budget
(``incoherence_budget``) and the step cap ``eta <= _ETA_CAP``; neither is
a setting: ``ScaledPgdConfig`` is ``PgdConfig`` with the scaled step's
default, the cap itself, a refusal of any ``eta`` above it, and its own
blind ``mu`` default.

``solve`` runs the loop shared with the unscaled solver, ``pgd.iterate``,
on r-major factors (see ``pgd``); the public ``project_rows`` runs the
loop's projection on a ``FactorPair``.  ``bench.solve`` runs any solver
by name.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .pgd import FactorPair, PgdConfig, _row_norms, iterate
from .sampling import observed_residual, rescaled_top_svd, residual_products

_ETA_CAP = 0.145
ALPHA = 0.1  # budget slack: B = (1 + ALPHA) sqrt(mu r) sigma1
PINV_THRESHOLD = 1e-12  # Gram eigenvalues below this times the largest are dropped


@dataclass
class ScaledPgdConfig(PgdConfig):
    """``PgdConfig`` whose step defaults to, and may not exceed, ``_ETA_CAP``."""

    eta: float = _ETA_CAP
    mu: float = 8.0  # at PgdConfig's 2 the budget over-clips blind runs

    def __post_init__(self):
        super().__post_init__()
        if self.eta > _ETA_CAP:
            raise ParameterError(f"eta={self.eta} exceeds the step cap {_ETA_CAP}")


def project_rows(pair, budget):
    """Closed-form projection onto the product-incoherence constraint.

    Row i of X is rescaled by min(1, B / (sqrt(n1) * ||X_i @ Y.T||)), with
    the row-product norms measured against the input co-factor by
    ``pgd._row_norms`` (O(n r^2), no n1 x n2 product).  Same rule for Y.
    """
    if not budget > 0:
        raise ParameterError("incoherence budget must be positive")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return FactorPair.from_r_major(*_scale_rows(*pair.r_major(), budget))


def _scale_rows(Xt, Yt, budget):
    """``project_rows`` on r-major factors; both sides see the input co-factor."""
    def scaled(At, Bt):
        return At * np.minimum(1.0, budget / (math.sqrt(At.shape[1]) * _row_norms(At, Bt)))
    return scaled(Xt, Yt), scaled(Yt, Xt)


def incoherence_budget(mu, r, sigma1):
    """The projection's budget B = (1 + ALPHA) sqrt(mu r) sigma1."""
    return (1.0 + ALPHA) * math.sqrt(mu * r) * sigma1


def spectral_init(obs, r, mu):
    """Projected balanced square-root factors of the rescaled observation,
    and the budget at incoherence ``mu``."""
    tsvd = rescaled_top_svd(obs, r)
    sq = np.sqrt(tsvd.S)
    pair = FactorPair(tsvd.U * sq, tsvd.V * sq)
    budget = incoherence_budget(mu, tsvd.S.size, float(tsvd.S[0]))
    return project_rows(pair, budget), budget


def _pinv_gram(G):
    """Generalized inverse of a symmetric PSD Gram matrix."""
    w, V = np.linalg.eigh(G)
    cutoff = PINV_THRESHOLD * max(w[-1], 0.0)
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (V * inv_w) @ V.T


def _preconditioned(Xt, Yt, K):
    """r-major ``(K @ Y) @ pinv(Y'Y)`` and ``(K' @ X) @ pinv(X'X)``: the scaled
    step's directions, times ``obs.rate``, at ``(Xt, Yt)`` with residual ``K``."""
    KY, KtX = residual_products(K, Xt, Yt)
    return _pinv_gram(Yt @ Yt.T).T @ KY, _pinv_gram(Xt @ Xt.T).T @ KtX


def _step(Xt, Yt, K, obs, eta):
    """One preconditioned gradient step on r-major ``(Xt, Yt)``; both blocks
    use the same residual ``K``."""
    PX, PY = _preconditioned(Xt, Yt, K)
    return Xt - (eta / obs.rate) * PX, Yt - (eta / obs.rate) * PY


def _objective(Xt, Yt, obs, out):
    """Half the rescaled squared residual at r-major factors, and ``out`` refilled with it."""
    K = observed_residual(Xt.T, Yt.T, obs, out=out)
    return 0.5 * float((K.data**2).sum()) / obs.rate, K


def solve(obs, r, config=None, gt=None):
    """Run scaled projected gradient descent; mirrors ``pgd.solve``."""
    config = config or ScaledPgdConfig()
    mu = gt.coherence_mu if gt is not None else config.mu

    t0 = time.perf_counter()
    pair, budget = spectral_init(obs, r, mu)

    def advance(Xt, Yt, K):
        return _scale_rows(*_step(Xt, Yt, K, obs, config.eta), budget)

    meta = {"solver": "scaled-pgd", "eta": config.eta, "budget": budget}
    return iterate(obs, pair, _objective, advance, config, gt, meta, t0)
