"""Projected gradient descent on the balanced factored least-squares loss.

The iterate is the factor pair (X, Y); the loss charges the squared
residual on the observed entries (rescaled by the sampling rate) plus a
balancing penalty on X'X - Y'Y.  Rows of the stacked factor are clipped
to an incoherence bound derived from the spectral initialization.

``iterate`` is the outer loop of both factored solvers (this one and
``scaled_pgd``): timing, the trace, the divergence guards and the stop
rules live there, and each ``solve`` supplies only its loss, step and
projection.  ``bench.solve`` runs any solver by name.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import DivergenceError, ParameterError
from .kernels import operator_norm
from .sampling import observed_residual, rescaled_top_svd

_DIVERGENCE_PATIENCE = 50
_LOSS_STALL_REL = 1e-12
_LOSS_FLOOR_REL = 1e-24


@dataclass
class FactorPair:
    """Left and right factors of a candidate X @ Y.T."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.X.ndim != 2 or self.Y.ndim != 2 or self.X.shape[1] != self.Y.shape[1]:
            raise ParameterError(
                f"inconsistent factor shapes {self.X.shape}, {self.Y.shape}"
            )
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise ParameterError("factors contain NaN or Inf")

    @property
    def rank(self):
        return self.X.shape[1]

    def stacked(self):
        return np.vstack([self.X, self.Y])


@dataclass
class PgdConfig:
    # default step reproduces the reference behavior of the unscaled
    # method: comparable to the scaled variant at kappa = 1, slower on
    # ill-conditioned targets; larger steps trade robustness for speed
    eta: float = 0.1
    lam: float = 0.5  # balancing weight
    max_iter: int = 2000
    tol: float = 1e-6
    mu: float = 2.0  # incoherence estimate used when no ground truth is given
    clip_bound: float | None = None  # computed at init when None
    stepsize_denominator: float | None = None  # ||Z0||^2 when None
    log_dist: bool = False
    eval_every: int = 1  # ground-truth metrics logged every k-th iteration
    stall_window: int = 0  # iterations; >0 stops runs making no headway

    def __post_init__(self):
        if self.eta <= 0 or self.lam < 0:
            raise ParameterError("eta must be positive and lambda nonnegative")
        if self.eval_every < 1:
            raise ParameterError("eval_every must be at least 1")


@dataclass
class IterationTrace:
    """Per-iteration log of one solver run."""

    iterations: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    rel_error: list = field(default_factory=list)
    dist: list = field(default_factory=list)
    wall: list = field(default_factory=list)  # cumulative solver seconds
    meta: dict = field(default_factory=dict)

    def append(self, k, loss, rel, dist, wall):
        if self.iterations and k <= self.iterations[-1]:
            raise ParameterError("iteration indices must be strictly increasing")
        self.iterations.append(k)
        self.loss.append(loss)
        self.rel_error.append(rel)
        self.dist.append(dist)
        self.wall.append(wall)

    @property
    def final_rel_error(self):
        return self.rel_error[-1] if self.rel_error else float("nan")

    @property
    def solver_seconds(self):
        return self.wall[-1] if self.wall else 0.0

    def iterations_to(self, tol):
        """First logged iteration index with relative error below ``tol``."""
        for k, e in zip(self.iterations, self.rel_error):
            if e is not None and not np.isnan(e) and e < tol:
                return k
        return None


def _clip_rows(A, clip_bound):
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.sqrt((A * A).sum(axis=1))
        inf = np.isinf(norms)
        if inf.any():
            # squares overflow for entries above ~1e154: measure those
            # finite rows again scaled by their largest entry, so that they
            # are clipped to the bound instead of zeroed
            big = inf & np.isfinite(A).all(axis=1)
            peak = np.abs(A[big]).max(axis=1, keepdims=True)
            norms[big] = peak[:, 0] * np.sqrt(((A[big] / peak) ** 2).sum(axis=1))
        scale = np.where(norms > clip_bound, clip_bound / norms, 1.0)
    return A * scale[:, None]


def project_rows(pair, clip_bound):
    """Clip every row of the stacked factor to norm at most ``clip_bound``."""
    if clip_bound <= 0:
        raise ParameterError("clip bound must be positive")
    return FactorPair(_clip_rows(pair.X, clip_bound), _clip_rows(pair.Y, clip_bound))


def spectral_init(obs, r, mu):
    """Initial iterate: balanced square-root factors of the rescaled
    observation's top-r SVD, row-clipped.

    Returns ``(pair, znorm, clip_bound)`` where ``znorm`` is the operator
    norm of the unclipped stacked factor (the practical surrogate for the
    unknown target scale in the step size).
    """
    n1, n2 = obs.shape
    if r > min(n1, n2):
        raise ParameterError(f"rank {r} exceeds min dimension {min(n1, n2)}")
    tsvd = rescaled_top_svd(obs, r)
    sq = np.sqrt(tsvd.S)
    pair = FactorPair(tsvd.U * sq, tsvd.V * sq)
    znorm = operator_norm(pair.stacked())
    clip_bound = np.sqrt(2.0 * mu * r / min(n1, n2)) * znorm
    return project_rows(pair, clip_bound), znorm, clip_bound


def _gram_gap(X, Y):
    return X.T @ X - Y.T @ Y


def loss(pair, obs, lam):
    """(1/rate)*||residual on the pattern||_F^2 + (lam/4)*||X'X - Y'Y||_F^2."""
    K = observed_residual(pair.X, pair.Y, obs)
    return _loss_from_residual(K, _gram_gap(pair.X, pair.Y), obs, lam)


def _loss_from_residual(K, gap, obs, lam):
    fit = float((K.data**2).sum()) / obs.rate
    if lam == 0:
        return fit
    return fit + 0.25 * lam * float((gap * gap).sum())


def gradient(pair, obs, lam):
    """Exact gradient of ``loss`` as a factor pair.

    The observed-residual blocks carry the factor 2/rate (the loss is a
    plain squared norm, not half of one), and the balancing blocks are
    lam * X (X'X - Y'Y) and its mirror.
    """
    K = observed_residual(pair.X, pair.Y, obs)
    gX, gY = _gradient_from_residual(K, pair.X, pair.Y, _gram_gap(pair.X, pair.Y),
                                     obs, lam)
    return FactorPair(gX, gY)


def _gradient_from_residual(K, X, Y, gap, obs, lam):
    gX = (2.0 / obs.rate) * (K @ Y)
    gY = (2.0 / obs.rate) * (K.T @ X)
    if lam != 0:
        gX = gX + lam * (X @ gap)
        gY = gY - lam * (Y @ gap)
    return gX, gY


def solve(obs, r, config=None, gt=None):
    """Run projected gradient descent; returns the final pair and its trace.

    With a ground truth, iterations stop once the relative recovery error
    drops below ``config.tol``; otherwise on loss stagnation.  A loss that
    increases for 50 consecutive iterations, or stops being finite, raises
    ``DivergenceError`` with the partial trace attached.
    """
    config = config or PgdConfig()
    mu = gt.coherence_mu if gt is not None else config.mu

    t0 = time.perf_counter()
    pair, znorm, clip_bound = spectral_init(obs, r, mu)
    init_seconds = time.perf_counter() - t0
    if config.clip_bound is not None:
        clip_bound = config.clip_bound
        pair = project_rows(pair, clip_bound)
    denom = config.stepsize_denominator or znorm**2
    step = config.eta / denom

    trace = IterationTrace(meta={
        "solver": "pgd", "eta": config.eta, "lam": config.lam,
        "clip_bound": clip_bound, "stepsize_denominator": denom,
    })

    def objective(X, Y):
        K = observed_residual(X, Y, obs)
        gap = _gram_gap(X, Y)
        return _loss_from_residual(K, gap, obs, config.lam), (K, gap)

    def advance(X, Y, state):
        K, gap = state
        gX, gY = _gradient_from_residual(K, X, Y, gap, obs, config.lam)
        return _clip_rows(X - step * gX, clip_bound), _clip_rows(Y - step * gY, clip_bound)

    return iterate(pair, objective, advance, metrics.rotation_distance, config, gt,
                   trace, init_seconds)


def iterate(pair, objective, advance, distance, config, gt, trace, solver_seconds):
    """The outer loop of both factored solvers, started at ``pair``.

    ``objective(X, Y)`` returns ``(loss, state)``, ``advance(X, Y, state)``
    the next iterate (step and projection), and ``distance`` is the
    alignment metric logged under ``config.log_dist``.  Stop rules, in
    order: "tol", "stall", then without a ground truth "loss-floor" and
    "stagnation"; else "max-iter".  The reason goes to
    ``trace.meta["stop_reason"]``, "diverged" before a ``DivergenceError``.
    ``solver_seconds`` starts at the initialization's time.
    """
    # the iterate stays as plain arrays inside the loop; the finite-loss
    # check is what guards it against NaN and Inf, so numpy's overflow
    # warnings on the way there are noise
    X, Y = pair.X, pair.Y
    prev_loss = None
    bad_streak = 0
    checkpoint = None
    loss_floor_ref = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.max_iter + 1):
            t0 = time.perf_counter()
            loss_k, state = objective(X, Y)
            solver_seconds += time.perf_counter() - t0

            if loss_floor_ref is None:
                loss_floor_ref = max(loss_k, 1e-300)
            evaluate = gt is not None and (k % config.eval_every == 0 or k == config.max_iter)
            rel = metrics.relative_error(X, Y, gt) if evaluate else float("nan")
            dist = float("nan")
            if config.log_dist and evaluate and np.isfinite(loss_k):
                dist = distance(FactorPair(X, Y), gt).distance
            trace.append(k, loss_k, rel, dist, solver_seconds)
            # meaningful growth only: plateau jitter at a constrained optimum
            # or at the fp floor must not trip the guard
            if prev_loss is not None and loss_k > prev_loss * (1 + 1e-9):
                bad_streak += 1
            else:
                bad_streak = 0
            if not np.isfinite(loss_k) or bad_streak >= _DIVERGENCE_PATIENCE:
                trace.meta["stop_reason"] = "diverged"
                raise DivergenceError(
                    f"loss increased for {bad_streak} consecutive iterations"
                    if np.isfinite(loss_k) else "loss is no longer finite", trace)

            stop = None
            if gt is not None and rel < config.tol:
                stop = "tol"
            elif gt is not None and config.stall_window > 0 and not np.isnan(rel):
                if checkpoint is None:
                    checkpoint = (k, rel)
                elif k - checkpoint[0] >= config.stall_window:
                    if rel > 10 * config.tol and rel > 0.98 * checkpoint[1]:
                        stop = "stall"  # no meaningful progress; hopeless at this budget
                    checkpoint = (k, rel)
            elif gt is None:
                if loss_k <= _LOSS_FLOOR_REL * loss_floor_ref:
                    stop = "loss-floor"
                elif prev_loss is not None and abs(prev_loss - loss_k) <= (
                    _LOSS_STALL_REL * max(loss_k, 1e-300)
                ):
                    stop = "stagnation"
            if stop is None and k == config.max_iter:
                stop = "max-iter"
            if stop is not None:
                trace.meta["stop_reason"] = stop
                break
            prev_loss = loss_k

            t0 = time.perf_counter()
            X, Y = advance(X, Y, state)
            solver_seconds += time.perf_counter() - t0

    return FactorPair(X, Y), trace
