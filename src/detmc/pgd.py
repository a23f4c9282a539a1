"""Projected gradient descent on the balanced factored least-squares loss.

The iterate is the factor pair (X, Y); the loss charges the squared
residual on the observed entries (rescaled by the sampling rate) plus a
balancing penalty on X'X - Y'Y.  Rows of the stacked factor are clipped
to an incoherence bound derived from the spectral initialization.

``iterate`` is the outer loop of both factored solvers (this one and
``scaled_pgd``): timing, the trace and the ``StopRule`` (``ialm``'s too)
live there, and each ``solve`` supplies only its loss, step and
projection.  ``bench.solve`` runs any solver by name.

Inside the loop the factors are r-major, C-ordered r x n arrays ``Xt``
and ``Yt`` (``FactorPair.r_major``), the layout the per-edge kernel
gathers and dots fastest; the public ``loss``, ``gradient`` and
``project_rows`` run the loop's helpers, and callers always get n x r
C-ordered pairs.  A solve refills one residual matrix (``observed_residual``
with ``out``) and multiplies by it with ``residual_products``: O(m r + n r^2),
about 0.6 ms per iteration at 1092 x 1092, d = 20, r = 3 on one BLAS thread.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import DivergenceError, ParameterError
from .sampling import observed_residual, rescaled_top_svd, residual_products

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

    def r_major(self):
        """The factors as C-ordered r x n1 and r x n2 arrays."""
        return np.ascontiguousarray(self.X.T), np.ascontiguousarray(self.Y.T)

    @classmethod
    def from_r_major(cls, Xt, Yt):
        """The pair whose n x r C-ordered factors are ``Xt.T`` and ``Yt.T``."""
        return cls(np.ascontiguousarray(Xt.T), np.ascontiguousarray(Yt.T))


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
    log_dist: bool = False
    eval_every: int = 1  # ground-truth metrics logged every k-th iteration

    def __post_init__(self):
        if not 0 < self.eta < math.inf or self.lam < 0:
            raise ParameterError("eta must be positive and finite and lambda nonnegative")
        if not 0 < self.mu < math.inf:
            raise ParameterError("mu must be positive and finite")
        check_stop_settings(self.max_iter, self.tol, self.eval_every)


def check_stop_settings(max_iter, tol, eval_every=1):
    """Reject an iteration budget or metric stride below one, or a non-finite tolerance.

    NaN compares false with everything, so a NaN ``tol`` would otherwise
    switch off every stop rule that reads it without a word.
    """
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    if not math.isfinite(tol):
        raise ParameterError("tol must be finite")
    if eval_every < 1:
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


class StopRule:
    """Why a solver run ends; each solver's loop feeds it once per iteration.

    ``update`` takes the iteration ``k``, the watched ``value`` (the
    factored solvers' loss, IALM's feasibility), the relative error ``rel``
    against the ground truth (NaN when blind or not evaluated) and the
    loop's ``settled`` label or None.  A non-finite value, or
    ``_DIVERGENCE_PATIENCE`` consecutive rises of more than 1e-9 relative
    (plateau jitter at an optimum or at the fp floor is no rise), raises
    ``DivergenceError`` with the trace.  Else the first rule that holds
    ends the run:

    * "tol": a ground truth is given and ``rel < tol``;
    * the label ("loss-floor" or "stagnation" from a blind factored run,
      "tol" from IALM) on a blind run; with a ground truth, "stall" if
      ``rel > 10 * tol``, else the run goes on;
    * "max-iter" at ``k == max_iter``.

    The reason goes to ``trace.meta["stop_reason"]``, and "diverged" before
    every ``DivergenceError``, also the one ``diverged`` builds for a loop.
    """

    def __init__(self, config, truth, trace, watched):
        self.max_iter, self.tol = config.max_iter, config.tol
        self.truth = truth  # whether a ground truth is given
        self.trace = trace
        self.watched = watched  # the watched value's name, for messages
        self.previous = None  # the value fed at the last update
        self.rises = 0  # consecutive rises up to it

    def update(self, k, value, rel, settled=None):
        """The reason the run stops at iteration ``k``, or None to go on."""
        rose = self.previous is not None and value > self.previous * (1 + 1e-9)
        self.rises = self.rises + 1 if rose else 0
        self.previous = value
        if not math.isfinite(value):
            raise self.diverged(f"{self.watched} is no longer finite")
        if self.rises >= _DIVERGENCE_PATIENCE:
            raise self.diverged(
                f"{self.watched} increased for {self.rises} consecutive iterations")
        if self.truth and rel < self.tol:
            stop = "tol"
        elif settled and not self.truth:
            stop = settled
        elif settled and rel > 10 * self.tol:
            stop = "stall"
        else:
            stop = "max-iter" if k == self.max_iter else None
        if stop:
            self.trace.meta["stop_reason"] = stop
        return stop

    def diverged(self, message):
        """A ``DivergenceError`` carrying the trace, marked "diverged"."""
        self.trace.meta["stop_reason"] = "diverged"
        return DivergenceError(message, self.trace)


def _clip_rows(At, clip_bound):
    """Clip every column of the r-major ``At`` (a row of the factor)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norms = np.sqrt(np.einsum("ki,ki->i", At, At))
        if not (norms > clip_bound).any():  # an overflowed norm is inf, so over
            return At
        inf = np.isinf(norms)
        if inf.any():
            # squares overflow for entries above ~1e154: measure those
            # finite rows again scaled by their largest entry, so that they
            # are clipped to the bound instead of zeroed
            big = inf & np.isfinite(At).all(axis=0)
            peak = np.abs(At[:, big]).max(axis=0, keepdims=True)
            norms[big] = peak[0] * np.sqrt(((At[:, big] / peak) ** 2).sum(axis=0))
        scale = np.where(norms > clip_bound, clip_bound / norms, 1.0)
    return At * scale


def project_rows(pair, clip_bound):
    """Clip every row of the stacked factor to norm at most ``clip_bound``."""
    if clip_bound <= 0:
        raise ParameterError("clip bound must be positive")
    Xt, Yt = pair.r_major()
    return FactorPair.from_r_major(_clip_rows(Xt, clip_bound), _clip_rows(Yt, clip_bound))


def spectral_init(obs, r, mu):
    """Initial iterate: balanced square-root factors of the rescaled
    observation's top-r SVD, row-clipped.

    Returns ``(pair, znorm, clip_bound)`` where ``znorm`` is the operator
    norm of the unclipped stacked factor (the practical surrogate for the
    unknown target scale in the step size).  The stacked factor is
    ``[U; V] diag(sqrt(S))`` with orthonormal ``U`` and ``V``, so
    ``znorm = sqrt(2 sigma1)`` exactly.
    """
    n1, n2 = obs.shape
    tsvd = rescaled_top_svd(obs, r)
    sq = np.sqrt(tsvd.S)
    pair = FactorPair(tsvd.U * sq, tsvd.V * sq)
    znorm = float(np.sqrt(2.0 * tsvd.S[0]))
    clip_bound = np.sqrt(2.0 * mu * r / min(n1, n2)) * znorm
    return project_rows(pair, clip_bound), znorm, clip_bound


def _objective(Xt, Yt, obs, lam, out=None):
    """``loss`` at the r-major factors, and the residual and Gram gap it used."""
    K = observed_residual(Xt.T, Yt.T, obs, out=out)
    gap = Xt @ Xt.T - Yt @ Yt.T
    fit = float((K.data**2).sum()) / obs.rate
    if lam == 0:
        return fit, (K, gap)
    return fit + 0.25 * lam * float((gap * gap).sum()), (K, gap)


def _gradient(Xt, Yt, state, obs, lam):
    """r-major ``gradient`` from the residual and Gram gap of ``_objective``."""
    K, gap = state
    KY, KtX = residual_products(K, Xt, Yt)
    gXt = (2.0 / obs.rate) * KY
    gYt = (2.0 / obs.rate) * KtX
    if lam != 0:
        # X @ gap and Y @ gap, transposed; the gap is symmetric
        gXt = gXt + lam * (gap @ Xt)
        gYt = gYt - lam * (gap @ Yt)
    return gXt, gYt


def loss(pair, obs, lam):
    """(1/rate)*||residual on the pattern||_F^2 + (lam/4)*||X'X - Y'Y||_F^2."""
    return _objective(*pair.r_major(), obs, lam)[0]


def gradient(pair, obs, lam):
    """Exact gradient of ``loss`` as a factor pair.

    The observed-residual blocks carry the factor 2/rate (the loss is a
    plain squared norm, not half of one), and the balancing blocks are
    lam * X (X'X - Y'Y) and its mirror.
    """
    Xt, Yt = pair.r_major()
    _, state = _objective(Xt, Yt, obs, lam)
    return FactorPair.from_r_major(*_gradient(Xt, Yt, state, obs, lam))


def solve(obs, r, config=None, gt=None):
    """Run projected gradient descent; returns the final pair and its trace.

    ``StopRule`` lists why a run stops.
    """
    config = config or PgdConfig()
    mu = gt.coherence_mu if gt is not None else config.mu

    t0 = time.perf_counter()
    pair, znorm, clip_bound = spectral_init(obs, r, mu)
    init_seconds = time.perf_counter() - t0
    denom = znorm**2
    step = config.eta / denom
    K = obs.pattern.csr_with_values(np.empty(obs.pattern.m))

    trace = IterationTrace(meta={
        "solver": "pgd", "eta": config.eta, "lam": config.lam,
        "clip_bound": clip_bound, "stepsize_denominator": denom,
    })

    def objective(Xt, Yt):
        return _objective(Xt, Yt, obs, config.lam, out=K)

    def advance(Xt, Yt, state):
        gXt, gYt = _gradient(Xt, Yt, state, obs, config.lam)
        return _clip_rows(Xt - step * gXt, clip_bound), _clip_rows(Yt - step * gYt, clip_bound)

    return iterate(pair, objective, advance, metrics.rotation_distance, config, gt,
                   trace, init_seconds)


def iterate(pair, objective, advance, distance, config, gt, trace, solver_seconds):
    """The outer loop of both factored solvers, started at ``pair``.

    Both callbacks take the factors r-major (``FactorPair.r_major``):
    ``objective(Xt, Yt)`` returns ``(loss, state)``, ``advance(Xt, Yt,
    state)`` the next r-major iterate (step and projection), and
    ``distance`` is the alignment metric logged under ``config.log_dist``,
    called on an n x r pair of views.  Logged distances
    whose alignment did not converge (a warm-start fallback, not a
    minimum) are counted in ``trace.meta["dist_fallbacks"]``.  A blind run
    gives ``StopRule`` the labels "loss-floor" (the loss is below
    ``_LOSS_FLOOR_REL`` times its initial value) and "stagnation" (it moved
    by at most ``_LOSS_STALL_REL`` relative); a run with a ground truth
    gives none.  ``solver_seconds`` starts at the initialization's time.
    """
    # the iterate stays as plain r-major arrays inside the loop; the
    # finite-loss check is what guards it against NaN and Inf, so numpy's
    # overflow warnings on the way there are noise
    Xt, Yt = pair.r_major()
    rule = StopRule(config, gt is not None, trace, "loss")
    if config.log_dist:
        trace.meta["dist_fallbacks"] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in itertools.count():
            t0 = time.perf_counter()
            loss_k, state = objective(Xt, Yt)
            solver_seconds += time.perf_counter() - t0

            evaluate = gt is not None and (k % config.eval_every == 0 or k == config.max_iter)
            rel = metrics.relative_error(Xt.T, Yt.T, gt) if evaluate else float("nan")
            dist = float("nan")
            if config.log_dist and evaluate and np.isfinite(loss_k):
                aligned = distance(FactorPair(Xt.T, Yt.T), gt)
                dist = aligned.distance
                trace.meta["dist_fallbacks"] += not aligned.converged
            trace.append(k, loss_k, rel, dist, solver_seconds)

            settled = None
            if gt is None and loss_k <= _LOSS_FLOOR_REL * max(trace.loss[0], 1e-300):
                settled = "loss-floor"
            elif gt is None and k and abs(rule.previous - loss_k) <= (
                    _LOSS_STALL_REL * max(loss_k, 1e-300)):
                settled = "stagnation"
            if rule.update(k, loss_k, rel, settled):
                break

            t0 = time.perf_counter()
            Xt, Yt = advance(Xt, Yt, state)
            solver_seconds += time.perf_counter() - t0

    return FactorPair.from_r_major(Xt, Yt), trace
