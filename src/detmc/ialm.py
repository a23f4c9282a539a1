"""Nuclear-norm completion baseline via the inexact augmented Lagrangian
method with singular value thresholding.

Minimizes the nuclear norm subject to agreeing with the observations,
alternating a singular-value-thresholding update of the full matrix with
a multiplier update supported on the observed entries and a geometric
penalty schedule.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import DivergenceError, ParameterError
from .kernels import as_matrix, operator_norm
from .pgd import IterationTrace, _DIVERGENCE_PATIENCE


@dataclass
class IalmConfig:
    """Penalty schedule and stopping for the augmented-Lagrangian solver.

    The growth factor is deliberately gentle: aggressive schedules (1.5x)
    freeze the thresholding far from the solution on partially observed
    problems.
    """

    mu0: float | None = None  # default 1 / ||observed matrix||
    rho: float = 1.1
    max_iter: int = 500
    tol: float = 1e-4

    def __post_init__(self):
        if self.mu0 is not None and self.mu0 <= 0:
            raise ParameterError("mu0 must be positive")
        if self.rho <= 1:
            raise ParameterError("rho must exceed 1")


def _svt(A, tau):
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    shrunk = np.maximum(S - tau, 0.0)
    return (U * shrunk) @ Vt, shrunk


def svt(A, tau):
    """Singular value thresholding: the proximal map of tau * nuclear norm."""
    A = as_matrix(A)
    if tau < 0:
        raise ParameterError("threshold must be nonnegative")
    return _svt(A, tau)[0]


def solve(obs, config=None, gt=None):
    """Complete the observation by nuclear-norm minimization.

    Returns the dense estimate and an iteration trace whose ``loss`` column
    records the nuclear norm of the running iterate.  The run has settled
    once primal feasibility is below tol and the last step moved the
    iterate by less than tol times the observation's norm; a blind run
    stops there.  With a ground truth the run stops on relative recovery
    error below tol, or, settled, on "stall" if that error is still above
    10 * tol: each later step is about 1/rho of the one before, so the
    error could move by only about tol * ||D|| / ((rho - 1) * ||M||).
    ``trace.meta["stop_reason"]`` is "tol", "stall", "max-iter", or
    "diverged" before a ``DivergenceError``; ``trace.meta["mu0"]`` is the
    initial penalty, ``1 / ||D||_2`` unless the config sets it.
    """
    config = config or IalmConfig()
    pat = obs.pattern
    mask = np.zeros((pat.n1, pat.n2), dtype=bool)
    mask[pat.rows, pat.cols] = True

    D = np.zeros((pat.n1, pat.n2))
    D[pat.rows, pat.cols] = obs.values
    d_norm = np.linalg.norm(D)
    if d_norm == 0:
        raise ParameterError("observation is identically zero")

    mu = config.mu0
    if mu is None:
        mu = 1.0 / max(operator_norm(pat.csr_with_values(obs.values)), 1e-300)
    A = np.zeros_like(D)
    E = np.zeros_like(D)
    Y = np.zeros_like(D)

    trace = IterationTrace(meta={"solver": "ialm", "rho": config.rho, "mu0": mu})
    rel0 = metrics.relative_error_dense(A, gt) if gt is not None else float("nan")
    trace.append(0, 0.0, rel0, float("nan"), 0.0)
    solver_seconds = 0.0
    prev_feas = None
    prev_A = None
    bad_streak = 0
    for k in range(1, config.max_iter + 1):
        t0 = time.perf_counter()
        Y_mu = Y / mu
        A, shrunk = _svt(D - E + Y_mu, 1.0 / mu)
        E = np.where(mask, 0.0, D - A + Y_mu)
        R = D - A - E
        Y += mu * R
        mu *= config.rho
        feas = float(np.linalg.norm(R)) / d_norm
        solver_seconds += time.perf_counter() - t0

        rel = metrics.relative_error_dense(A, gt) if gt is not None else float("nan")
        trace.append(k, float(shrunk.sum()), rel, float("nan"), solver_seconds)

        if prev_feas is not None and feas > prev_feas:
            bad_streak += 1
            if bad_streak >= _DIVERGENCE_PATIENCE:
                trace.meta["stop_reason"] = "diverged"
                raise DivergenceError("feasibility worsened repeatedly", trace)
        else:
            bad_streak = 0
        prev_feas = feas

        stop = None
        if gt is not None and rel < config.tol:
            stop = "tol"
        # feasibility alone is forced by the penalty schedule; require the
        # iterate itself to have settled too
        elif (feas < config.tol and prev_A is not None
              and np.linalg.norm(A - prev_A) < config.tol * d_norm):
            if gt is None:
                stop = "tol"
            elif rel > 10 * config.tol:
                stop = "stall"
        if stop is not None:
            trace.meta["stop_reason"] = stop
            break
        prev_A = A  # rebound, never written in place
    else:
        trace.meta["stop_reason"] = "max-iter"

    return A, trace
