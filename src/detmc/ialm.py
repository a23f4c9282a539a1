"""Nuclear-norm completion baseline via the inexact augmented Lagrangian
method with singular value thresholding.

Minimizes the nuclear norm subject to agreeing with the observations,
alternating a singular-value-thresholding update of the full matrix with
a multiplier update supported on the observed entries and a geometric
penalty schedule.

In the completion form of Lin, Chen and Ma (arXiv:1009.5055) the
unobserved part E, set after each threshold, is minus the new iterate
off the pattern and zero on it; the multiplier Y and the residual vanish
off it.  So E needs no array: the next operand ``D - E + Y / mu`` is that
iterate with its observed entries set to ``values + Y / mu``.  Y and the
residual are m-vectors on the pattern's edges, the layout of
``sampling.observed_residual``; the iterate stays dense.

Each iteration thresholds one dense n1 x n2 operand.  Only its singular
values above tau survive the shrinkage (k of them, 1-53 of 256 on the
256 x 256 comparison tables), so ``_svt`` forms the Gram matrix on the
smaller side, O(n1 n2 min(n1, n2)), and asks LAPACK for its eigenpairs
above tau^2 only.  On one OpenBLAS thread of a 2-core x86 machine a
threshold takes 5-10 ms at 256 x 256 and 23 ms at 512 x 512, against
16-19 ms and 111 ms for a full SVD.  Squaring the spectrum costs
accuracy: the result is off by about eps * sigma1 / tau relative to
||A||_F, so this route runs only while ||A||_F <= 1e5 * tau
(``_GRAM_RATIO``; errors below 1e-10 ||A||_F were measured there).  Past
that ratio, and at tau = 0, the threshold comes from a full LAPACK SVD;
``trace.meta["svt_dense"]`` counts those iterations.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import metrics
from .errors import ParameterError
from .kernels import operator_norm
from .pgd import IterationTrace, StopRule, check_stop_settings


# The penalty starts at 1 / ||observed matrix||_2 and grows by _RHO per
# iteration (Lin, Chen and Ma's schedule).  The growth is deliberately
# gentle: aggressive schedules (1.5x) freeze the thresholding far from the
# solution on partially observed problems.
_RHO = 1.1


@dataclass
class IalmConfig:
    """Stopping for the augmented-Lagrangian solver."""

    max_iter: int = 500
    tol: float = 1e-4

    def __post_init__(self):
        check_stop_settings(self.max_iter, self.tol)


# Largest ||A||_F / tau at which the threshold is read off the Gram matrix.
# Its eigenvalues carry an absolute error of about eps * sigma1^2, so the
# result is off by about eps * sigma1 / tau relative to ||A||_F, and
# ||A||_F >= sigma1 bounds that ratio by ||A||_F / tau.  At ||A||_F / tau =
# 1e5 the measured error was 1.3e-12 ||A||_F on sparse-plus-low-rank
# operands and 7e-11 ||A||_F at worst, with 255 singular values just above
# tau under a sigma1 of about ||A||_F.
_GRAM_RATIO = 1e5


def _svt(A, tau):
    """Thresholded ``A``, the k singular values above ``tau`` shrunk by
    tau (in no fixed order), and whether the dense SVD fallback ran."""
    if np.linalg.norm(A) <= _GRAM_RATIO * tau:  # never at tau = 0 unless A = 0
        tall = A.shape[0] >= A.shape[1]
        B = A if tall else A.T
        lam, W = scipy.linalg.eigh(B.T @ B, subset_by_value=(tau * tau, np.inf),
                                   driver="evr")
        sigma = np.sqrt(lam)
        shrunk = sigma - tau
        # B = U S W^T on the kept pairs, so U (S - tau) W^T = B W diag(1 - tau/S) W^T
        out = ((B @ W) * (shrunk / sigma)) @ W.T
        return (out if tall else out.T), shrunk, False
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    k = int(np.count_nonzero(S > tau))
    shrunk = S[:k] - tau
    return (U[:, :k] * shrunk) @ Vt[:k], shrunk, True


def solve(obs, config=None, gt=None):
    """Complete the observation by nuclear-norm minimization.

    Returns the dense estimate and an iteration trace whose ``loss`` column
    records the nuclear norm of the running iterate.  Y and the residual
    live on the pattern's edges (see above); D is the observation, zero
    off them.  The run has settled once primal feasibility, ||residual|| /
    ||D||, is below tol and the last step moved the iterate by less than
    tol * ||D||: the label "tol" it gives ``StopRule``, which lists why a
    run stops.  A settled run with a ground truth stops on "stall" above
    10 * tol because each later step is about 1/rho of the one before: the
    error could move by only about tol * ||D|| / ((rho - 1) * ||M||).  A
    penalty that overflows raises ``DivergenceError`` before it is used.
    ``trace.meta["mu0"]`` is the initial penalty, ``1 / ||D||_2``,
    ``trace.meta["rho"]`` its growth factor per iteration, and
    ``trace.meta["svt_dense"]`` counts the iterations whose threshold took
    the dense SVD fallback.
    """
    config = config or IalmConfig()
    pat = obs.pattern
    d_norm = np.linalg.norm(obs.values)
    if d_norm == 0:
        raise ParameterError("observation is identically zero")

    mu = 1.0 / max(operator_norm(pat.csr_with_values(obs.values)), 1e-300)
    A = np.zeros((pat.n1, pat.n2))
    Y = np.zeros(pat.m)

    trace = IterationTrace(meta={"solver": "ialm", "rho": _RHO, "mu0": mu,
                                 "svt_dense": 0})
    rel0 = metrics.relative_error_dense(A, gt) if gt is not None else float("nan")
    trace.append(0.0, rel0)
    rule = StopRule(config, gt is not None, trace, "feasibility")
    for k in itertools.count(1):
        t0 = time.perf_counter()
        A_prev = A  # rebound below, never written in place
        Z = A.copy()  # the SVT operand; A_prev off the pattern
        Z[pat.rows, pat.cols] = obs.values + Y / mu
        A, shrunk, dense = _svt(Z, 1.0 / mu)
        trace.meta["svt_dense"] += dense
        R = obs.values - A[pat.rows, pat.cols]
        Y += mu * R
        mu *= _RHO
        feas = float(np.linalg.norm(R)) / d_norm
        trace.solver_seconds += time.perf_counter() - t0

        rel = metrics.relative_error_dense(A, gt) if gt is not None else float("nan")
        trace.append(float(shrunk.sum()), rel)
        # feasibility alone is forced by the penalty schedule; require the
        # iterate itself to have settled too
        settled = (k > 1 and feas < config.tol
                   and np.linalg.norm(A - A_prev) < config.tol * d_norm)
        if rule.update(k, feas, rel, "tol" if settled else None):
            break
        if mu == math.inf:
            raise rule.diverged(f"the penalty overflowed after {k} iterations")

    return A, trace
