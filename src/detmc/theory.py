"""Numerical verification of the recovery inequalities.

Each check evaluates both sides of a stated inequality on concrete random
instances and reports the worst margin (right side minus left side;
negative means a violation).  These are spot checks with recorded seeds,
not proofs.  Checks whose constants assume a sample-size regime the
instance does not satisfy are labeled out-of-regime and their margins are
informational.

Each sampled check is a draw function folded by one loop (``_sampled``):
the draws share one generator seeded with the check's seed, the worst
margin is the min over the counted draws' margins and the scale the max
over their scales.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import pgd, scaled_pgd
from .errors import ParameterError
from .graphs import _rng, certify
from .kernels import operator_norm
from .metrics import gauge_distance, rotation_distance
from .sampling import Observation, observe, observed_residual, subset_isotropy_gap

_PASS_SLACK = 1e-9


@dataclass
class TheoryCheckReport:
    check_name: str
    instances_tested: int
    worst_margin: float
    scale: float  # magnitude of the bound, for relative pass judgment
    delta_tilde: float | None = None
    params: dict = field(default_factory=dict)
    out_of_regime: bool = False
    seed: int = 0

    @property
    def passed(self):
        return self.worst_margin >= -_PASS_SLACK * self.scale

    def to_dict(self):
        return {**dataclasses.asdict(self), "passed": bool(self.passed)}


def _check_trials(trials):
    """Refuse a trial count below one, which would test nothing and pass."""
    if trials < 1:
        raise ParameterError("trials must be at least 1")


def _sampled(name, trials, seed, draw, **report):
    """Fold ``trials`` calls of ``draw(rng)``, on one generator seeded with
    ``seed``, into the report ``name`` with the fields ``report``.

    A draw returns its margins and scales, or None when it is not counted.
    With no counted draw the worst margin is NaN, which does not pass."""
    rng = _rng(seed)
    worst, scale, counted = math.inf, 0.0, 0
    for _ in range(trials):
        drawn = draw(rng)
        if drawn is not None:
            margins, scales = drawn
            worst = min(worst, *margins)
            scale = max(scale, *scales)
            counted += 1
    return TheoryCheckReport(name, counted, float(worst) if counted else math.nan, scale,
                             seed=seed, **report)


def _delta_tilde(delta_d, c0, mu, r, dmin):
    return math.sqrt(2.0 * (delta_d**2 + (c0**2 * mu**2 * r**2) / dmin))


def _base_params(gt, g, cert, delta_d):
    return {
        "delta_d": delta_d,
        "c0": cert.c0,
        "mu": gt.coherence_mu if gt is not None else None,
        "r": gt.rank if gt is not None else None,
        "kappa": gt.condition_number if gt is not None else None,
        "d1": g.d1,
        "d2": g.d2,
    }


def check_tangent_isometry(gt, g, trials, seed):
    """Near-isometry of the rescaled sampling operator on the tangent space.

    For random elements Z = U* A' + B V*' the rescaled masked energy must
    stay within a factor (1 +- delta_tilde) of the full energy, with
    delta_tilde assembled from the measured isotropy gap and the
    certificate constant.  Z = L R' with L = [U, B] and R = [A, V] is never
    formed: ||Z||_F^2 = <L'L, R'R>, and the masked energy is summed on the
    edges.
    """
    _check_trials(trials)
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g)
    dt = _delta_tilde(delta_d, cert.c0, gt.coherence_mu, gt.rank, min(g.d1, g.d2))
    U, V = gt.svd.U, gt.svd.V

    def draw(rng):
        R = np.hstack([rng.standard_normal((g.n2, gt.rank)), V])
        L = np.hstack([U, rng.standard_normal((g.n1, gt.rank))])
        full = float(((L.T @ L) * (R.T @ R)).sum())
        masked = _masked_product_energy(L, R, g)
        return ((1 + dt) * full - masked, masked - (1 - dt) * full), ((1 + dt) * full,)

    return _sampled("tangent_isometry", trials, seed, draw, delta_tilde=dt,
                    params=_base_params(gt, g, cert, delta_d))


def check_bilinear_bound(g, trials, seed):
    """Rescaled bilinear sums over the edge set against the l1/l2 bound."""
    _check_trials(trials)
    cert = certify(g)
    slack = 0.5 * cert.c0 * (math.sqrt(g.n1) + math.sqrt(g.n2)) / math.sqrt(g.rate)

    def draw(rng):
        x = np.abs(rng.standard_normal(g.n1))
        y = np.abs(rng.standard_normal(g.n2))
        lhs = float(x @ (g.adjacency @ y)) / g.rate
        rhs = x.sum() * y.sum() + slack * np.linalg.norm(x) * np.linalg.norm(y)
        return (rhs - lhs,), (rhs,)

    return _sampled("bilinear_bound", trials, seed, draw,
                    params=_base_params(None, g, cert, None))


def check_graph_deviation(gt, g):
    """Spectral deviation of the rescaled masked matrix from the matrix,
    ||p^-1 P_Omega(M) - M||_2, against c0 mu r sigma1 / sqrt(d_min).

    The operand is the CSR of the rescaled observed values less the rank-r
    product U S V', a ``LinearOperator`` (applied to (n, 1) blocks too)
    whose ``operator_norm`` forms no n1 x n2 array when the smaller side
    has at least 200 vertices.  The graph's own deviation ||A/p - 11'||_2 is
    sigma2/p, read from the certificate, and needs no check here: c0 is
    measured from the same sigma2.
    """
    cert = certify(g)
    if g.d1 == g.n2:  # complete: the rescaled matrix IS the matrix
        dev = 0.0
    else:
        C = g.csr_with_values(observe(gt.matrix, g).values / g.rate)
        US, V = gt.svd.U * gt.svd.S, gt.svd.V
        op = scipy.sparse.linalg.LinearOperator(
            (g.n1, g.n2), dtype=np.float64,
            matvec=lambda x: C @ x - US @ (V.T @ x),
            rmatvec=lambda y: C.T @ y - V @ (US.T @ y),
        )
        # Lanczos, not power iteration: the top two singular values of
        # this matrix can be within 1% of each other, where power
        # iteration takes hundreds of steps and stops short of the value
        dev = operator_norm(op)
    bound = cert.c0 * gt.coherence_mu * gt.rank / math.sqrt(min(g.d1, g.d2)) * gt.sigma1
    params = {**_base_params(gt, g, cert, None), "sigma2_over_p": cert.sigma2 / g.rate,
              "masked_deviation": dev}
    return TheoryCheckReport("graph_deviation", 1, bound - dev, bound, params=params)


def _masked_product_energy(HU, HV, g):
    """(1/p) * ||masked(HU @ HV.T)||_F^2 on the edge set: the residual of
    ``observed_residual`` against all-zero observed values."""
    vals = observed_residual(HU, HV, Observation(g, np.zeros(g.m))).data
    return float((vals * vals).sum()) / g.rate


def check_masked_quartic(gt, g, trials, seed):
    """Quartic bound on the masked energy of lifted residual Grams.

    Rows of the lifted direction are clipped to the incoherence level the
    bound presumes before evaluating both sides.
    """
    _check_trials(trials)
    cert = certify(g)
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    nmin = min(g.n1, g.n2)
    row_cap = 4.0 * math.sqrt(mu * r * gt.sigma1 / nmin)
    coef = (
        16.0 * cert.c0 * mu * r * kappa * (math.sqrt(g.n1) + math.sqrt(g.n2))
        / (math.sqrt(g.rate) * nmin)
    ) * gt.sigma_r

    def draw(rng):
        H = rng.standard_normal((g.n1 + g.n2, r)) * rng.uniform(0.2, 1.0) * row_cap / math.sqrt(r)
        H = pgd.project_rows(pgd.FactorPair(H[: g.n1], H[g.n1 :]), row_cap)
        Hs = H.stacked()
        lhs = 2.0 * _masked_product_energy(H.X, H.Y, g)
        hf2 = float((Hs * Hs).sum())
        rhs = 2.0 * hf2**2 + coef * hf2
        return (rhs - lhs,), (rhs,)

    return _sampled("masked_quartic", trials, seed, draw,
                    params=_base_params(gt, g, cert, None))


def check_masked_row_bound(g, trials, seed):
    """Masked product energy against the row-norm bound, for arbitrary
    lifted factors."""
    _check_trials(trials)
    n = g.n1 + g.n2

    def draw(rng):
        A = rng.standard_normal((n, 3))
        B = rng.standard_normal((n, 3))
        # top-right block pairs A_i with B_{n1+j}; bottom-left pairs
        # B_i with A_{n1+j}, over the same edge set
        lhs = (
            _masked_product_energy(A[: g.n1], B[g.n1 :], g)
            + _masked_product_energy(B[: g.n1], A[g.n1 :], g)
        )
        a_f2 = float((A * A).sum())
        b_f2 = float((B * B).sum())
        a_row = float((A * A).sum(axis=1).max())
        b_row = float((B * B).sum(axis=1).max())
        rhs = max(g.n1, g.n2) * min(a_f2 * b_row, b_f2 * a_row)
        return (rhs - lhs,), (rhs,)

    return _sampled("masked_row_bound", trials, seed, draw, params={"d1": g.d1, "d2": g.d2})


def _random_orthogonal(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))


def check_pgd_geometry(gt, g, trials, seed):
    """Curvature, smoothness, and regularity margins of the balanced loss
    inside the basin the unscaled solver operates in.

    Samples are rotated targets plus a bounded perturbation, row-clipped to
    the constraint set.  The constants assume the balancing weight
    ``pgd.LAM`` = 1/2 and a sample-size regime recorded in ``out_of_regime``;
    outside it violations are informational.
    """
    _check_trials(trials)
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g)
    obs = observe(gt.matrix, g)
    _, _, clip_bound = pgd.spectral_init(obs, gt.rank, gt.coherence_mu)
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    sig1, sigr = gt.sigma1, gt.sigma_r
    Zs = gt.stacked_factor
    n1 = g.n1

    def draw(rng):
        R = _random_orthogonal(rng, r)
        W = rng.standard_normal(Zs.shape)
        W /= np.linalg.norm(W)
        eps = rng.uniform(0.05, 1.0) * 0.25 * math.sqrt(sigr)
        Zp = Zs @ R + eps * W
        pair = pgd.project_rows(pgd.FactorPair(Zp[:n1], Zp[n1:]), clip_bound)
        align = rotation_distance(pair, gt)
        H = align.H
        Zbar = pair.stacked() - H
        grad = pgd.gradient(pair, obs)
        Gs = grad.stacked()
        h2 = float((H * H).sum())
        cross = Zbar[:n1].T @ H[:n1] - Zbar[n1:].T @ H[n1:]  # Zbar' D H
        cross2 = float((cross * cross).sum())
        inner = float((Gs * H).sum())
        g2 = float((Gs * Gs).sum())

        smooth = 1524.0 * mu**2 * r**2 * sig1**2 * h2 + 5.0 * sig1 * cross2
        m_curv = inner - (0.375 * sigr * h2 + 0.25 * cross2)
        m_reg = inner - (0.125 * sigr * h2 + g2 / (6096.0 * mu**2 * r**2 * kappa * sig1))
        return (m_curv, smooth - g2, m_reg), (abs(inner) + 0.375 * sigr * h2 + 0.25 * cross2,
                                              smooth)

    required_rate = 262144.0 * cert.c0**2 * mu**2 * r**2 * kappa**2 / min(g.n1, g.n2)
    in_regime = g.rate >= required_rate and delta_d <= 1.0 / 64.0
    return _sampled("pgd_geometry", trials, seed, draw,
                    delta_tilde=_delta_tilde(delta_d, cert.c0, mu, r, min(g.d1, g.d2)),
                    params={**_base_params(gt, g, cert, delta_d),
                            "required_rate": required_rate, "rate": g.rate},
                    out_of_regime=not in_regime)


def check_scaled_geometry(gt, g, trials, seed):
    """Preconditioned curvature and smoothness margins inside the gauge basin."""
    _check_trials(trials)
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g)
    obs = observe(gt.matrix, g)
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    sigr = gt.sigma_r
    budget = scaled_pgd.incoherence_budget(mu, r, gt.sigma1)
    Wsq = np.sqrt(gt.svd.S)

    def draw(rng):
        dX = rng.standard_normal(gt.left_factor.shape)
        dY = rng.standard_normal(gt.right_factor.shape)
        norm = math.sqrt(
            float(((dX * Wsq) ** 2).sum()) + float(((dY * Wsq) ** 2).sum())
        )
        eps = rng.uniform(0.1, 1.0) * 0.1 * sigr / norm
        Q0 = np.eye(r) + 0.2 * rng.standard_normal((r, r))
        pair = scaled_pgd.project_rows(
            pgd.FactorPair(
                (gt.left_factor + eps * dX) @ Q0,
                (gt.right_factor + eps * dY) @ np.linalg.inv(Q0).T,
            ),
            budget,
        )
        align = gauge_distance(pair, gt)
        if not align.converged or align.distance > 0.1 * sigr + 1e-9:
            return None  # outside the gauge basin: not counted
        Q = align.Q
        DX = (pair.X @ Q - gt.left_factor) * Wsq
        DY = (pair.Y @ np.linalg.inv(Q).T - gt.right_factor) * Wsq

        PX, PY = scaled_pgd._preconditioned(*pair.r_major(),
                                            observed_residual(pair.X, pair.Y, obs))
        GX = (PX.T / obs.rate @ Q) * Wsq
        GY = (PY.T / obs.rate @ np.linalg.inv(Q).T) * Wsq

        dx2 = float((DX * DX).sum())
        dy2 = float((DY * DY).sum())
        m_curv_x = float((DX * GX).sum()) - (0.833 * dx2 - 0.023 * dy2)
        m_curv_y = float((DY * GY).sum()) - (0.833 * dy2 - 0.023 * dx2)
        m_smooth_x = 5.5 * (dx2 + dy2) - float((GX * GX).sum())
        m_smooth_y = 5.5 * (dx2 + dy2) - float((GY * GY).sum())
        return (m_curv_x, m_curv_y, m_smooth_x, m_smooth_y), (dx2 + dy2, 5.5 * (dx2 + dy2))

    required_deg = 100.0**2 * cert.c0**2 * mu**2 * r**2 * kappa**4
    in_regime = min(g.d1, g.d2) >= required_deg and delta_d <= 1.0 / 64.0
    return _sampled("scaled_geometry", trials, seed, draw,
                    params={**_base_params(gt, g, cert, delta_d),
                            "required_degree": required_deg},
                    out_of_regime=not in_regime)


def run_all(gt, g, trials, seed):
    """Run every check on one instance; returns the list of reports.

    ``trials`` below one is refused by the first check, before any work."""
    return [
        check_tangent_isometry(gt, g, trials, seed),
        check_bilinear_bound(g, trials, seed),
        check_graph_deviation(gt, g),
        check_masked_quartic(gt, g, trials, seed),
        check_masked_row_bound(g, trials, seed),
        check_pgd_geometry(gt, g, min(trials, 50), seed),
        check_scaled_geometry(gt, g, min(trials, 50), seed),
    ]
