"""Numerical verification of the recovery inequalities.

Each check evaluates both sides of a stated inequality on concrete random
instances and reports the worst margin (right side minus left side;
negative means a violation).  These are spot checks with recorded seeds,
not proofs.  Checks whose constants assume a sample-size regime the
instance does not satisfy are labeled out-of-regime and their margins are
informational.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import pgd, scaled_pgd
from .graphs import certify
from .kernels import operator_norm
from .metrics import gauge_distance, rotation_distance
from .sampling import observe, observed_residual, subset_isotropy_gap

_PASS_SLACK = 1e-9


@dataclass
class TheoryCheckReport:
    check_name: str
    instances_tested: int
    worst_margin: float
    scale: float  # magnitude of the bound, for relative pass judgment
    delta_tilde: float | None
    params: dict = field(default_factory=dict)
    out_of_regime: bool = False
    seed: int = 0

    @property
    def passed(self):
        return self.worst_margin >= -_PASS_SLACK * self.scale

    def to_dict(self):
        return {
            "check_name": self.check_name,
            "instances_tested": int(self.instances_tested),
            "worst_margin": float(self.worst_margin),
            "scale": float(self.scale),
            "delta_tilde": None if self.delta_tilde is None else float(self.delta_tilde),
            "params": {k: (None if v is None else float(v)) for k, v in self.params.items()},
            "out_of_regime": bool(self.out_of_regime),
            "seed": int(self.seed),
            "passed": bool(self.passed),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, default=float)


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


def check_tangent_isometry(gt, g, trials, seed, extra_subsets=0):
    """Near-isometry of the rescaled sampling operator on the tangent space.

    For random elements Z = U* A' + B V*' the rescaled masked energy must
    stay within a factor (1 +- delta_tilde) of the full energy, with
    delta_tilde assembled from the measured isotropy gap and the
    certificate constant.
    """
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g, extra_subsets=extra_subsets, seed=seed).delta_d_estimate
    dt = _delta_tilde(delta_d, cert.c0, gt.coherence_mu, gt.rank, min(g.d1, g.d2))
    U, V = gt.svd.U, gt.svd.V
    rng = np.random.default_rng(seed)
    worst = np.inf
    scale = 0.0
    for _ in range(trials):
        Z = U @ rng.standard_normal((g.n2, gt.rank)).T \
            + rng.standard_normal((g.n1, gt.rank)) @ V.T
        full = float((Z * Z).sum())
        masked = float((Z[g.rows, g.cols] ** 2).sum()) / g.rate
        worst = min(worst, (1 + dt) * full - masked, masked - (1 - dt) * full)
        scale = max(scale, (1 + dt) * full)
    return TheoryCheckReport(
        check_name="tangent_isometry",
        instances_tested=trials,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=dt,
        params=_base_params(gt, g, cert, delta_d),
        seed=seed,
    )


def check_bilinear_bound(g, trials, seed):
    """Rescaled bilinear sums over the edge set against the l1/l2 bound."""
    cert = certify(g)
    rng = np.random.default_rng(seed)
    slack = 0.5 * cert.c0 * (math.sqrt(g.n1) + math.sqrt(g.n2)) / math.sqrt(g.rate)
    worst = np.inf
    scale = 0.0
    for _ in range(trials):
        x = np.abs(rng.standard_normal(g.n1))
        y = np.abs(rng.standard_normal(g.n2))
        lhs = float(x @ (g.adjacency @ y)) / g.rate
        rhs = x.sum() * y.sum() + slack * np.linalg.norm(x) * np.linalg.norm(y)
        worst = min(worst, rhs - lhs)
        scale = max(scale, rhs)
    return TheoryCheckReport(
        check_name="bilinear_bound",
        instances_tested=trials,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=None,
        params=_base_params(None, g, cert, None),
        seed=seed,
    )


def check_graph_deviation(g, gt=None):
    """Spectral deviation of the rescaled adjacency from the all-ones matrix,
    and (with a ground truth) of the rescaled masked matrix from the matrix.
    """
    cert = certify(g)
    A = g.adjacency
    ones_l = np.ones(g.n1)
    ones_r = np.ones(g.n2)

    def matvec(x):
        x = np.asarray(x).ravel()
        return (A @ x) / g.rate - ones_l * (ones_r @ x)

    def rmatvec(y):
        y = np.asarray(y).ravel()
        return (A.T @ y) / g.rate - ones_r * (ones_l @ y)

    op = scipy.sparse.linalg.LinearOperator(
        (g.n1, g.n2), matvec=matvec, rmatvec=rmatvec, dtype=np.float64
    )
    # start vector must have mass off the constant direction (the operator's
    # kernel for biregular graphs)
    v0 = np.random.default_rng(11).standard_normal(min(g.n1, g.n2))
    probe = matvec(v0) if g.n2 <= g.n1 else rmatvec(v0)
    if np.linalg.norm(probe) <= 1e-12 * np.linalg.norm(v0) / g.rate:
        dev = 0.0  # complete graph: the rescaled adjacency IS all-ones
    else:
        dev = float(scipy.sparse.linalg.svds(
            op, k=1, v0=v0, return_singular_vectors=False, maxiter=50_000
        )[0])
    bound = cert.c0 * math.sqrt(g.n1 * g.n2) / math.sqrt(min(g.d1, g.d2))
    margins = [bound - dev]
    scale = bound
    instances = 1
    if gt is not None:
        rescaled = np.zeros((g.n1, g.n2))
        rescaled[g.rows, g.cols] = gt.matrix[g.rows, g.cols] / g.rate
        dev2 = operator_norm(rescaled - gt.matrix)
        bound2 = (
            cert.c0 * gt.coherence_mu * gt.rank / math.sqrt(min(g.d1, g.d2))
        ) * operator_norm(gt.matrix)
        margins.append(bound2 - dev2)
        scale = max(scale, bound2)
        instances += 1
    return TheoryCheckReport(
        check_name="graph_deviation",
        instances_tested=instances,
        worst_margin=float(min(margins)),
        scale=scale,
        delta_tilde=None,
        params={**_base_params(gt, g, cert, None), "deviation": dev,
                "sigma2_over_p": cert.sigma2 / g.rate},
    )


def _masked_product_energy(HU, HV, g):
    """(1/p) * ||masked(HU @ HV.T)||_F^2 computed on the edge set."""
    vals = np.einsum("ij,ij->i", HU[g.rows], HV[g.cols])
    return float((vals * vals).sum()) / g.rate


def check_masked_quartic(gt, g, trials, seed):
    """Quartic bound on the masked energy of lifted residual Grams.

    Rows of the lifted direction are clipped to the incoherence level the
    bound presumes before evaluating both sides.
    """
    cert = certify(g)
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    nmin = min(g.n1, g.n2)
    row_cap = 4.0 * math.sqrt(mu * r * gt.sigma1 / nmin)
    coef = (
        16.0 * cert.c0 * mu * r * kappa * (math.sqrt(g.n1) + math.sqrt(g.n2))
        / (math.sqrt(g.rate) * nmin)
    ) * gt.sigma_r
    rng = np.random.default_rng(seed)
    worst = np.inf
    scale = 0.0
    for _ in range(trials):
        H = rng.standard_normal((g.n1 + g.n2, r)) * rng.uniform(0.2, 1.0) * row_cap / math.sqrt(r)
        H = pgd.project_rows(pgd.FactorPair(H[: g.n1], H[g.n1 :]), row_cap)
        Hs = H.stacked()
        lhs = 2.0 * _masked_product_energy(H.X, H.Y, g)
        hf2 = float((Hs * Hs).sum())
        rhs = 2.0 * hf2**2 + coef * hf2
        worst = min(worst, rhs - lhs)
        scale = max(scale, rhs)
    return TheoryCheckReport(
        check_name="masked_quartic",
        instances_tested=trials,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=None,
        params=_base_params(gt, g, cert, None),
        seed=seed,
    )


def check_masked_row_bound(g, trials, seed, width=3):
    """Masked product energy against the row-norm bound, for arbitrary
    lifted factors."""
    rng = np.random.default_rng(seed)
    n = g.n1 + g.n2
    worst = np.inf
    scale = 0.0
    for _ in range(trials):
        A = rng.standard_normal((n, width))
        B = rng.standard_normal((n, width))
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
        worst = min(worst, rhs - lhs)
        scale = max(scale, rhs)
    return TheoryCheckReport(
        check_name="masked_row_bound",
        instances_tested=trials,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=None,
        params={"d1": g.d1, "d2": g.d2},
        seed=seed,
    )


def _random_orthogonal(rng, r):
    Q, R = np.linalg.qr(rng.standard_normal((r, r)))
    return Q * np.sign(np.diag(R))


def check_pgd_geometry(gt, g, trials, seed):
    """Curvature, smoothness, and regularity margins of the balanced loss
    inside the basin the unscaled solver operates in.

    Samples are rotated targets plus a bounded perturbation, row-clipped to
    the constraint set.  The constants assume a sample-size regime recorded
    in ``out_of_regime``; outside it violations are informational.
    """
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g, seed=seed).delta_d_estimate
    obs = observe(gt.matrix, g)
    _, _, clip_bound = pgd.spectral_init(obs, gt.rank, gt.coherence_mu)
    lam = 0.5
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    sig1, sigr = gt.sigma1, gt.sigma_r
    Zs = gt.stacked_factor
    n1 = g.n1

    rng = np.random.default_rng(seed)
    worst = np.inf
    scale = 0.0
    for _ in range(trials):
        R = _random_orthogonal(rng, r)
        W = rng.standard_normal(Zs.shape)
        W /= np.linalg.norm(W)
        eps = rng.uniform(0.05, 1.0) * 0.25 * math.sqrt(sigr)
        Zp = Zs @ R + eps * W
        pair = pgd.project_rows(pgd.FactorPair(Zp[:n1], Zp[n1:]), clip_bound)
        align = rotation_distance(pair, gt)
        H = align.H
        Zbar = pair.stacked() - H
        grad = pgd.gradient(pair, obs, lam)
        Gs = grad.stacked()
        h2 = float((H * H).sum())
        cross = Zbar[:n1].T @ H[:n1] - Zbar[n1:].T @ H[n1:]  # Zbar' D H
        cross2 = float((cross * cross).sum())
        inner = float((Gs * H).sum())
        g2 = float((Gs * Gs).sum())

        m_curv = inner - (0.375 * sigr * h2 + 0.25 * cross2)
        m_smooth = (1524.0 * mu**2 * r**2 * sig1**2 * h2 + 5.0 * sig1 * cross2) - g2
        m_reg = inner - (0.125 * sigr * h2 + g2 / (6096.0 * mu**2 * r**2 * kappa * sig1))
        worst = min(worst, m_curv, m_smooth, m_reg)
        scale = max(scale, abs(inner) + 0.375 * sigr * h2 + 0.25 * cross2,
                    1524.0 * mu**2 * r**2 * sig1**2 * h2 + 5.0 * sig1 * cross2)

    required_rate = 262144.0 * cert.c0**2 * mu**2 * r**2 * kappa**2 / min(g.n1, g.n2)
    in_regime = g.rate >= required_rate and delta_d <= 1.0 / 64.0
    return TheoryCheckReport(
        check_name="pgd_geometry",
        instances_tested=trials,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=_delta_tilde(delta_d, cert.c0, mu, r, min(g.d1, g.d2)),
        params={**_base_params(gt, g, cert, delta_d),
                "required_rate": required_rate, "rate": g.rate},
        out_of_regime=not in_regime,
        seed=seed,
    )


def check_scaled_geometry(gt, g, trials, seed, alpha=0.1):
    """Preconditioned curvature and smoothness margins inside the gauge basin."""
    cert = certify(g)
    delta_d = subset_isotropy_gap(gt, g, seed=seed).delta_d_estimate
    obs = observe(gt.matrix, g)
    mu, r, kappa = gt.coherence_mu, gt.rank, gt.condition_number
    sigr = gt.sigma_r
    budget = (1.0 + alpha) * math.sqrt(mu * r) * gt.sigma1
    Wsq = np.sqrt(gt.svd.S)

    rng = np.random.default_rng(seed)
    worst = np.inf
    scale = 0.0
    evaluated = 0
    for _ in range(trials):
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
            continue
        Q = align.Q
        DX = (pair.X @ Q - gt.left_factor) * Wsq
        DY = (pair.Y @ np.linalg.inv(Q).T - gt.right_factor) * Wsq

        K = observed_residual(pair.X, pair.Y, obs)
        NX = (K @ pair.Y) / obs.rate @ scaled_pgd._pinv_gram(pair.Y.T @ pair.Y, 1e-12)
        NY = (K.T @ pair.X) / obs.rate @ scaled_pgd._pinv_gram(pair.X.T @ pair.X, 1e-12)
        GX = (NX @ Q) * Wsq
        GY = (NY @ np.linalg.inv(Q).T) * Wsq

        dx2 = float((DX * DX).sum())
        dy2 = float((DY * DY).sum())
        m_curv_x = float((DX * GX).sum()) - (0.833 * dx2 - 0.023 * dy2)
        m_curv_y = float((DY * GY).sum()) - (0.833 * dy2 - 0.023 * dx2)
        m_smooth_x = 5.5 * (dx2 + dy2) - float((GX * GX).sum())
        m_smooth_y = 5.5 * (dx2 + dy2) - float((GY * GY).sum())
        worst = min(worst, m_curv_x, m_curv_y, m_smooth_x, m_smooth_y)
        scale = max(scale, dx2 + dy2, 5.5 * (dx2 + dy2))
        evaluated += 1

    required_deg = 100.0**2 * cert.c0**2 * mu**2 * r**2 * kappa**4
    in_regime = min(g.d1, g.d2) >= required_deg and delta_d <= 1.0 / 64.0
    if evaluated == 0:
        worst = float("nan")
    return TheoryCheckReport(
        check_name="scaled_geometry",
        instances_tested=evaluated,
        worst_margin=float(worst),
        scale=scale,
        delta_tilde=None,
        params={**_base_params(gt, g, cert, delta_d), "required_degree": required_deg},
        out_of_regime=not in_regime,
        seed=seed,
    )


def run_all(gt, g, trials, seed):
    """Run every check on one instance; returns the list of reports."""
    return [
        check_tangent_isometry(gt, g, trials, seed),
        check_bilinear_bound(g, trials, seed),
        check_graph_deviation(g, gt),
        check_masked_quartic(gt, g, trials, seed),
        check_masked_row_bound(g, trials, seed),
        check_pgd_geometry(gt, g, min(trials, 50), seed),
        check_scaled_geometry(gt, g, min(trials, 50), seed),
    ]
