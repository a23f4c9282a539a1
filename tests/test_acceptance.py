"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and instance sizes are pinned here;
Monte Carlo outcomes are regression-locked by fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from detmc import bench, graphs, metrics, pgd, sampling, scaled_pgd, theory
from support import complete_graph, constant_pair_residual, scaled_step


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num:02d} PASS: {name}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# 1. exact recovery on the desk instance
# ---------------------------------------------------------------------------


def test_criterion_01_exact_recovery(desk_graph):
    cert = graphs.certify(desk_graph)
    assert abs(cert.sigma1 - 60.0) <= 1e-6 * 60.0
    outcomes = {"pgd": 0, "scaled-pgd": 0}
    worst_wall = 0.0
    for trial in range(20):
        gt = bench.synthetic_low_rank(512, 512, 3, 1.0, seed=1000 + trial)
        obs = sampling.observe(gt.matrix, desk_graph)
        t0 = time.perf_counter()
        _, tr_p = pgd.solve(obs, 3, pgd.PgdConfig(max_iter=2000, tol=1e-6), gt=gt)
        _, tr_s = scaled_pgd.solve(
            obs, 3, scaled_pgd.ScaledPgdConfig(max_iter=2000, tol=1e-6), gt=gt
        )
        wall = time.perf_counter() - t0
        worst_wall = max(worst_wall, wall)
        assert wall < 120.0, f"trial {trial} exceeded the 2-minute budget"
        outcomes["pgd"] += tr_p.final_rel_error < 1e-6
        outcomes["scaled-pgd"] += tr_s.final_rel_error < 1e-6
    assert outcomes["pgd"] >= 19, outcomes
    assert outcomes["scaled-pgd"] >= 19, outcomes
    report(1, "exact recovery 19/20 within 2000 iterations",
           f"pgd {outcomes['pgd']}/20, scaled {outcomes['scaled-pgd']}/20, "
           f"worst trial {worst_wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. deterministic vs Bernoulli sampling (phase transition shape)
# ---------------------------------------------------------------------------


def test_criterion_02_phase_transition():
    cfg = bench.ExperimentConfig(
        n1=1092, n2=1092, r=3, degrees=(18, 20, 22, 23, 24), trials=20,
        eta=0.35, max_iter=1200, eval_every=5, seed=1,
        tol=1e-6,
    )
    rows = bench.run_phase_transition(cfg, solver="pgd")
    det = {r["p"]: r["success_ratio"] for r in rows if r["sampler"] == "deterministic"}
    ber = {r["p"]: r["success_ratio"] for r in rows if r["sampler"] == "bernoulli"}
    hits = sorted(p for p in det if det[p] == 1.0 and ber[p] < 0.9)
    assert hits, f"no separation point: det={det} bern={ber}"
    det_first = min((p for p, v in det.items() if v == 1.0), default=math.inf)
    ber_first = min((p for p, v in ber.items() if v == 1.0), default=math.inf)
    assert det_first < ber_first
    report(2, "deterministic curve saturates strictly before Bernoulli",
           f"separation at p={hits[0]:.4f}: det=1.0, bern={ber[hits[0]]:.2f}")


# ---------------------------------------------------------------------------
# 3. condition-number dependence of the rates
# ---------------------------------------------------------------------------


def test_criterion_03_kappa_dependence(desk_graph):
    t0 = time.perf_counter()
    scaled_rates = {}
    pgd_iters = {}
    for kappa in (1.0, 5.0, 10.0):
        gt = bench.synthetic_low_rank(512, 512, 3, kappa, seed=11)
        obs = sampling.observe(gt.matrix, desk_graph)
        _, tr_s = scaled_pgd.solve(
            obs, 3, scaled_pgd.ScaledPgdConfig(max_iter=4000, tol=1e-8), gt=gt
        )
        errs = np.asarray([e for e in tr_s.rel_error if np.isfinite(e)])
        band = errs[(errs < 1e-2) & (errs > 1e-8)]
        scaled_rates[kappa] = metrics.fit_linear_rate(band)
        _, tr_p = pgd.solve(
            obs, 3, pgd.PgdConfig(max_iter=8000, tol=1e-5), gt=gt
        )
        iters = tr_p.iterations_to(1e-4)
        assert iters is not None, f"pgd did not reach 1e-4 at kappa={kappa}"
        pgd_iters[kappa] = iters
    elapsed = time.perf_counter() - t0
    rates = list(scaled_rates.values())
    assert max(rates) - min(rates) <= 0.2 * min(rates), scaled_rates
    assert pgd_iters[10.0] >= 2 * pgd_iters[1.0], pgd_iters
    assert elapsed < 600.0
    report(3, "scaled rate is condition-number independent; plain rate is not",
           f"scaled rates {dict((k, round(v, 4)) for k, v in scaled_rates.items())}, "
           f"pgd iters {pgd_iters}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. solver comparison orderings (tables)
# ---------------------------------------------------------------------------


def test_criterion_04_solver_orderings():
    cfg = bench.ExperimentConfig(
        n1=512, n2=512, r=2, r_list=(2, 3), degrees=(60,), trials=3,
        tol=1e-4, seed=9, max_iter=6000,
    )
    rows = bench.run_solver_comparison(cfg, kappa=1.2)
    by = {(r["solver"], r["rank"]): r for r in rows}
    details = []
    for rank in (2, 3):
        it_s = by[("scaled-pgd", rank)]["mean_iters"]
        it_p = by[("pgd", rank)]["mean_iters"]
        w_s = by[("scaled-pgd", rank)]["mean_wall_seconds"]
        w_p = by[("pgd", rank)]["mean_wall_seconds"]
        w_i = by[("ialm", rank)]["mean_wall_seconds"]
        assert it_s < it_p, (rank, it_s, it_p)
        assert w_s <= w_p, (rank, w_s, w_p)
        assert w_p < w_i, (rank, w_p, w_i)
        details.append(
            f"r={rank}: iters {it_s:.0f}<{it_p:.0f}, "
            f"wall {w_s:.2f}<={w_p:.2f}<{w_i:.2f}s"
        )
    report(4, "iteration and wall-time orderings hold", "; ".join(details))


# ---------------------------------------------------------------------------
# 5. per-step contraction factors on in-basin trajectories
# ---------------------------------------------------------------------------


def test_criterion_05_contraction_factors(desk_graph):
    gt = bench.synthetic_low_rank(512, 512, 3, 5.0, seed=11)
    obs = sampling.observe(gt.matrix, desk_graph)

    _, tr = pgd.solve(
        obs, 3, pgd.PgdConfig(eta=0.25, max_iter=400, tol=1e-12, log_dist=True), gt=gt
    )
    dists = np.asarray(tr.dist)
    floor = 1e-8 * math.sqrt(gt.sigma_r)
    keep = dists[:-1] > floor
    ratios = (dists[1:] / dists[:-1])[keep]
    assert ratios.size >= 50
    assert ratios.max() <= 1.0 + 1e-12, ratios.max()

    eta = 0.1
    _, tr2 = scaled_pgd.solve(
        obs, 3,
        scaled_pgd.ScaledPgdConfig(eta=eta, max_iter=400, tol=1e-12, log_dist=True),
        gt=gt,
    )
    d2 = np.asarray(tr2.dist)
    inb = d2 <= 0.1 * gt.sigma_r
    assert inb.any()
    seg = d2[int(np.argmax(inb)):]
    # stay above the alignment solver's resolution floor so the ratios
    # measure contraction, not metric noise
    seg_ratios = (seg[1:] / seg[:-1])[seg[:-1] > 1e-5 * gt.sigma_r]
    bound = math.sqrt(1 - 1.6 * eta + 11 * eta * eta) + 0.05
    assert seg_ratios.size >= 50
    assert seg_ratios.max() <= bound, (seg_ratios.max(), bound)
    report(5, "distance contraction factors within the stated bounds",
           f"pgd worst {ratios.max():.6f} <= 1, "
           f"scaled worst {seg_ratios.max():.4f} <= {bound:.4f} over {seg_ratios.size} steps")


# ---------------------------------------------------------------------------
# 6. gradient correctness against finite differences / explicit inverses
# ---------------------------------------------------------------------------


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst_fd = 0.0
    worst_step = 0.0
    for trial in range(20):
        n1 = int(rng.integers(6, 17))
        n2 = int(rng.integers(6, 17))
        r = int(rng.integers(1, 4))
        d1 = int(rng.integers(2, n2 + 1))
        while (n1 * d1) % n2 != 0 or (n1 * d1) // n2 > n1:
            d1 = int(rng.integers(2, n2 + 1))
        gt = bench.synthetic_low_rank(n1, n2, r, 2.0, seed=3000 + trial)
        g = graphs.random_biregular(n1, n2, d1, seed=4000 + trial)
        obs = sampling.observe(gt.matrix, g)
        X = rng.standard_normal((n1, r))
        Y = rng.standard_normal((n2, r))
        pair = pgd.FactorPair(X, Y)
        lam = 0.5
        grad = pgd.gradient(pair, obs, lam)
        h = 1e-6
        scale = max(
            np.abs(grad.X).max(), np.abs(grad.Y).max(), 1e-6
        )
        for (A, G, is_x) in ((X, grad.X, True), (Y, grad.Y, False)):
            for i in range(A.shape[0]):
                for j in range(r):
                    Ap, Am = A.copy(), A.copy()
                    Ap[i, j] += h
                    Am[i, j] -= h
                    if is_x:
                        fd = (pgd.loss(pgd.FactorPair(Ap, Y), obs, lam)
                              - pgd.loss(pgd.FactorPair(Am, Y), obs, lam)) / (2 * h)
                    else:
                        fd = (pgd.loss(pgd.FactorPair(X, Ap), obs, lam)
                              - pgd.loss(pgd.FactorPair(X, Am), obs, lam)) / (2 * h)
                    worst_fd = max(worst_fd, abs(fd - G[i, j]) / max(abs(fd), scale))

        # scaled step against the dense explicit-inverse composition
        Xw = gt.left_factor + 0.3 * rng.standard_normal((n1, r))
        Yw = gt.right_factor + 0.3 * rng.standard_normal((n2, r))
        eta = 0.12
        out = scaled_step(pgd.FactorPair(Xw, Yw), obs, eta=eta)
        mask = np.zeros((n1, n2))
        mask[g.rows, g.cols] = 1.0
        Kd = (Xw @ Yw.T - gt.matrix) * mask
        Xo = Xw - (eta / g.rate) * Kd @ Yw @ np.linalg.inv(Yw.T @ Yw)
        Yo = Yw - (eta / g.rate) * Kd.T @ Xw @ np.linalg.inv(Xw.T @ Xw)
        denom = max(np.abs(Xo).max(), np.abs(Yo).max())
        worst_step = max(
            worst_step,
            np.abs(out.X - Xo).max() / denom,
            np.abs(out.Y - Yo).max() / denom,
        )
    assert worst_fd < 1e-6, worst_fd
    assert worst_step < 1e-6, worst_step
    report(6, "gradients match finite differences and explicit inverses",
           f"worst FD {worst_fd:.2e}, worst step {worst_step:.2e}")


# ---------------------------------------------------------------------------
# 7. projection oracles
# ---------------------------------------------------------------------------


def test_criterion_07_projection_oracles():
    rng = np.random.default_rng(7)
    bound = 1.5
    for _ in range(1000):
        Z = rng.standard_normal((10, 2)) * rng.uniform(0.5, 4.0)
        Zbar = rng.standard_normal((10, 2))
        norms = np.sqrt((Zbar**2).sum(axis=1, keepdims=True))
        Zbar = Zbar / np.maximum(norms / bound, 1.0)
        pz = pgd.project_rows(pgd.FactorPair(Z[:6], Z[6:]), bound)
        assert (
            np.linalg.norm(pz.stacked() - Zbar)
            <= np.linalg.norm(Z - Zbar) + 1e-12
        )

    from test_scaled_pgd import ball_projection_oracle

    worst = 0.0
    for trial in range(100):
        X = rng.standard_normal((5, 3)) * rng.uniform(0.5, 3.0)
        Y = rng.standard_normal((4, 3)) * rng.uniform(0.5, 3.0)
        budget = rng.uniform(0.8, 6.0)
        out = scaled_pgd.project_rows(pgd.FactorPair(X, Y), budget)
        ox, oy = ball_projection_oracle(X, Y, budget)
        worst = max(worst, np.abs(out.X - ox).max(), np.abs(out.Y - oy).max())
        if trial % 10 == 0:
            # argmin transversality: feasible perturbations cannot improve
            gy = Y.T @ Y
            def objective(A, ref, gram):
                d = A - ref
                return float(np.einsum("ij,jk,ik->", d, gram, d))
            base = objective(out.X, X, gy)
            for _ in range(20):
                cand = out.X + 0.02 * rng.standard_normal(X.shape)
                prod = np.sqrt(np.einsum("ij,jk,ik->i", cand, gy, cand))
                if np.sqrt(5) * prod.max() <= budget:
                    assert objective(cand, X, gy) >= base - 1e-10
    assert worst <= 1e-8, worst
    report(7, "row-clipping non-expansive; scaled projection matches the oracle",
           f"worst oracle gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. gauge alignment solver
# ---------------------------------------------------------------------------


def test_criterion_08_alignment_solver():
    from test_metrics import scalar_gauge_oracle

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(100):
        gt = bench.synthetic_low_rank(6, 5, 1, 1.0, seed=5000 + trial)
        pair = pgd.FactorPair(
            gt.left_factor + rng.uniform(0.05, 0.4) * rng.standard_normal((6, 1)),
            gt.right_factor + rng.uniform(0.05, 0.4) * rng.standard_normal((5, 1)),
        )
        res = metrics.gauge_distance(pair, gt)
        oracle = scalar_gauge_oracle(
            pair.X[:, 0], pair.Y[:, 0],
            gt.left_factor[:, 0], gt.right_factor[:, 0], float(gt.svd.S[0]),
        )
        worst = max(worst, abs(res.distance - oracle))
    assert worst <= 1e-8, worst

    gt = bench.synthetic_low_rank(14, 11, 3, 5.0, seed=6000)
    for c in (0.5, 2.0, 7.0):
        pair = pgd.FactorPair(c * gt.left_factor, gt.right_factor / c)
        assert metrics.gauge_distance(pair, gt).distance <= 1e-10
    report(8, "gauge distance matches the scalar oracle and diagonal gauges",
           f"worst scalar gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. graph certification
# ---------------------------------------------------------------------------


def test_criterion_09_graph_certification(lps_5_13, lps_5_13_cert):
    g, cert = lps_5_13, lps_5_13_cert
    assert g.n1 == g.n2 == 1092
    assert g.d1 == g.d2 == 6
    assert abs(cert.sigma1 - 6.0) <= 1e-6
    assert cert.sigma2 <= 2 * math.sqrt(5) + 1e-6
    assert cert.is_ramanujan

    k33 = graphs.certify(complete_graph(3, 3))
    assert k33.sigma1 == pytest.approx(3.0, abs=1e-12)
    assert k33.sigma2 == pytest.approx(0.0, abs=1e-12)
    assert k33.is_ramanujan
    k22_graph = complete_graph(2, 2)
    k22 = graphs.certify(k22_graph)
    assert k22.sigma1 == pytest.approx(2.0, abs=1e-12)
    assert constant_pair_residual(k22_graph) <= 1e-12 * math.sqrt(2 * 2)
    report(9, "LPS(5,13) certifies Ramanujan; complete controls exact",
           f"sigma2 {cert.sigma2:.6f} <= {2 * math.sqrt(5):.6f}")


# ---------------------------------------------------------------------------
# 10. inequality margin suite
# ---------------------------------------------------------------------------


def test_criterion_10_margin_suite(lps_5_13):
    t0 = time.perf_counter()
    gt = bench.synthetic_low_rank(1092, 1092, 3, 2.0, seed=3)
    reports = [
        theory.check_tangent_isometry(gt, lps_5_13, trials=200, seed=10),
        theory.check_bilinear_bound(lps_5_13, trials=200, seed=10),
        theory.check_graph_deviation(gt, lps_5_13),
        theory.check_masked_quartic(gt, lps_5_13, trials=200, seed=10),
        theory.check_masked_row_bound(lps_5_13, trials=200, seed=10),
    ]
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.worst_margin >= -1e-9 * rep.scale, rep.to_dict()
    assert elapsed < 300.0
    worst = min(r.worst_margin / max(r.scale, 1e-300) for r in reports)
    report(10, "all inequality margins nonnegative over 200 trials",
           f"worst relative margin {worst:+.2e}, {elapsed:.0f}s")
