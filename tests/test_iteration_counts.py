"""Pinned iteration counts of fixed solver runs.

A change to the solvers' arithmetic that moves a stop decision shows up
here as a changed count.  A shifted count is a finding to explain, never a
reason to loosen a tolerance.
"""

import numpy as np

from detmc import bench, graphs, ialm, pgd, sampling, scaled_pgd


def test_criterion_02_trial_counts():
    # criterion 02's trial 0 at d = 22 of its seed-1 ladder, on the certified
    # graph and on the Bernoulli mask of the same rate
    cfg = bench.ExperimentConfig(
        n1=1092, n2=1092, eta=0.35, max_iter=1200, eval_every=5, seed=1,
        tol=1e-6,
    )
    rows = bench.run_phase_transition(cfg, 3, (22,), 1, solver="pgd")
    iters = {row["sampler"]: row["mean_iters"] for row in rows}
    success = {row["sampler"]: row["success_ratio"] for row in rows}
    assert iters == {"deterministic": 360, "bernoulli": 645}
    assert success == {"deterministic": 1.0, "bernoulli": 1.0}


def test_table_instance_counts():
    # the 256 x 256, d = 64 and d = 32 instances of ``bench compare``'s
    # default seed at kappa 1.2, every solver at library defaults and tol 1e-4
    n, r, tol = 256, 3, 1e-4

    def instance(d):
        g = graphs.random_biregular(
            n, n, d, seed=np.random.SeedSequence((0, 1000 + d)).entropy)
        gt = bench.synthetic_low_rank(n, n, r, 1.2, np.random.SeedSequence((0, d, r, 0)))
        return gt, sampling.observe(gt.matrix, g)

    gt, obs = instance(32)
    # IALM settles away from the truth here and stops on its own fixed point
    _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol), gt=gt)
    assert (trace.iterations[-1], trace.meta["stop_reason"]) == (79, "stall")
    assert trace.final_rel_error > 10 * tol

    gt, obs = instance(64)
    _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol), gt=gt)
    assert (trace.iterations[-1], trace.meta["stop_reason"]) == (57, "tol")
    assert trace.final_rel_error < tol
    _, trace = pgd.solve(obs, r, pgd.PgdConfig(tol=tol), gt=gt)
    assert trace.iterations[-1] == 200
    assert trace.final_rel_error < tol
    _, trace = scaled_pgd.solve(obs, r, scaled_pgd.ScaledPgdConfig(tol=tol), gt=gt)
    assert trace.iterations[-1] == 112
    assert trace.final_rel_error < tol


def test_criterion_04_ialm_counts():
    # criterion 04's trial 0 at both ranks: 512 x 512, d = 60, kappa 1.2,
    # seed 9, IALM at tol 1e-4; every threshold takes the Gram route
    n, d, tol = 512, 60, 1e-4
    g = graphs.random_biregular(n, n, d, seed=np.random.SeedSequence((9, 1000 + d)).entropy)
    for r, expected in ((2, 88), (3, 89)):
        gt = bench.synthetic_low_rank(n, n, r, 1.2, np.random.SeedSequence((9, d, r, 0)))
        obs = sampling.observe(gt.matrix, g)
        _, trace = ialm.solve(obs, ialm.IalmConfig(tol=tol, max_iter=6000), gt=gt)
        assert (trace.iterations[-1], trace.meta["stop_reason"]) == (expected, "tol")
        assert trace.final_rel_error < tol
        assert trace.meta["svt_dense"] == 0


def test_cli_ladder_count():
    # the ``cli`` benchmark's complete-blind instance (ladder 0, op 0), run as
    # ``detmc complete --solver scaled-pgd --mu 8`` runs it: blind, at tol 1e-6
    n = 1024
    g = graphs.random_biregular(n, n, 40, seed=np.random.SeedSequence((0, 0, 1)).entropy)
    gt = bench.synthetic_low_rank(n, n, 5, 3.0, np.random.SeedSequence((0, 0, 2)))
    obs = sampling.observe(gt.matrix, g)
    _, trace = bench.solve("scaled-pgd", obs, 5, max_iter=2000, tol=1e-6, mu=8)
    assert (trace.iterations[-1], trace.meta["stop_reason"]) == (889, "loss-floor")
