"""Pinned iteration counts of fixed solver runs.

A change to the solvers' arithmetic that moves a stop decision shows up
here as a changed count.  A shifted count is a finding to explain, never a
reason to loosen a tolerance.
"""

import numpy as np

from detmc import bench, graphs, pgd, sampling, scaled_pgd


def test_criterion_02_trial_counts():
    # criterion 02's trial 0 at d = 22 of its seed-1 ladder, on the certified
    # graph and on the Bernoulli mask of the same rate
    cfg = bench.ExperimentConfig(
        n1=1092, n2=1092, r=3, degrees=(22,), trials=1,
        eta=0.35, max_iter=1200, eval_every=5, seed=1,
        tol=1e-6, success_threshold=1e-6,
    )
    rows = bench.run_phase_transition(cfg, solver="pgd")
    iters = {row["sampler"]: row["mean_iters"] for row in rows}
    success = {row["sampler"]: row["success_ratio"] for row in rows}
    assert iters == {"deterministic": 360, "bernoulli": 645}
    assert success == {"deterministic": 1.0, "bernoulli": 1.0}


def test_table_instance_counts():
    # the 256 x 256, d = 64 instance of ``bench compare``'s default seed at
    # kappa 1.2, both factored solvers at library defaults and tol 1e-4
    n, d, r, tol = 256, 64, 3, 1e-4
    g = graphs.random_biregular(
        n, n, d, seed=np.random.SeedSequence((0, 1000 + d)).entropy)
    gt = bench.synthetic_low_rank(n, n, r, 1.2, np.random.SeedSequence((0, d, r, 0)))
    obs = sampling.observe(gt.matrix, g)
    _, trace = pgd.solve(obs, r, pgd.PgdConfig(tol=tol), gt=gt)
    assert trace.iterations[-1] == 200
    assert trace.final_rel_error < tol
    _, trace = scaled_pgd.solve(obs, r, scaled_pgd.ScaledPgdConfig(tol=tol), gt=gt)
    assert trace.iterations[-1] == 112
    assert trace.final_rel_error < tol
