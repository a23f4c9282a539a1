"""Iteration and wall-time comparison of the three completion methods.

The nuclear-norm baseline works on a dense n1 x n2 matrix every
iteration: a Gram product and the eigenpairs above its threshold (a full
SVD once the threshold is tiny next to the matrix).  The factored methods
touch only the observed entries and r-dimensional Gram matrices, which is
where their speed comes from.
"""

from detmc import bench

cfg = bench.ExperimentConfig(n1=256, n2=256, tol=1e-4, seed=9, max_iter=6000)
rows = bench.run_solver_comparison(cfg, (2, 3), (64,), 3, kappa=1.2)

print(f"{'solver':>12} {'rank':>5} {'p':>7} {'iters':>7} {'wall (s)':>9} {'rel err':>10}")
for row in rows:
    print(f"{row['solver']:>12} {row['rank']:>5d} {row['p']:>7.3f} "
          f"{row['mean_iters']:>7.0f} {row['mean_wall_seconds']:>9.3f} "
          f"{row['mean_rel_error']:>10.2e}")
