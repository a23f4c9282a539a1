"""Success-ratio curves: certified deterministic sampling vs Bernoulli masks.

At equal sampling budgets the certified biregular pattern wins: every row
and column receives exactly its share of observations, so recovery
saturates at a lower rate and in fewer iterations.  Desk-scale settings
here; expect a few minutes.
"""

from detmc import bench

cfg = bench.ExperimentConfig(
    n1=546, n2=546, eta=0.35, max_iter=1200, eval_every=5, seed=1,
    tol=1e-6,
)
rows = bench.run_phase_transition(cfg, 3, (10, 12, 14, 17, 21), 10, solver="pgd")

print(f"{'sampler':>14} {'p':>8} {'success':>8} {'mean iters':>11}")
for row in rows:
    print(f"{row['sampler']:>14} {row['p']:>8.4f} "
          f"{row['success_ratio']:>8.2f} {row['mean_iters']:>11.0f}")
