"""How conditioning affects the two factored solvers.

The preconditioned update makes the per-iteration contraction factor
independent of the target's condition number; the plain update slows down
roughly in proportion to it.
"""

from detmc import bench

cfg = bench.ExperimentConfig(n1=256, n2=256, tol=1e-4, seed=4, max_iter=8000)
_, rates = bench.run_convergence_comparison(cfg, (3,), (1.0, 5.0, 10.0), degree=40)

print(f"{'solver':>12} {'kappa':>6} {'fitted rate':>12} {'iters to 1e-4':>14}")
for row in sorted(rates, key=lambda r: (r["solver"], r["kappa"])):
    print(f"{row['solver']:>12} {row['kappa']:>6.0f} "
          f"{row['rate']:>12.4f} {row['iters_to_tol']:>14d}")

scaled = [r["rate"] for r in rates if r["solver"] == "scaled-pgd"]
plain = {r["kappa"]: r["iters_to_tol"] for r in rates if r["solver"] == "pgd"}
print(f"\nscaled-rate spread across kappa: "
      f"{100 * (max(scaled) - min(scaled)) / min(scaled):.1f}%")
print(f"plain-solver slowdown kappa 10 vs 1: {plain[10.0] / plain[1.0]:.1f}x")
