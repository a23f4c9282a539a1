"""Experiment driver: synthetic instances, phase-transition sweeps,
condition-number studies, and solver comparison tables.

Experiments are deterministic per (config, seed): trial seeds are spawned
from a master seed sequence, results are sorted before emission, and
wall-time columns are the only nondeterministic output.
"""

import csv
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import ialm, metrics, pgd, scaled_pgd
from .errors import DivergenceError, ParameterError
from .graphs import bernoulli_mask, random_biregular
from .sampling import ground_truth_from_svd, observe


def synthetic_low_rank(n1, n2, r, cond, seed):
    """Random rank-r ground truth with a prescribed condition number.

    Gaussian factors are orthonormalized by QR and the spectrum is spaced
    geometrically from ``cond`` down to 1.  The achieved coherence is
    whatever the random subspaces give; it is recorded, not targeted.
    """
    if r < 1:
        raise ParameterError(f"rank must be at least 1, got {r}")
    if r > min(n1, n2):
        raise ParameterError(f"rank {r} exceeds min dimension")
    if cond < 1:
        raise ParameterError("condition number must be at least 1")
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n1, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n2, r)))[0]
    S = cond ** np.linspace(1.0, 0.0, r) if r > 1 else np.array([float(cond)])
    return ground_truth_from_svd(U, S, V)


@dataclass
class ExperimentConfig:
    n1: int = 512
    n2: int = 512
    r: int = 3
    r_list: tuple = ()  # per-rank sweeps; defaults to (r,)
    kappa_list: tuple = (1.0, 5.0, 10.0)
    degrees: tuple = (8, 10, 12, 16, 24, 36)
    trials: int = 20
    tol: float = 1e-4  # stop threshold; phase rows also count a success below it
    seed: int = 0
    eta: float | None = None  # solver default when None
    lam: float | None = None  # solver default when None
    max_iter: int = 2000
    eval_every: int = 1

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ParameterError(f"matrix sizes must be at least 1, got {self.n1} x {self.n2}")
        if self.trials < 1:
            raise ParameterError("trials must be at least 1")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        degs = tuple(self.degrees)
        if any(b <= a for a, b in zip(degs, degs[1:])):
            raise ParameterError("sweep values must be strictly increasing")
        if not self.r_list:
            self.r_list = (self.r,)


@dataclass
class TrialRecord:
    success: bool
    iterations: int
    wall_seconds: float
    final_rel_error: float


SOLVERS = {
    "pgd": pgd.PgdConfig,
    "scaled-pgd": scaled_pgd.ScaledPgdConfig,
    "ialm": ialm.IalmConfig,
}


def solve(name, obs, r, gt=None, **settings):
    """Run solver ``name`` (a key of ``SOLVERS``) on ``obs`` at rank ``r``.

    The config is built from the ``settings`` that are not None and are
    fields of that solver's config class; the rest are ignored, so one set
    of settings serves every solver (``bench convergence`` and ``compare``
    give one ``eta`` to both factored solvers).  Returns the solver's
    ``(factor pair or dense estimate, trace)``.
    """
    if name not in SOLVERS:
        raise ParameterError(f"unknown solver {name!r}")
    config_cls = SOLVERS[name]
    names = {f.name for f in fields(config_cls)}
    config = config_cls(**{k: v for k, v in settings.items()
                           if v is not None and k in names})
    # the solve functions are looked up here, at call time, so that a
    # rebinding of ``pgd.solve`` and the like (tracing, tests) is honoured
    if name == "pgd":
        return pgd.solve(obs, r, config, gt=gt)
    if name == "scaled-pgd":
        return scaled_pgd.solve(obs, r, config, gt=gt)
    return ialm.solve(obs, config, gt=gt)


def run_trial(solver, obs, r, gt, cfg):
    """One solver run wrapped into a TrialRecord (plus the trace)."""
    try:
        _, trace = solve(solver, obs, r, gt, max_iter=cfg.max_iter, tol=cfg.tol,
                         eta=cfg.eta, lam=cfg.lam, eval_every=cfg.eval_every)
        diverged = False
    except DivergenceError as exc:
        trace = exc.trace
        diverged = True
    rel = trace.final_rel_error
    record = TrialRecord(
        success=(not diverged) and rel < cfg.tol,
        iterations=trace.iterations[-1] if trace.iterations else 0,
        wall_seconds=trace.solver_seconds,
        final_rel_error=rel,
    )
    return record, trace


# ---------------------------------------------------------------------------
# phase transition (deterministic vs Bernoulli sampling)
# ---------------------------------------------------------------------------


SAMPLERS = ("deterministic", "bernoulli")


def phase_trial(cfg, solver, graph, sampler, t):
    """Trial ``t`` of ``sampler`` at ``graph``'s degree d, on the kappa = 1
    ground truth and Bernoulli mask (at ``graph``'s rate) seeded by the two
    children of ``SeedSequence((cfg.seed, d, t))``: ``(sampler, TrialRecord)``.
    """
    gt_seed, mask_seed = np.random.SeedSequence((cfg.seed, graph.d1, t)).spawn(2)
    gt = synthetic_low_rank(cfg.n1, cfg.n2, cfg.r, 1.0, gt_seed)
    if sampler == "deterministic":
        pattern = graph
    else:
        pattern = bernoulli_mask(cfg.n1, cfg.n2, graph.rate, mask_seed)
    rec, _ = run_trial(solver, observe(gt.matrix, pattern), cfg.r, gt, cfg)
    return sampler, rec


def run_phase_transition(cfg, solver="pgd"):
    """Success-ratio sweep over sampling rates for certified-graph vs
    Bernoulli sampling; a trial stops, and succeeds, below ``cfg.tol``.
    Returns rows (sampler, p, success_ratio, mean_iters).

    The graphs (seed ``SeedSequence((cfg.seed, d)).entropy``) are built
    here; the trials run as ``phase_trial`` on one worker process per core,
    each taking its BLAS thread count from the environment it inherits.
    """
    rows, tasks = [], []
    for d in cfg.degrees:
        try:
            graph = random_biregular(
                cfg.n1, cfg.n2, d, seed=np.random.SeedSequence((cfg.seed, d)).entropy
            )
        except ParameterError as exc:
            warnings.warn(f"skipping degree {d}: {exc}")
            rows.append({"sampler": "skipped", "p": d / cfg.n2,
                         "success_ratio": float("nan"), "mean_iters": float("nan")})
            continue
        rows += [{"sampler": s, "p": graph.rate} for s in SAMPLERS]
        tasks += [(cfg, solver, graph, s, t) for s in SAMPLERS for t in range(cfg.trials)]
    with ProcessPoolExecutor(min(len(tasks), os.cpu_count() or 1) or 1) as pool:
        results = pool.map(phase_trial, *zip(*tasks))  # in the order of tasks
    for row in rows:
        if row["sampler"] != "skipped":
            recs = [next(results)[1] for _ in range(cfg.trials)]
            row["success_ratio"] = sum(r.success for r in recs) / len(recs)
            row["mean_iters"] = float(np.mean([r.iterations for r in recs]))
    return rows


# ---------------------------------------------------------------------------
# condition-number convergence study
# ---------------------------------------------------------------------------


def run_convergence_comparison(cfg, degree=60):
    """Full error traces of PGD and scaled PGD per (kappa, r), and fitted rates.

    Returns (trace_rows, rate_rows); trace rows are long-format
    (solver, kappa, r, iter, rel_error).
    """
    trace_rows = []
    rate_rows = []
    for r in cfg.r_list:
        for kappa in cfg.kappa_list:
            ss = np.random.SeedSequence((cfg.seed, int(10 * kappa), r))
            gt_seed, graph_seed = ss.spawn(2)
            gt = synthetic_low_rank(cfg.n1, cfg.n2, r, kappa, gt_seed)
            graph = random_biregular(cfg.n1, cfg.n2, degree, seed=graph_seed.entropy)
            obs = observe(gt.matrix, graph)
            for solver in ("pgd", "scaled-pgd"):
                rec, trace = run_trial(solver, obs, r, gt, cfg)
                errs = np.asarray(trace.rel_error)
                for k, e in zip(trace.iterations, errs):
                    trace_rows.append({
                        "solver": solver, "kappa": kappa, "r": r,
                        "iter": k, "rel_error": e,
                    })
                # fit on the geometric decay band, skipping the initial
                # transient and the numerical floor
                keep = np.isfinite(errs) & (errs > 1e-10) & (errs < 1e-2)
                window = errs[keep]
                rate = metrics.fit_linear_rate(window) if window.size >= 5 else float("nan")
                iters_to_tol = trace.iterations_to(cfg.tol)
                rate_rows.append({
                    "solver": solver, "kappa": kappa, "r": r,
                    "rate": rate,
                    "iters_to_tol": -1 if iters_to_tol is None else iters_to_tol,
                    "final_rel_error": rec.final_rel_error,
                })
    return trace_rows, rate_rows


# ---------------------------------------------------------------------------
# solver comparison table
# ---------------------------------------------------------------------------


def run_solver_comparison(cfg, kappa=1.0):
    """Mean iterations / wall seconds per (solver, rank, degree), for IALM,
    PGD and scaled PGD in that order.

    The same ground truths and graph are shared across solvers at each
    sweep point; timing runs execute serially, the solvers of one instance
    back to back, so that a drift in machine speed reaches every solver.
    """
    rows = []
    for r in cfg.r_list:
        for d in cfg.degrees:
            graph = random_biregular(
                cfg.n1, cfg.n2, d,
                seed=np.random.SeedSequence((cfg.seed, 1000 + d)).entropy,
            )
            runs = {solver: [] for solver in ("ialm", "pgd", "scaled-pgd")}
            for t in range(cfg.trials):
                gt = synthetic_low_rank(
                    cfg.n1, cfg.n2, r, kappa,
                    np.random.SeedSequence((cfg.seed, d, r, t)),
                )
                obs = observe(gt.matrix, graph)
                for solver, recs in runs.items():
                    recs.append(run_trial(solver, obs, r, gt, cfg)[0])
            for solver, recs in runs.items():
                rows.append({
                    "solver": solver,
                    "rank": r,
                    "degree": d,
                    "p": graph.rate,
                    "mean_iters": float(np.mean([x.iterations for x in recs])),
                    "mean_wall_seconds": float(np.mean([x.wall_seconds for x in recs])),
                    "std_wall_seconds": float(np.std([x.wall_seconds for x in recs])),
                    "mean_rel_error": float(np.mean([x.final_rel_error for x in recs])),
                    "trials": cfg.trials,
                })
    return rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(rows, path):
    """Write dict rows as CSV; column order follows the first row."""
    if not rows:
        raise ParameterError("no rows to write")
    fields = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fields])


def write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
