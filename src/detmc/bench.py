"""Experiment driver: synthetic instances, phase-transition sweeps,
condition-number studies, and solver comparison tables.

Rows are deterministic per (config, axes), wall-time columns aside: trial
seeds are spawned from a master seed sequence, and rows come in sweep
order (degrees, then samplers; ranks, then kappas or degrees).
"""

import csv
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ialm, metrics, pgd, scaled_pgd
from .errors import DivergenceError, ParameterError
from .graphs import _check_sizes, _rng, bernoulli_mask, random_biregular
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
    _check_condition_number(cond)
    rng = _rng(seed)
    U = np.linalg.qr(rng.standard_normal((n1, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n2, r)))[0]
    S = cond ** np.linspace(1.0, 0.0, r) if r > 1 else np.array([float(cond)])
    return ground_truth_from_svd(U, S, V)


def _check_condition_number(cond):
    """Refuse a condition number below 1, NaN (which passes "cond < 1") or inf."""
    if not 1 <= cond < np.inf:
        raise ParameterError(f"condition number must be finite and at least 1, got {cond}")


@dataclass
class ExperimentConfig:
    """The settings every sweep reads; each sweep takes its own axes."""

    n1: int = 512
    n2: int = 512
    tol: float = 1e-4  # stop threshold; phase rows also count a success below it
    seed: int = 0
    eta: float | None = None  # solver default when None
    max_iter: int = 2000
    eval_every: int = 1

    def __post_init__(self):
        _check_sizes(self.n1, self.n2)
        if self.tol <= 0:
            raise ParameterError("tol must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def _check_sweep(degrees, trials):
    """Refuse a trial count below 1 and degrees that do not strictly increase."""
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ParameterError("sweep values must be strictly increasing")


SOLVERS = {
    "pgd": pgd.PgdConfig,
    "scaled-pgd": scaled_pgd.ScaledPgdConfig,
    "ialm": ialm.IalmConfig,
}


_SOLVER_SETTINGS = {f.name for config_cls in SOLVERS.values() for f in fields(config_cls)}


def solver_config(name, **settings):
    """The config of solver ``name`` (a key of ``SOLVERS``), built from the
    ``settings`` that are not None and are fields of its config class.  A
    setting only another solver reads is ignored, so one set of settings
    serves every solver (``bench convergence`` and ``compare`` give one
    ``eta`` to both factored solvers); one that no solver reads is refused.
    """
    if name not in SOLVERS:
        raise ParameterError(f"unknown solver {name!r}")
    unread = sorted(settings.keys() - _SOLVER_SETTINGS)
    if unread:
        raise ParameterError(f"no solver reads the setting {', '.join(unread)}")
    config_cls = SOLVERS[name]
    names = {f.name for f in fields(config_cls)}
    return config_cls(**{k: v for k, v in settings.items() if v is not None and k in names})


def solve(name, obs, r, gt=None, **settings):
    """Run solver ``name`` on ``obs`` at rank ``r``, configured by
    ``solver_config(name, **settings)``.  Returns the solver's ``(factor
    pair or dense estimate, trace)``.
    """
    config = solver_config(name, **settings)
    # the solve functions are looked up here, at call time, so that a
    # rebinding of ``pgd.solve`` and the like (tracing, tests) is honoured
    if name == "pgd":
        return pgd.solve(obs, r, config, gt=gt)
    if name == "scaled-pgd":
        return scaled_pgd.solve(obs, r, config, gt=gt)
    return ialm.solve(obs, config, gt=gt)


def _solver_settings(cfg):
    """The settings of ``cfg`` that solvers read: all but the sizes and the seed."""
    return {k: v for k, v in asdict(cfg).items() if k not in ("n1", "n2", "seed")}


def _check_solvers(cfg, *names):
    """Build the config of each solver a sweep runs from ``cfg``, so that a
    setting one of them refuses is refused before the sweep's first graph."""
    for name in names:
        solver_config(name, **_solver_settings(cfg))


def run_trial(solver, obs, r, gt, cfg):
    """The trace of one solver run under ``cfg``, also of one that diverges."""
    try:
        return solve(solver, obs, r, gt, **_solver_settings(cfg))[1]
    except DivergenceError as exc:
        return exc.trace


def _succeeded(trace, tol):
    return trace.meta["stop_reason"] != "diverged" and trace.final_rel_error < tol


# ---------------------------------------------------------------------------
# phase transition (deterministic vs Bernoulli sampling)
# ---------------------------------------------------------------------------


SAMPLERS = ("deterministic", "bernoulli")


def phase_trial(cfg, r, solver, graph, sampler, t):
    """Trial ``t`` of ``sampler`` at ``graph``'s degree d, on the rank-``r``,
    kappa = 1 ground truth and Bernoulli mask (at ``graph``'s rate) seeded by
    the children of ``SeedSequence((cfg.seed, d, t))``: ``(sampler, trace)``."""
    gt_seed, mask_seed = np.random.SeedSequence((cfg.seed, graph.d1, t)).spawn(2)
    gt = synthetic_low_rank(cfg.n1, cfg.n2, r, 1.0, gt_seed)
    if sampler == "deterministic":
        pattern = graph
    else:
        pattern = bernoulli_mask(cfg.n1, cfg.n2, graph.rate, mask_seed)
    return sampler, run_trial(solver, observe(gt.matrix, pattern), r, gt, cfg)


def run_phase_transition(cfg, r, degrees, trials, solver="pgd"):
    """Success ratios of ``trials`` rank-``r`` trials per degree and sampler;
    a trial stops, and succeeds, below ``cfg.tol``.  Returns rows (sampler, p,
    success_ratio, mean_iters).

    The graphs (seed ``SeedSequence((cfg.seed, d)).entropy``) are built
    here; the trials run as ``phase_trial`` on one worker process per core,
    each taking its BLAS thread count from the environment it inherits.
    """
    _check_sweep(degrees, trials)
    _check_solvers(cfg, solver)
    rows, tasks = [], []
    for d in degrees:
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
        tasks += [(cfg, r, solver, graph, s, t) for s in SAMPLERS for t in range(trials)]
    with ProcessPoolExecutor(min(len(tasks), os.cpu_count() or 1) or 1) as pool:
        results = pool.map(phase_trial, *zip(*tasks))  # in the order of tasks
    for row in rows:
        if row["sampler"] != "skipped":
            traces = [next(results)[1] for _ in range(trials)]
            row["success_ratio"] = sum(_succeeded(tr, cfg.tol) for tr in traces) / trials
            row["mean_iters"] = float(np.mean([tr.iterations[-1] for tr in traces]))
    return rows


# ---------------------------------------------------------------------------
# condition-number convergence study
# ---------------------------------------------------------------------------


def run_convergence_comparison(cfg, ranks, kappas, degree=60):
    """Full error traces of PGD and scaled PGD per (r, kappa), and fitted rates.

    Returns (trace_rows, rate_rows); trace rows are long-format
    (solver, kappa, r, iter, rel_error).
    """
    for kappa in kappas:  # before int(10 * kappa) seeds a trial with it
        _check_condition_number(kappa)
    factored = ("pgd", "scaled-pgd")
    _check_solvers(cfg, *factored)
    trace_rows = []
    rate_rows = []
    for r in ranks:
        for kappa in kappas:
            ss = np.random.SeedSequence((cfg.seed, int(10 * kappa), r))
            gt_seed, graph_seed = ss.spawn(2)
            gt = synthetic_low_rank(cfg.n1, cfg.n2, r, kappa, gt_seed)
            graph = random_biregular(cfg.n1, cfg.n2, degree, seed=graph_seed.entropy)
            obs = observe(gt.matrix, graph)
            for solver in factored:
                trace = run_trial(solver, obs, r, gt, cfg)
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
                    "final_rel_error": trace.final_rel_error,
                })
    return trace_rows, rate_rows


# ---------------------------------------------------------------------------
# solver comparison table
# ---------------------------------------------------------------------------


def run_solver_comparison(cfg, ranks, degrees, trials, kappa=1.0):
    """Mean iterations / wall seconds of ``trials`` instances per (solver,
    rank, degree), for IALM, PGD and scaled PGD in that order.

    The same ground truths and graph are shared across solvers at each
    sweep point; timing runs execute serially, the solvers of one instance
    back to back, so that a drift in machine speed reaches every solver.
    """
    _check_sweep(degrees, trials)
    _check_solvers(cfg, *SOLVERS)
    rows = []
    for r in ranks:
        for d in degrees:
            graph = random_biregular(
                cfg.n1, cfg.n2, d,
                seed=np.random.SeedSequence((cfg.seed, 1000 + d)).entropy,
            )
            runs = {solver: [] for solver in ("ialm", "pgd", "scaled-pgd")}
            for t in range(trials):
                gt = synthetic_low_rank(
                    cfg.n1, cfg.n2, r, kappa,
                    np.random.SeedSequence((cfg.seed, d, r, t)),
                )
                obs = observe(gt.matrix, graph)
                for solver, traces in runs.items():
                    traces.append(run_trial(solver, obs, r, gt, cfg))
            for solver, traces in runs.items():
                rows.append({
                    "solver": solver,
                    "rank": r,
                    "degree": d,
                    "p": graph.rate,
                    "mean_iters": float(np.mean([tr.iterations[-1] for tr in traces])),
                    "mean_wall_seconds": float(np.mean([tr.solver_seconds for tr in traces])),
                    "std_wall_seconds": float(np.std([tr.solver_seconds for tr in traces])),
                    "mean_rel_error": float(np.mean([tr.final_rel_error for tr in traces])),
                    "trials": trials,
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
