"""Command-line interface.

Subcommands:

* ``graph gen|verify|export`` -- build, certify, or re-export sampling graphs
* ``complete`` -- complete an observed MatrixMarket file over a graph
* ``bench phase|convergence|compare`` -- the experiment sweeps
* ``theory run`` -- numerical margin checks of the recovery inequalities

Each subcommand takes only the flags it reads; a flat ``key=value`` config
file can preload any of them via ``--config``.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bench, graphs, sampling, theory
from .errors import (AlignmentError, DivergenceError, FormatError, GenerationError,
                     InputError, ParameterError)


def _parse_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def load_config_file(path):
    """Flat key=value file mirroring the long flags ('-' or '_' separators)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = _parse_value(raw.strip())
    return values


_SHARED_FLAGS = {  # dest: add_argument keywords of the flags several commands take
    "seed": {"type": int, "default": 0}, "out": {"default": None},
    "threads": {"type": int, "default": 1}, "tol": {"type": float, "default": None},
    "eta": {"type": float, "default": None}, "lam": {"type": float, "default": 0.5},
    "solver": {"choices": tuple(bench.SOLVERS), "default": "pgd"},
}


def _finish(parser, run, *dests):
    """Give a subcommand its handler ``run``, the shared flags ``dests`` (keys
    of ``_SHARED_FLAGS``) and ``--config``."""
    parser.set_defaults(run=run)
    for dest in dests:
        parser.add_argument(_flag_of(dest), dest=dest, **_SHARED_FLAGS[dest])
    parser.add_argument("--config", default=None, help="key=value defaults file")


def _int_list(text):
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text):
    return tuple(float(x) for x in text.split(",") if x)


def build_parser():
    parser = argparse.ArgumentParser(prog="detmc")
    sub = parser.add_subparsers(required=True)

    graph = sub.add_parser("graph", help="sampling-graph utilities")
    gsub = graph.add_subparsers(required=True)

    ggen = gsub.add_parser("gen", help="generate a certified sampling graph")
    ggen.add_argument("--kind", choices=("lps", "random"), required=True)
    ggen.add_argument("--p", type=int, help="LPS prime p (degree p+1)")
    ggen.add_argument("--q", type=int, help="LPS prime q (side q(q^2-1)/2)")
    ggen.add_argument("--n1", type=int)
    ggen.add_argument("--n2", type=int)
    ggen.add_argument("--d1", type=int)
    _finish(ggen, cmd_graph_gen, "seed", "out")

    gverify = gsub.add_parser("verify", help="print the spectral certificate")
    gverify.add_argument("--graph", required=True)
    _finish(gverify, cmd_graph_verify, "out")

    gexport = gsub.add_parser("export", help="export adjacency as MatrixMarket pattern")
    gexport.add_argument("--graph", required=True)
    _finish(gexport, cmd_graph_export, "out")

    complete = sub.add_parser("complete", help="complete an observed matrix file")
    complete.add_argument("--observed", required=True, help="MatrixMarket coordinate file")
    complete.add_argument("--graph", required=True, help="edge-list file of the pattern")
    complete.add_argument("--rank", type=int, required=True)
    complete.add_argument("--mu", type=float, default=2.0,
                          help="incoherence estimate for the projection")
    complete.add_argument("--max-iter", type=int, default=2000)
    _finish(complete, cmd_complete, "out", "tol", "eta", "lam", "solver")

    b = sub.add_parser("bench", help="experiment sweeps")
    bsub = b.add_subparsers(required=True)

    phase = bsub.add_parser("phase", help="success-ratio sweep vs Bernoulli sampling")
    phase.add_argument("--n", type=int, default=1092)
    phase.add_argument("--r", type=int, default=3)
    phase.add_argument("--degrees", type=_int_list, default=(18, 20, 22, 23, 24))
    phase.add_argument("--trials", type=int, default=20)
    phase.add_argument("--max-iter", type=int, default=2500)
    _finish(phase, cmd_bench_phase, *_SHARED_FLAGS)

    conv = bsub.add_parser("convergence", help="condition-number convergence study")
    conv.add_argument("--n", type=int, default=512)
    conv.add_argument("--ranks", type=_int_list, default=(3,))
    conv.add_argument("--kappas", type=_float_list, default=(1.0, 5.0, 10.0))
    conv.add_argument("--degree", type=int, default=60)
    conv.add_argument("--max-iter", type=int, default=6000)
    _finish(conv, cmd_bench_convergence, "seed", "out", "tol", "eta", "lam")

    comp = bsub.add_parser("compare", help="solver comparison table")
    comp.add_argument("--n", type=int, default=512)
    comp.add_argument("--ranks", type=_int_list, default=(2, 3))
    comp.add_argument("--degrees", type=_int_list, default=(60,))
    comp.add_argument("--trials", type=int, default=3)
    comp.add_argument("--max-iter", type=int, default=6000)
    _finish(comp, cmd_bench_compare, "seed", "out", "tol", "eta", "lam")

    th = sub.add_parser("theory", help="numerical inequality checks")
    tsub = th.add_subparsers(required=True)
    trun = tsub.add_parser("run", help="run every margin check")
    trun.add_argument("--n", type=int, default=512)
    trun.add_argument("--r", type=int, default=3)
    trun.add_argument("--d", type=int, default=60)
    trun.add_argument("--kappa", type=float, default=2.0)
    trun.add_argument("--lps", type=_int_list, default=None,
                      help="use an LPS graph 'p,q' instead of a random one")
    trun.add_argument("--trials", type=int, default=200)
    _finish(trun, cmd_theory_run, "seed", "out")

    return parser


def _flag_of(dest):
    return "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")


_LIST_DESTS = {"degrees": _int_list, "ranks": _int_list,
               "kappas": _float_list, "lps": _int_list}


def _apply_config(parser, argv):
    """Parse argv; config-file values fill every flag not given explicitly."""
    ns = parser.parse_args(argv)
    if not getattr(ns, "config", None):
        return ns
    values = load_config_file(ns.config)
    known = vars(ns)
    unknown = [k for k in values if k not in known or k == "run"]  # run: the handler
    if unknown:
        raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, val in values.items():
        flag = _flag_of(key)
        explicit = any(a == flag or a.startswith(flag + "=") for a in argv)
        if not explicit:
            if key in _LIST_DESTS and isinstance(val, (str, int, float)):
                val = _LIST_DESTS[key](str(val))
            setattr(ns, key, val)
    return ns


def cmd_graph_gen(args):
    if args.kind == "lps":
        if args.p is None or args.q is None:
            raise ParameterError("--kind lps requires --p and --q")
        g = graphs.lps_graph(args.p, args.q)
    else:
        if None in (args.n1, args.n2, args.d1):
            raise ParameterError("--kind random requires --n1, --n2, --d1")
        g = graphs.random_biregular(args.n1, args.n2, args.d1, seed=args.seed)
    out = args.out or "graph.edges"
    graphs.save_edges(g, out)
    cert = graphs.certify(g)
    print(json.dumps({"path": out, "n1": g.n1, "n2": g.n2, "d1": g.d1,
                      "d2": g.d2, **cert.to_dict()}, sort_keys=True))
    return 0


def cmd_graph_verify(args):
    g = graphs.load_edges(args.graph)
    cert = graphs.certify(g)
    payload = {"n1": g.n1, "n2": g.n2, "d1": g.d1, "d2": g.d2, **cert.to_dict()}
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if cert.is_ramanujan else 1


def cmd_graph_export(args):
    g = graphs.load_edges(args.graph)
    out = args.out or "graph.mtx"
    graphs.save_matrixmarket_pattern(g, out)
    print(json.dumps({"path": out, "entries": int(g.m)}))
    return 0


def cmd_complete(args):
    g = graphs.load_edges(args.graph)
    obs = sampling.load_observed(args.observed, g)
    tol = args.tol if args.tol is not None else 1e-6
    M, trace = bench.solve(args.solver, obs, args.rank, max_iter=args.max_iter, tol=tol,
                           eta=args.eta, lam=args.lam, mu=args.mu)
    if not isinstance(M, np.ndarray):
        M = M.X @ M.Y.T
    out = args.out or "completed.mtx"
    sampling.save_dense_array(M, out)
    feas = float(
        np.linalg.norm(M[g.rows, g.cols] - obs.values)
        / max(np.linalg.norm(obs.values), 1e-300)
    )
    print(json.dumps({
        "path": out, "solver": args.solver,
        "iterations": int(trace.iterations[-1]),
        "final_loss": float(trace.loss[-1]),
        "observed_residual": feas,
        "stop_reason": trace.meta["stop_reason"],
    }, sort_keys=True))
    return 0


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_bench_phase(args):
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, r=args.r, degrees=args.degrees, trials=args.trials,
        tol=args.tol if args.tol is not None else 1e-6,
        seed=args.seed, eta=args.eta, lam=args.lam, max_iter=args.max_iter,
        threads=args.threads, eval_every=5,
        success_threshold=bench.SUCCESS_THRESHOLD,
    )
    rows = bench.run_phase_transition(cfg, solver=args.solver)
    out = os.path.join(_outdir(args), "phase.csv")
    bench.write_csv(rows, out)
    print(json.dumps({"path": out, "rows": len(rows)}))
    return 0


def cmd_bench_convergence(args):
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, r=args.ranks[0], r_list=args.ranks,
        kappa_list=args.kappas, trials=1,
        tol=args.tol if args.tol is not None else 1e-4,
        seed=args.seed, eta=args.eta, lam=args.lam, max_iter=args.max_iter,
    )
    traces, rates = bench.run_convergence_comparison(cfg, degree=args.degree)
    outdir = _outdir(args)
    tpath = os.path.join(outdir, "convergence.csv")
    rpath = os.path.join(outdir, "convergence_rates.csv")
    bench.write_csv(traces, tpath)
    bench.write_csv(rates, rpath)
    print(json.dumps({"traces": tpath, "rates": rpath}))
    return 0


def cmd_bench_compare(args):
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, r=args.ranks[0], r_list=args.ranks,
        degrees=args.degrees, trials=args.trials,
        tol=args.tol if args.tol is not None else 1e-4,
        seed=args.seed, eta=args.eta, lam=args.lam, max_iter=args.max_iter,
    )
    rows = bench.run_solver_comparison(cfg)
    outdir = _outdir(args)
    cpath = os.path.join(outdir, "compare.csv")
    jpath = os.path.join(outdir, "compare.json")
    bench.write_csv(rows, cpath)
    bench.write_json(rows, jpath)
    print(json.dumps({"csv": cpath, "json": jpath}))
    return 0


def cmd_theory_run(args):
    if args.lps:
        g = graphs.lps_graph(*args.lps)
    else:
        g = graphs.random_biregular(args.n, args.n, args.d, seed=args.seed)
    gt = bench.synthetic_low_rank(g.n1, g.n2, args.r, args.kappa, seed=args.seed)
    reports = theory.run_all(gt, g, trials=args.trials, seed=args.seed)
    payload = [r.to_dict() for r in reports]
    for rep in payload:
        status = "pass" if rep["passed"] else "FAIL"
        print(f"{rep['check_name']:>18}: worst_margin={rep['worst_margin']:+.6e} "
              f"[{status}]{' (out of regime)' if rep['out_of_regime'] else ''}")
    if args.out:
        bench.write_json(payload, args.out)
    return 0 if all(r["passed"] or r["out_of_regime"] for r in payload) else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except (ParameterError, InputError, FormatError, GenerationError, DivergenceError,
            AlignmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
