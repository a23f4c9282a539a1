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
from dataclasses import asdict, fields

import numpy as np

from . import bench, graphs, sampling, theory
from .errors import DivergenceError, FormatError, GenerationError, InputError, ParameterError


def load_config_file(path):
    """Flat key=value file of raw strings keyed by long flag name ('-' or '_')."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            values[key.strip().replace("_", "-")] = raw.strip()
    return values


def _seed(text):
    """argparse type of ``--seed``: a non-negative integer, as numpy's seeding takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


_SHARED_FLAGS = {  # dest: add_argument keywords of the flags several commands take
    "seed": {"type": _seed, "default": 0}, "out": {"default": None}, "tol": {"type": float},
    "eta": {"type": float, "default": None},
    "solver": {"choices": tuple(bench.SOLVERS), "default": "pgd"},
}


def _finish(parser, run, *dests, required=(), **defaults):
    """Give a subcommand its handler ``run``, the shared flags ``dests`` (keys
    of ``_SHARED_FLAGS``), this command's ``defaults`` for them and ``--config``.

    The flags whose dests are ``required`` must be given, on the command line
    or in the config file; ``_apply_config`` checks them once the two are
    merged, as argparse's own check would refuse a flag given in the file."""
    for dest in dests:
        parser.add_argument(_flag_of(dest), dest=dest, **_SHARED_FLAGS[dest])
    parser.set_defaults(run=run, command=parser, required=required,
                        **defaults)  # over the shared ones
    parser.add_argument("--config", default=None, help="key=value defaults file")


def _comma_list(cast, length=None):
    """argparse type of a nonempty comma-separated list of ``cast`` values,
    ``length`` of them if that is given."""
    def parse(text):
        try:
            values = tuple(cast(x) for x in text.split(",") if x)
        except ValueError:
            values = ()
        if not values or length not in (None, len(values)):
            raise argparse.ArgumentTypeError(
                f"expected {length or 'one or more'} comma-separated {cast.__name__}s")
        return values
    return parse


def build_parser():
    parser = argparse.ArgumentParser(prog="detmc")
    sub = parser.add_subparsers(required=True)

    graph = sub.add_parser("graph", help="sampling-graph utilities")
    gsub = graph.add_subparsers(required=True)

    ggen = gsub.add_parser("gen", help="generate a certified sampling graph")
    ggen.add_argument("--kind", choices=("lps", "random"))
    ggen.add_argument("--p", type=int, help="LPS prime p (degree p+1)")
    ggen.add_argument("--q", type=int, help="LPS prime q (side q(q^2-1)/2)")
    ggen.add_argument("--n1", type=int)
    ggen.add_argument("--n2", type=int)
    ggen.add_argument("--d1", type=int)
    # seed None: --kind lps refuses it
    _finish(ggen, cmd_graph_gen, "seed", "out", required=("kind",), seed=None)

    gverify = gsub.add_parser("verify", help="print the spectral certificate")
    gverify.add_argument("--graph")
    _finish(gverify, cmd_graph_verify, "out", required=("graph",))

    gexport = gsub.add_parser("export", help="export adjacency as MatrixMarket pattern")
    gexport.add_argument("--graph")
    _finish(gexport, cmd_graph_export, "out", required=("graph",))

    complete = sub.add_parser("complete", help="complete an observed matrix file")
    complete.add_argument("--observed", help="MatrixMarket coordinate file")
    complete.add_argument("--graph", help="edge-list file of the pattern")
    complete.add_argument("--rank", type=int, help="rank of the factors (pgd, scaled-pgd)")
    complete.add_argument("--mu", type=float,
                          help="incoherence estimate for the projection")
    complete.add_argument("--max-iter", type=int, default=2000)
    _finish(complete, cmd_complete, "out", "tol", "eta", "solver",
            required=("observed", "graph"))

    b = sub.add_parser("bench", help="experiment sweeps")
    bsub = b.add_subparsers(required=True)

    phase = bsub.add_parser("phase", help="success-ratio sweep vs Bernoulli sampling")
    phase.add_argument("--n", type=int, default=1092)
    phase.add_argument("--r", type=int, default=3)
    phase.add_argument("--degrees", type=_comma_list(int), default=(18, 20, 22, 23, 24))
    phase.add_argument("--trials", type=int, default=20)
    phase.add_argument("--max-iter", type=int, default=2500)
    _finish(phase, cmd_bench_phase, *_SHARED_FLAGS, tol=1e-6)

    conv = bsub.add_parser("convergence", help="condition-number convergence study")
    conv.add_argument("--n", type=int, default=512)
    conv.add_argument("--ranks", type=_comma_list(int), default=(3,))
    conv.add_argument("--kappas", type=_comma_list(float), default=(1.0, 5.0, 10.0))
    conv.add_argument("--degree", type=int, default=60)
    conv.add_argument("--max-iter", type=int, default=6000)
    _finish(conv, cmd_bench_convergence, "seed", "out", "tol", "eta", tol=1e-4)

    comp = bsub.add_parser("compare", help="solver comparison table")
    comp.add_argument("--n", type=int, default=512)
    comp.add_argument("--ranks", type=_comma_list(int), default=(2, 3))
    comp.add_argument("--degrees", type=_comma_list(int), default=(60,))
    comp.add_argument("--trials", type=int, default=3)
    comp.add_argument("--max-iter", type=int, default=6000)
    _finish(comp, cmd_bench_compare, "seed", "out", "tol", "eta", tol=1e-4)

    th = sub.add_parser("theory", help="numerical inequality checks")
    tsub = th.add_subparsers(required=True)
    trun = tsub.add_parser("run", help="run every margin check")
    trun.add_argument("--n", type=int, help="side of the random graph (default 512)")
    trun.add_argument("--r", type=int, default=3)
    trun.add_argument("--d", type=int, help="degree of the random graph (default 60)")
    trun.add_argument("--kappa", type=float, default=2.0)
    trun.add_argument("--lps", type=_comma_list(int, 2),
                      help="use an LPS graph 'p,q' instead of a random one")
    trun.add_argument("--trials", type=int, default=200)
    _finish(trun, cmd_theory_run, "seed", "out")

    return parser


def _flag_of(dest):
    return "--" + dest.replace("_", "-")


def _apply_config(parser, argv):
    """Parse argv with the ``--config`` file's values as the defaults of the
    chosen subcommand's flags: argparse converts and checks them as it does
    the flags, and a flag given in argv, abbreviated or not, wins.  A required
    flag may come from either."""
    ns = parser.parse_args(argv)
    if ns.config:
        values = load_config_file(ns.config)
        actions = {key: ns.command._option_string_actions.get("--" + key) for key in values}
        unknown = [key for key, action in actions.items()
                   if action is None or action.dest in ("config", "help")]
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(sorted(unknown))}")
        ns.command.set_defaults(**{action.dest: values[key] for key, action in actions.items()})
        ns = parser.parse_args(argv)
        for action in actions.values():  # argparse checks choices in argv only
            value = getattr(ns, action.dest)
            if action.choices and value not in action.choices:
                ns.command.error(f"invalid choice {value!r} for {action.option_strings[0]}")
    missing = [_flag_of(dest) for dest in ns.required if getattr(ns, dest) is None]
    if missing:
        ns.command.error(f"the following arguments are required: {', '.join(missing)}")
    return ns


def _refuse_given(args, reader, dests):
    """Refuse the flags among ``dests`` that were given (are not None):
    ``reader``, the setting in force, does not read them."""
    given = [_flag_of(dest) for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ParameterError(f"{reader} does not read {', '.join(given)}")


def _tuning(args):
    """The ``--eta`` and ``--mu`` values given to a command that runs one
    ``--solver``; one that solver does not read is refused."""
    given = {dest: value for dest in ("eta", "mu")
             if (value := getattr(args, dest, None)) is not None}
    read = {f.name for f in fields(bench.SOLVERS[args.solver])}
    _refuse_given(args, f"--solver {args.solver}", [d for d in given if d not in read])
    return given


def cmd_graph_gen(args):
    out = _check_out_dir(args.out or "graph.edges")
    for kind, dests in {"lps": ("p", "q"), "random": ("n1", "n2", "d1")}.items():
        given = [getattr(args, dest) is not None for dest in dests]
        if given != [kind == args.kind] * len(dests):  # all of its own flags, none else
            verb = "requires" if kind == args.kind else "does not read"
            raise ParameterError(f"--kind {args.kind} {verb} --{', --'.join(dests)}")
    if args.kind == "lps":
        _refuse_given(args, "--kind lps", ("seed",))
        g = graphs.lps_graph(args.p, args.q)
    else:
        g = graphs.random_biregular(args.n1, args.n2, args.d1, seed=args.seed or 0)
    graphs.save_edges(g, out)
    cert = graphs.certify(g)
    print(json.dumps({"path": out, "n1": g.n1, "n2": g.n2, "d1": g.d1,
                      "d2": g.d2, **asdict(cert)}, sort_keys=True))
    return 0


def cmd_graph_verify(args):
    _check_out_dir(args.out)
    g = graphs.load_edges(args.graph)
    cert = graphs.certify(g)
    payload = {"n1": g.n1, "n2": g.n2, "d1": g.d1, "d2": g.d2, **asdict(cert)}
    print(json.dumps(payload, sort_keys=True, indent=2))
    if args.out:
        bench.write_json(payload, args.out)
    return 0 if cert.is_ramanujan else 1


def cmd_graph_export(args):
    out = _check_out_dir(args.out or "graph.mtx")
    g = graphs.load_edges(args.graph)
    graphs.save_matrixmarket_pattern(g, out)
    print(json.dumps({"path": out, "entries": int(g.m)}))
    return 0


def _check_out_dir(path):
    """``path`` (None: no ``--out``), refused before any work when it is a
    directory or its directory does not exist."""
    if path is not None and os.path.isdir(path):
        raise InputError(f"--out {path} is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(f"the directory of --out {path} does not exist")
    return path


def cmd_complete(args):
    tuning = _tuning(args)
    if args.solver == "ialm":  # the nuclear-norm solve finds its own rank
        _refuse_given(args, "--solver ialm", ("rank",))
        tuning["tol"] = 1e-6 if args.tol is None else args.tol
    else:  # a factored run without a ground truth stops on its loss, never on tol
        _refuse_given(args, f"--solver {args.solver}", ("tol",))
        if args.rank is None:
            raise ParameterError(f"--solver {args.solver} requires --rank")
    out = _check_out_dir(args.out or "completed.mtx")
    g = graphs.load_edges(args.graph)
    obs = sampling.load_observed(args.observed, g)
    M, trace = bench.solve(args.solver, obs, args.rank, max_iter=args.max_iter, **tuning)
    if not isinstance(M, np.ndarray):
        M = M.X @ M.Y.T
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
    """The directory of a sweep's ``--out`` ("." without one), refused before
    any work when it, or the part of its path that exists, is not a
    directory.  The command creates it only once the sweep has run, so a
    refused setting leaves no directory behind."""
    out = head = args.out or "."
    while not os.path.lexists(head):
        head = os.path.dirname(head) or "."
    if not os.path.isdir(head):
        raise InputError(f"--out {out} is not a directory" if head == out
                         else f"--out {out} is under {head}, which is not a directory")
    return out


def cmd_bench_phase(args):
    outdir = _outdir(args)
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, tol=args.tol, seed=args.seed, max_iter=args.max_iter,
        eval_every=5, **_tuning(args),
    )
    rows = bench.run_phase_transition(cfg, args.r, args.degrees, args.trials,
                                      solver=args.solver)
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, "phase.csv")
    bench.write_csv(rows, out)
    print(json.dumps({"path": out, "rows": len(rows)}))
    return 0


def cmd_bench_convergence(args):
    outdir = _outdir(args)
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, tol=args.tol, seed=args.seed, eta=args.eta,
        max_iter=args.max_iter,
    )
    traces, rates = bench.run_convergence_comparison(cfg, args.ranks, args.kappas,
                                                     degree=args.degree)
    os.makedirs(outdir, exist_ok=True)
    tpath = os.path.join(outdir, "convergence.csv")
    rpath = os.path.join(outdir, "convergence_rates.csv")
    bench.write_csv(traces, tpath)
    bench.write_csv(rates, rpath)
    print(json.dumps({"traces": tpath, "rates": rpath}))
    return 0


def cmd_bench_compare(args):
    outdir = _outdir(args)
    cfg = bench.ExperimentConfig(
        n1=args.n, n2=args.n, tol=args.tol, seed=args.seed, eta=args.eta,
        max_iter=args.max_iter,
    )
    rows = bench.run_solver_comparison(cfg, args.ranks, args.degrees, args.trials)
    os.makedirs(outdir, exist_ok=True)
    cpath = os.path.join(outdir, "compare.csv")
    jpath = os.path.join(outdir, "compare.json")
    bench.write_csv(rows, cpath)
    bench.write_json(rows, jpath)
    print(json.dumps({"csv": cpath, "json": jpath}))
    return 0


def cmd_theory_run(args):
    _check_out_dir(args.out)
    if args.trials < 1:
        raise ParameterError("trials must be at least 1")
    if args.lps is not None:
        _refuse_given(args, "--lps", ("n", "d"))
        g = graphs.lps_graph(*args.lps)
    else:
        n = 512 if args.n is None else args.n
        g = graphs.random_biregular(n, n, 60 if args.d is None else args.d, seed=args.seed)
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
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
