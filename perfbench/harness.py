"""Measured passes, set-up timing, coverage checks and the result line."""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy
import scipy

import report
import workloads
from tracing import Tracer

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

SETUP_REPEATS = 5
OVERRUN = 1.5  # no round starts that would end past this share of --seconds


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rounds_for(workload, seconds):
    """Rounds that fill ``seconds`` at the workload's nominal round time."""
    return max(1, int(seconds / workload.round_s + 0.5))


class Pass:
    """Closed-loop execution of whole rounds; one per measured pass.

    Runs ``rounds`` rounds, or fewer when the next round, at the mean
    round time so far, would end after ``deadline`` (a ``perf_counter``
    reading); the first round always runs.
    """

    def __init__(self, workload, rounds, tracer=None, deadline=float("inf")):
        self.durations = []  # per op
        self.round_durations = []
        self.ops = []  # every attempted op, by op id
        self.outcomes = []  # per round: tuple of every op's outcomes
        self.failures = []
        t0 = time.perf_counter()
        for _ in range(rounds):
            now = time.perf_counter()
            if self.outcomes and now + (now - t0) / len(self.outcomes) > deadline:
                break
            start = time.perf_counter()
            self.outcomes.append(tuple(self._op(workload, op, tracer)
                                       for op in workload.ops))
            self.round_durations.append(time.perf_counter() - start)
        self.elapsed = time.perf_counter() - t0

    @property
    def attempted(self):
        return len(self.ops)

    def _op(self, workload, op, tracer):
        op_id = len(self.ops)
        self.ops.append(op)
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open("harness.op")
        t = time.perf_counter()
        try:
            result = tuple(workload.run_op(op))
        except workloads.OracleError as exc:
            result = exc.outcomes or None
            self.failures.append(f"op {op_id} {op!r}: {exc}")
        except Exception:  # an unexpected raise is a failed op, not a crash
            result = None
            self.failures.append(f"op {op_id} {op!r}: {traceback.format_exc()}")
        self.durations.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.close(span)
        return result

    @property
    def rounds(self):
        return len(self.outcomes)

    def flat_outcomes(self):
        return [o for rnd in self.outcomes for res in rnd if res for o in res]

    def ops_per_s(self):
        return len(self.durations) / self.elapsed


def _setup(workload, workdir):
    """Median wall time of SETUP_REPEATS set-ups, each with its warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        t = time.perf_counter()
        workload.setup(workdir)
        workload.warmup(workdir)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _revision():
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[len("ref: "):])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _environment():
    return {
        "git_revision": _revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def _check_coverage(workload, traced, coverage):
    """Invariants that a wrapper missing from some binding would break."""
    problems = []
    if coverage["residual_calls_in_solves"] != coverage["solve_iters_plus_one"]:
        problems.append(
            f"{coverage['residual_calls_in_solves']} observed_residual calls inside "
            f"factored solves, expected {coverage['solve_iters_plus_one']}")
    factored = [o for o in traced.flat_outcomes() if o.solver in ("pgd", "scaled-pgd")]
    complete = all(res is not None for rnd in traced.outcomes for res in rnd)
    if complete and coverage["factored_solves"] != len(factored):
        problems.append(f"{coverage['factored_solves']} traced factored solves, "
                        f"the ops reported {len(factored)}")
    for op_id, op in enumerate(traced.ops):
        kind = workload.kind(op)
        calls = coverage["certify_calls_by_op"].get(op_id, 0)
        if calls != kind.certify_per_op:
            problems.append(f"{calls} certify calls in {kind.name} op {op_id}, "
                            f"expected {kind.certify_per_op}")
    return problems


def _print_table(metrics, notes):
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {report.UNITS[name]}")
    for note in notes:
        print(f"  # {note}")


def main(argv, t_start):
    """Run one workload; ``t_start`` is the clock reading before the imports."""
    args = _parse(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(_ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setup_s = import_s + _setup(workload, workdir)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "environment": _environment()}, sort_keys=True))
        deadline = time.perf_counter() + OVERRUN * args.seconds
        if args.trace == 0:
            result = _end_to_end(workload, args.seconds, deadline, setup_s)
        else:
            result = _traced(workload, args.seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0


def _end_to_end(workload, seconds, deadline, setup_s):
    run = Pass(workload, rounds_for(workload, seconds), deadline=deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = report.end_to_end(setup_s, run.round_durations, run.elapsed, run.attempted,
                               len(run.failures), run.flat_outcomes(), peak_rss_mb)
    _, pct, n = report.tail(run.round_durations)
    by_kind = {}
    for op, duration in zip(run.ops, run.durations):
        by_kind.setdefault(f"{op[0]} {op[1]}", []).append(duration)
    _print_table(values, [f"round_s.tail is percentile {pct:.1f} of {n} rounds "
                          f"of {len(workload.ops)} ops"]
                 + [f"{key}: median {statistics.median(ds):.3f} s of {len(ds)}"
                    for key, ds in by_kind.items()]
                 + run.failures)
    return _result(run.attempted, run.failures, [], values)


def _traced(workload, seconds, deadline):
    rounds = rounds_for(workload, seconds)
    plain = Pass(workload, max(1, rounds // 2), deadline=deadline)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(workload, max(1, rounds - rounds // 2), tracer, deadline)
    finally:
        tracer.restore()
    overhead = 1.0 - traced.ops_per_s() / plain.ops_per_s()
    values, coverage = report.per_layer(tracer.spans, traced.rounds, overhead)
    problems = _check_coverage(workload, traced, coverage)
    if problems:
        for p in problems:
            print(f"error: trace coverage: {p}", file=sys.stderr)
        sys.exit(3)
    failures = plain.failures + traced.failures
    rounds = plain.outcomes + traced.outcomes
    problems = []
    if any(_signature_of(r) != _signature_of(rounds[0]) for r in rounds):
        problems.append("outcome counts differ between rounds of the same seed")
    _print_table(values, [f"{traced.rounds} traced round(s), {plain.rounds} untraced; "
                          f"{len(tracer.spans)} spans"] + failures + problems)
    return _result(plain.attempted + traced.attempted, failures, problems, values)


def _signature_of(round_outcomes):
    """Exact counts one round produces; equal across rounds of one seed."""
    return [tuple((o.solver, o.iters, o.recovered, o.raised, o.max_iter_hit)
                  for o in (res or ())) for res in round_outcomes]


def _result(attempted, failures, problems, values):
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": report.UNITS[k]} for k, v in values.items()},
    }
