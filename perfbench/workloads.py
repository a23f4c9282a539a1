"""The benchmark workloads, their four kinds of op, and the correctness
oracle of each op.

An op kind (``Phase``, ``Table``, ``CompleteBlind``, ``TheoryLps``) builds
its inputs from the run seed in ``setup``, lists its ops of one round in
``ops``, and runs one op in ``run_op``.  ``run_op`` returns one
``Outcome`` per solve (or per margin check, for ``theory-lps``) and raises
``OracleError`` when the benchmark's own check of the program's output
fails.  Every check recomputes the quantity from the returned factors,
matrices or files; none trusts a solver trace alone.

A workload (``Library``, ``Cli``) interleaves the ops of two kinds in one
round.  Two workloads rather than four let every run last twice as long in
the same time budget, which averages more of the shared host's speed; that
speed wanders by 10-25% over tens of seconds and minutes.

The matrix workloads draw their instances from a fixed ladder (a base
seed, as the acceptance criteria pin theirs) and the run seed draws a
relabelling of the rows and columns of every instance.  The inputs, their
memory layout and their files change with the seed, while iteration
counts and recoveries, which do not depend on labels, stay those of the
ladder; run-to-run spread then comes from the machine, not the instance.
"""

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from detmc import bench, cli, graphs, ialm, pgd, sampling, scaled_pgd
from detmc.errors import DivergenceError

_AGREE_REL = 1e-8  # recomputed vs reported value, relative
_AGREE_ABS = 1e-12


class OracleError(Exception):
    """The program's output failed the benchmark's own check.

    ``outcomes`` holds the op's solves when they completed, so that a
    failed op still counts against ``recovered_frac``.
    """

    def __init__(self, message, outcomes=()):
        super().__init__(message)
        self.outcomes = tuple(outcomes)


@dataclass(frozen=True)
class Outcome:
    solver: str  # pgd | scaled-pgd | ialm | theory-check
    recovered: bool  # recomputed error below the workload's tol
    iters: int
    raised: bool  # the solver raised DivergenceError
    max_iter_hit: bool


def _check_agree(recomputed, reported, what, rel=_AGREE_REL):
    if not abs(recomputed - reported) <= rel * abs(reported) + _AGREE_ABS:
        raise OracleError(f"{what}: recomputed {recomputed!r}, reported {reported!r}")


def _rel_error(Mhat, M):
    return float(np.linalg.norm(Mhat - M) / np.linalg.norm(M))


def _seed_int(*words):
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _relabelling(seed, n1, n2):
    """Row and column permutations drawn from the run seed."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n1), rng.permutation(n2)


def _relabel_pattern(pattern, p1, p2):
    """Move edge (i, j) to (p1[i], p2[j])."""
    edges = np.column_stack([p1[pattern.rows], p2[pattern.cols]])
    if isinstance(pattern, graphs.BiregularGraph):
        return graphs.BiregularGraph(pattern.n1, pattern.n2, edges)
    return graphs.BernoulliMask(pattern.n1, pattern.n2, edges, pattern.rate)


def _relabel_truth(gt, p1, p2):
    """The ground truth whose entry (p1[i], p2[j]) is entry (i, j) of ``gt``."""
    q1, q2 = np.argsort(p1), np.argsort(p2)
    return sampling.ground_truth_from_svd(gt.svd.U[q1], gt.svd.S, gt.svd.V[q2])


def _cli(argv):
    """Run ``detmc`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _solved(name, solve, config, gt, tol):
    """Run ``solve()``, which returns (factor pair or dense estimate, trace),
    and recompute the estimate's error densely."""
    try:
        estimate, trace = solve()
    except DivergenceError as exc:
        return Outcome(name, False, int(exc.trace.iterations[-1]), True, False)
    if not isinstance(estimate, np.ndarray):
        estimate = estimate.X @ estimate.Y.T
    rel = _rel_error(estimate, gt.matrix)
    _check_agree(rel, trace.final_rel_error, f"{name} final relative error")
    iters = int(trace.iterations[-1])
    return Outcome(name, rel < tol, iters, False, iters >= config.max_iter)


class Phase:
    """Criterion 02's trial shape: certified graph vs Bernoulli mask, PGD."""

    name = "phase"
    ladder = 1  # criterion 02's seed
    r, tol = 3, 1e-6
    certify_per_op = 0

    # (trial, degree): trial 0 at d=20 runs out its iterations, d=22 converges
    def __init__(self, seed, n=1092, ops=((0, 22), (0, 20)), max_iter=1200):
        self.seed, self.n, self.ops = seed, n, list(ops)
        self.config = pgd.PgdConfig(eta=0.35, max_iter=max_iter, eval_every=5, tol=self.tol)

    def setup(self, workdir):
        self.labels = _relabelling(self.seed, self.n, self.n)

    def warmup(self, workdir):
        small = Phase(self.seed, n=256, ops=((0, 16),), max_iter=20)
        small.setup(workdir)
        small.run_op((0, 16))

    def run_op(self, op):
        # criterion 02's trial t at degree d, relabelled
        t, d = op
        n = self.n
        g = graphs.random_biregular(
            n, n, d, seed=np.random.SeedSequence((self.ladder, d)).entropy)
        gt_seed, mask_seed = np.random.SeedSequence((self.ladder, d, t)).spawn(2)
        gt = bench.synthetic_low_rank(n, n, self.r, 1.0, gt_seed)
        mask = graphs.bernoulli_mask(n, n, g.rate, mask_seed)
        p1, p2 = self.labels
        gt = _relabel_truth(gt, p1, p2)

        def solve(pattern):
            obs = sampling.observe(gt.matrix, _relabel_pattern(pattern, p1, p2))
            return pgd.solve(obs, self.r, self.config, gt=gt)

        return [_solved("pgd", lambda: solve(pattern), self.config, gt, self.tol)
                for pattern in (g, mask)]


class Table:
    """One instance solved by IALM, PGD and scaled PGD at library defaults."""

    name = "table"
    ladder = 0  # the default seed of ``detmc bench compare``
    r, kappa, tol = 3, 1.2, 1e-4
    certify_per_op = 0

    # (trial, degree): IALM runs out its 500 iterations at d=32, not at d=64
    def __init__(self, seed, n=256, ops=((0, 32), (0, 64)),
                 ialm_max_iter=None, factored_max_iter=None):
        self.seed, self.n, self.ops = seed, n, list(ops)
        # library defaults unless overridden (the warm-up shortens them)
        ik = {} if ialm_max_iter is None else {"max_iter": ialm_max_iter}
        fk = {} if factored_max_iter is None else {"max_iter": factored_max_iter}
        self.ialm_config = ialm.IalmConfig(tol=self.tol, **ik)
        self.pgd_config = pgd.PgdConfig(tol=self.tol, **fk)
        self.scaled_config = scaled_pgd.ScaledPgdConfig(tol=self.tol, **fk)

    def setup(self, workdir):
        self.labels = _relabelling(self.seed, self.n, self.n)

    def warmup(self, workdir):
        small = Table(self.seed, n=64, ops=((0, 16),), ialm_max_iter=5,
                      factored_max_iter=10)
        small.setup(workdir)
        small.run_op((0, 16))

    def run_op(self, op):
        # the instance ``bench compare`` builds for trial t at degree d, relabelled
        t, d = op
        n, r = self.n, self.r
        g = graphs.random_biregular(
            n, n, d, seed=np.random.SeedSequence((self.ladder, 1000 + d)).entropy)
        gt = bench.synthetic_low_rank(
            n, n, r, self.kappa, np.random.SeedSequence((self.ladder, d, r, t)))
        p1, p2 = self.labels
        g, gt = _relabel_pattern(g, p1, p2), _relabel_truth(gt, p1, p2)
        obs = sampling.observe(gt.matrix, g)
        ic, pc, sc = self.ialm_config, self.pgd_config, self.scaled_config
        return [
            _solved("ialm", lambda: ialm.solve(obs, ic, gt=gt), ic, gt, self.tol),
            _solved("pgd", lambda: pgd.solve(obs, r, pc, gt=gt), pc, gt, self.tol),
            _solved("scaled-pgd", lambda: scaled_pgd.solve(obs, r, sc, gt=gt), sc, gt,
                    self.tol),
        ]


def _read_dense_array(path):
    """Independent reader for MatrixMarket array files (column-major)."""
    with open(path) as fh:
        if not fh.readline().startswith("%%MatrixMarket matrix array real"):
            raise OracleError(f"{path}: not a MatrixMarket array file")
        n1, n2 = (int(x) for x in fh.readline().split())
        data = np.array(fh.read().split(), dtype=np.float64)
    if data.size != n1 * n2:
        raise OracleError(f"{path}: {data.size} entries, expected {n1 * n2}")
    return data.reshape(n2, n1).T


class CompleteBlind:
    """The practitioner path: verify a graph file, then complete without a
    ground truth through ``detmc.cli.main``, and read the result back."""

    name = "complete-blind"
    certify_per_op = 1  # graph verify
    max_residual = 1e-6  # a run that exits 0 above this is a silent false stop

    mu, tol = 8, 1e-6

    def __init__(self, seed, n=1024, d=40, r=5, kappa=3.0, ops_per_round=1,
                 max_iter=2000, ladder=0):
        self.seed, self.n, self.d, self.r, self.kappa = seed, n, d, r, kappa
        self.ops_per_round, self.max_iter, self.ladder = ops_per_round, max_iter, ladder

    def setup(self, workdir):
        self.ops = []
        self.inputs = {}
        n = self.n
        p1, p2 = _relabelling(self.seed, n, n)
        for k in range(self.ops_per_round):
            g = graphs.random_biregular(
                n, n, self.d, seed=np.random.SeedSequence((self.ladder, k, 1)).entropy)
            gt = bench.synthetic_low_rank(
                n, n, self.r, self.kappa, np.random.SeedSequence((self.ladder, k, 2)))
            g, gt = _relabel_pattern(g, p1, p2), _relabel_truth(gt, p1, p2)
            obs = sampling.observe(gt.matrix, g)
            paths = {key: os.path.join(workdir, f"{key}-{k}{ext}") for key, ext in
                     (("graph", ".edges"), ("observed", ".mtx"), ("completed", ".mtx"))}
            graphs.save_edges(g, paths["graph"])
            sampling.save_observed(obs, paths["observed"])
            self.inputs[k] = (paths, gt.matrix, g.rows, g.cols, obs.values)
            self.ops.append(k)

    def warmup(self, workdir):
        small = CompleteBlind(self.seed, n=128, d=16, r=2, kappa=1.0, ops_per_round=1,
                              max_iter=20)
        small_dir = os.path.join(workdir, "warmup")
        os.makedirs(small_dir, exist_ok=True)
        small.setup(small_dir)
        paths = small.inputs[0][0]
        _cli(["graph", "verify", "--graph", paths["graph"]])
        _cli(["complete", "--observed", paths["observed"], "--graph", paths["graph"],
              "--rank", "2", "--solver", "scaled-pgd", "--mu", str(self.mu),
              "--max-iter", "20", "--out", paths["completed"]])

    def run_op(self, k):
        paths, M, rows, cols, values = self.inputs[k]
        rc, out = _cli(["graph", "verify", "--graph", paths["graph"]])
        if rc != 0:
            raise OracleError(f"graph verify exited {rc}")
        cert = json.loads(out)
        _check_agree(cert["sigma1"], math.sqrt(cert["d1"] * cert["d2"]), "graph sigma1",
                     rel=1e-9)
        rc, out = _cli(["complete", "--observed", paths["observed"], "--graph",
                        paths["graph"], "--rank", str(self.r), "--solver", "scaled-pgd",
                        "--mu", str(self.mu), "--max-iter", str(self.max_iter),
                        "--out", paths["completed"]])
        if rc != 0:
            raise OracleError(f"complete exited {rc}")
        printed = json.loads(out.strip().splitlines()[-1])
        Mhat = _read_dense_array(paths["completed"])
        resid = float(np.linalg.norm(Mhat[rows, cols] - values) / np.linalg.norm(values))
        _check_agree(resid, printed["observed_residual"], "observed residual")
        iters = int(printed["iterations"])
        outcomes = [Outcome("scaled-pgd", _rel_error(Mhat, M) < self.tol, iters, False,
                            iters >= self.max_iter)]
        if resid > self.max_residual:
            raise OracleError(f"exit 0 after {iters} iterations with observed "
                              f"residual {resid:.3e}", outcomes)
        return outcomes


class TheoryLps:
    """``detmc theory run`` on the LPS(5, 13) Ramanujan graph."""

    name = "theory-lps"
    certify_per_op = 6  # one per graph-level check

    p, q, r = 5, 13, 3

    def __init__(self, seed, trials=20, ops_per_round=1):
        self.seed, self.trials, self.ops_per_round = seed, trials, ops_per_round

    def setup(self, workdir):
        # the oracle's own spectrum of the graph the CLI builds: sparse
        # Lanczos here, a dense SVD inside the library
        g = graphs.lps_graph(self.p, self.q)
        s = scipy.sparse.linalg.svds(g.adjacency, k=2, v0=np.ones(min(g.n1, g.n2)),
                                     return_singular_vectors=False)
        self.sigma1, self.sigma2 = float(s.max()), float(s.min())
        self.d1, self.d2 = g.d1, g.d2
        _check_agree(self.sigma1, math.sqrt(g.d1 * g.d2), "LPS sigma1", rel=1e-9)
        if not self.sigma2 <= 2 * math.sqrt(self.p):
            raise OracleError(f"LPS sigma2 {self.sigma2} above 2*sqrt({self.p})")
        self.out = os.path.join(workdir, "theory.json")
        self.ops = [_seed_int(self.seed, k) % 2**31 for k in range(self.ops_per_round)]

    def warmup(self, workdir):
        _cli(["theory", "run", "--n", "64", "--d", "8", "--r", "2", "--trials", "2",
              "--out", os.path.join(workdir, "warmup.json")])

    def run_op(self, seed):
        rc, _ = _cli(["theory", "run", "--lps", f"{self.p},{self.q}", "--r", str(self.r),
                      "--trials", str(self.trials), "--seed", str(seed),
                      "--out", self.out])
        if rc != 0:
            raise OracleError(f"theory run exited {rc}")
        with open(self.out) as fh:
            reports = json.load(fh)
        if len(reports) != 7:
            raise OracleError(f"{len(reports)} theory reports, expected 7")
        for rep in reports:
            params = rep["params"]
            if params.get("c0") is None:
                continue
            if (params["d1"], params["d2"]) != (self.d1, self.d2):
                raise OracleError(
                    f"{rep['check_name']}: degrees {params['d1']}, {params['d2']}")
            sigma2 = params["c0"] * (math.sqrt(self.d1) + math.sqrt(self.d2)) / 2
            _check_agree(sigma2, self.sigma2, f"{rep['check_name']} sigma2")
        return [Outcome("theory-check", bool(rep["passed"]), 0, False, False)
                for rep in reports]


class Interleaved:
    """A workload whose round interleaves the ops of its kinds, so that each
    kind's ops spread over the whole run.  An op is ``(kind name, kind op)``.
    """

    name = None
    round_s = None  # one round on the reference machine (see record.json)
    kinds = ()

    def __init__(self, seed, parts=None):
        parts = parts if parts is not None else [kind(seed) for kind in self.kinds]
        self.parts = {part.name: part for part in parts}

    def setup(self, workdir):
        columns = []
        for part in self.parts.values():
            part.setup(workdir)
            columns.append([(part.name, op) for op in part.ops])
        self.ops = [op for row in itertools.zip_longest(*columns) for op in row
                    if op is not None]

    def warmup(self, workdir):
        for part in self.parts.values():
            part.warmup(workdir)

    def kind(self, op):
        return self.parts[op[0]]

    def run_op(self, op):
        return self.kind(op).run_op(op[1])


class Library(Interleaved):
    """In-process solves against a ground truth: criterion 02's trials
    (PGD on a certified graph and on a Bernoulli mask, 1092^2) and the
    solver table (IALM, PGD and scaled PGD, 256^2)."""

    name = "library"
    round_s = 18.0
    kinds = (Phase, Table)


class Cli(Interleaved):
    """The ``detmc`` command line with no ground truth: graph verify and
    blind completion from files, and the theory margins on LPS(5, 13)."""

    name = "cli"
    round_s = 9.5
    kinds = (CompleteBlind, TheoryLps)


WORKLOADS = {w.name: w for w in (Library, Cli)}
