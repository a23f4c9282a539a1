"""Helpers the test modules import by name.

They live here, not in ``conftest.py``, because the suite also collects
``perfbench/tests``, whose own ``conftest`` module would shadow this
directory's under ``from conftest import ...``.
"""

import itertools
import math

import numpy as np

from detmc import graphs, metrics, pgd, sampling, scaled_pgd


def complete_graph(n1, n2):
    rows, cols = np.divmod(np.arange(n1 * n2), n2)
    return graphs.BiregularGraph(n1, n2, np.column_stack([rows, cols]))


def constant_pair_residual(g):
    """||A 1/sqrt(n2) - sqrt(d1 d2) 1/sqrt(n1)||: how far the normalized
    all-ones vectors are from a singular pair of value sqrt(d1 d2)."""
    ones_right = np.full(g.n2, 1.0 / np.sqrt(g.n2))
    ones_left = np.full(g.n1, 1.0 / np.sqrt(g.n1))
    return float(np.linalg.norm(g.adjacency @ ones_right - np.sqrt(g.d1 * g.d2) * ones_left))


def bernoulli_with_empty_row_and_column():
    """A 40 x 25 Bernoulli(0.3) mask with row 0 and column 0 left empty."""
    mask = graphs.bernoulli_mask(40, 25, 0.3, seed=22)
    keep = (mask.rows != 0) & (mask.cols != 0)
    return graphs.BernoulliMask(40, 25, mask.edges[keep], mask.rate)


def scaled_step(pair, obs, eta):
    """One scaled PGD step from ``pair``, as ``scaled_pgd.solve`` takes it:
    ``scaled_pgd._step`` on the r-major factors, both blocks from the one
    residual ``observed_residual`` gives at ``pair``."""
    Xt, Yt = pair.r_major()
    K = sampling.observed_residual(Xt.T, Yt.T, obs)
    return pgd.FactorPair.from_r_major(*scaled_pgd._step(Xt, Yt, K, obs, eta))


def replay(solver, obs, r, config, gt=None):
    """Run ``solver`` ("pgd" or "scaled-pgd"), then take its iterates again
    with the public step and projection, one for each entry of the trace:
    ``pgd.gradient`` and ``pgd.project_rows`` at step ``eta / znorm**2``, or
    ``scaled_step`` and ``scaled_pgd.project_rows``.

    Asserts that the last iterate is the returned pair bit for bit, and
    returns the trace and the iterates as the loop holds them: n x r views
    ``FactorPair(Xt.T, Yt.T)`` of C-ordered r-major factors.  A distance
    measured on those views takes the loop's bits; on C-ordered n x r
    copies the gauge distance can move in its last digits.
    """
    mu = gt.coherence_mu if gt is not None else config.mu
    if solver == "pgd":
        pair, znorm, clip = pgd.spectral_init(obs, r, mu)
        step = config.eta / znorm**2

        def advance(p):
            grad = pgd.gradient(p, obs)
            moved = pgd.FactorPair(p.X - step * grad.X, p.Y - step * grad.Y)
            return pgd.project_rows(moved, clip)

        out, trace = pgd.solve(obs, r, config, gt=gt)
    else:
        pair, budget = scaled_pgd.spectral_init(obs, r, mu)

        def advance(p):
            return scaled_pgd.project_rows(scaled_step(p, obs, config.eta), budget)

        out, trace = scaled_pgd.solve(obs, r, config, gt=gt)
    iterates = [pair]
    for _ in range(len(trace.loss) - 1):
        iterates.append(advance(iterates[-1]))
    assert np.array_equal(iterates[-1].X, out.X) and np.array_equal(iterates[-1].Y, out.Y)
    return trace, [pgd.FactorPair(*(A.T for A in p.r_major())) for p in iterates]


def replayed_distances(solver, obs, r, config, gt):
    """The distance to ``gt`` of every iterate of the run ``replay`` takes
    again: the rotation distance for PGD, the gauge distance for scaled PGD."""
    metric = metrics.rotation_distance if solver == "pgd" else metrics.gauge_distance
    return np.asarray([metric(p, gt).distance for p in replay(solver, obs, r, config, gt)[1]])


def random_biregular_reference(n1, n2, d1, seed):
    """``graphs.random_biregular`` as it was written before its duplicate
    repair moved to integer codes: a Python pass over every edge, keyed by
    tuples of numpy scalars.  Its graphs are the ones every pinned count
    was measured on."""
    d2 = (n1 * d1) // n2
    if d1 == n2:
        return complete_graph(n1, n2)
    if d1 > n2 // 2:
        comp = random_biregular_reference(n1, n2, n2 - d1, seed)
        keep = np.ones((n1, n2), dtype=bool)
        keep[comp.rows, comp.cols] = False
        rows, cols = np.nonzero(keep)
        return graphs.BiregularGraph(n1, n2, np.column_stack([rows, cols]))

    rng = np.random.default_rng(seed)
    m = n1 * d1
    rows = np.repeat(np.arange(n1), d1)
    cols = rng.permutation(np.repeat(np.arange(n2), d2))

    counts = {}
    for k in range(m):
        pair = (rows[k], cols[k])
        counts[pair] = counts.get(pair, 0) + 1
    stack = [k for k in range(m) if counts[(rows[k], cols[k])] > 1]

    while stack:
        k1 = stack.pop()
        p1 = (rows[k1], cols[k1])
        if counts[p1] < 2:
            continue
        while True:
            k2 = int(rng.integers(m))
            p2 = (rows[k2], cols[k2])
            new1 = (p1[0], p2[1])
            new2 = (p2[0], p1[1])
            if new1 == new2 or counts.get(new1, 0) > 0 or counts.get(new2, 0) > 0:
                continue
            counts[p1] -= 1
            counts[p2] -= 1
            counts[new1] = 1
            counts[new2] = 1
            cols[k1], cols[k2] = new1[1], new2[1]
            break

    return graphs.BiregularGraph(n1, n2, np.column_stack([rows, cols]))


def lps_graph_reference(p, q):
    """``graphs.lps_graph`` as it was written before it moved to integer
    arrays, with the quaternion search's range of even numbers mended: one
    group element at a time, as tuples, with a dict from the right coset's
    canonical tuples to their columns.  Takes valid ``p`` and ``q`` only."""
    inv = [0] + [pow(x, q - 2, q) for x in range(1, q)]
    i_unit = next(z for z in range(2, q) if (z * z) % q == q - 1)

    def canon(mat):
        s = inv[next(x for x in mat if x != 0)]
        return tuple((y * s) % q for y in mat)

    def matmul2(g, h):
        a, b, c, d = g
        e, f, gg, hh = h
        return ((a * e + b * gg) % q, (a * f + b * hh) % q,
                (c * e + d * gg) % q, (c * f + d * hh) % q)

    limit = math.isqrt(p)
    evens = range(-(limit - limit % 2), limit + 1, 2)
    gens = set()
    for a0, a1, a2 in itertools.product(range(1, limit + 1, 2), evens, evens):
        rem = p - a0 * a0 - a1 * a1 - a2 * a2
        a3 = math.isqrt(max(rem, 0))
        if rem >= 0 and a3 * a3 == rem and a3 % 2 == 0:
            for s3 in {a3, -a3}:
                gens.add(canon(((a0 + i_unit * a1) % q, (a2 + i_unit * s3) % q,
                                (-a2 + i_unit * s3) % q, (a0 - i_unit * a1) % q)))
    assert len(gens) == p + 1

    squares = {(x * x) % q for x in range(1, q)}
    left, right = [], []  # square and non-square determinant
    for b, c, d in itertools.product(range(q), repeat=3):
        det = (d - b * c) % q
        if det != 0:
            (left if det in squares else right).append((1, b, c, d))
    for c in range(1, q):
        for d in range(q):
            (left if (-c) % q in squares else right).append((0, 1, c, d))
    left.sort()
    right.sort()
    right_index = {g: j for j, g in enumerate(right)}
    edges = [(i, right_index[canon(matmul2(g, s))])
             for i, g in enumerate(left) for s in sorted(gens)]
    return graphs.BiregularGraph(len(left), len(right), edges)


def edge_text_reference(g):
    """The 1-indexed ``i j`` lines of an edge list or pattern export, from the
    per-line Python formatter that wrote them before scipy's compiled writer
    did.  Those files keep these bytes."""
    return "".join(map("{} {}\n".format, (g.rows + 1).tolist(), (g.cols + 1).tolist()))


def observed_text_reference(obs):
    """An observation file as the per-line Python formatter wrote it before
    scipy's compiled writer did: the banner, the size line, then entry k as
    ``i j repr(v)`` on line 2 + k."""
    pat = obs.pattern
    entries = map("{} {} {!r}".format, (pat.rows + 1).tolist(),
                  (pat.cols + 1).tolist(), obs.values.tolist())
    return (f"%%MatrixMarket matrix coordinate real general\n{pat.n1} {pat.n2} {pat.m}\n"
            + "\n".join(entries) + "\n")
