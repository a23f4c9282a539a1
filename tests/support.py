"""Helpers the test modules import by name.

They live here, not in ``conftest.py``, because the suite also collects
``perfbench/tests``, whose own ``conftest`` module would shadow this
directory's under ``from conftest import ...``.
"""

import numpy as np

from detmc import graphs, pgd, sampling, scaled_pgd


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
