"""Symmetries of the factored solvers, checked on generated problems.

Relabelling the rows and columns of a problem (its pattern, observation
and ground truth together) must relabel the solver's output the same way,
and transposing the problem must swap the factors.  The loss sequence is
a function of the problem, not of how its rows, columns or edges are
stored, so it must agree too.  Agreement is to rel 1e-8: storage order
changes the order of floating-point sums, never the iterates' path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from detmc import bench, graphs, pgd, sampling, scaled_pgd

SOLVERS = {
    "pgd": (pgd.solve, pgd.PgdConfig),
    "scaled-pgd": (scaled_pgd.solve, scaled_pgd.ScaledPgdConfig),
}
REL = 1e-8


@st.composite
def problems(draw):
    """(ground truth, pattern, seed): a small square rank-1 or rank-2
    instance on a random biregular graph or a Bernoulli mask of the same
    rate, sampled densely enough that both solvers converge."""
    n = draw(st.integers(12, 24))
    d = draw(st.integers(n // 2, n - 2))
    r = draw(st.integers(1, 2))
    kappa = draw(st.floats(1.5, 4.0))
    seed = draw(st.integers(0, 2**16))
    gt = bench.synthetic_low_rank(n, n, r, kappa, seed)
    if draw(st.booleans()):
        pattern = graphs.random_biregular(n, n, d, seed=seed)
    else:
        pattern = graphs.bernoulli_mask(n, n, d / n, seed)
    return gt, pattern, seed


def remapped(pattern, n1, n2, edges):
    """``pattern``'s kind on new ``n1 x n2`` dimensions and edges."""
    if isinstance(pattern, graphs.BernoulliMask):
        return graphs.BernoulliMask(n1, n2, edges, pattern.rate)
    return graphs.BiregularGraph(n1, n2, edges)


def run(solver, gt, pattern):
    solve, config = SOLVERS[solver]
    obs = sampling.observe(gt.matrix, pattern)
    pair, trace = solve(obs, gt.rank, config(tol=1e-6, max_iter=300), gt=gt)
    return pair.X @ pair.Y.T, np.asarray(trace.loss)


def assert_same_run(product, loss, expected_product, expected_loss):
    err = np.linalg.norm(product - expected_product)
    assert err <= REL * np.linalg.norm(expected_product), err
    assert loss.shape == expected_loss.shape
    np.testing.assert_allclose(loss, expected_loss, rtol=REL, atol=0)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(problem=problems(), solver=st.sampled_from(sorted(SOLVERS)))
def test_relabelling_rows_and_columns(problem, solver):
    gt, pattern, seed = problem
    n1, n2 = gt.shape
    rng = np.random.default_rng(seed)
    p1, p2 = rng.permutation(n1), rng.permutation(n2)
    # new row i is old row p1[i], so old edge (a, b) becomes (p1^-1[a], p2^-1[b])
    inv1, inv2 = np.argsort(p1), np.argsort(p2)
    moved = remapped(pattern, n1, n2,
                     np.column_stack([inv1[pattern.rows], inv2[pattern.cols]]))
    moved_gt = sampling.ground_truth_from_svd(gt.svd.U[p1], gt.svd.S, gt.svd.V[p2])

    product, loss = run(solver, gt, pattern)
    moved_product, moved_loss = run(solver, moved_gt, moved)
    assert_same_run(moved_product, moved_loss, product[p1][:, p2], loss)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(problem=problems(), solver=st.sampled_from(sorted(SOLVERS)))
def test_transposing_the_problem(problem, solver):
    gt, pattern, _ = problem
    n1, n2 = gt.shape
    flipped = remapped(pattern, n2, n1, np.column_stack([pattern.cols, pattern.rows]))
    flipped_gt = sampling.ground_truth_from_svd(gt.svd.V, gt.svd.S, gt.svd.U)

    product, loss = run(solver, gt, pattern)
    flipped_product, flipped_loss = run(solver, flipped_gt, flipped)
    assert_same_run(flipped_product, flipped_loss, product.T, loss)
