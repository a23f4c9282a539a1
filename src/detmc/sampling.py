"""Observation operator, ground-truth bundles, and incoherence diagnostics.

The observed data lives on the edge set of a sampling pattern; nothing here
ever materializes a lifted (n1+n2)-sized object.  Residuals restricted to
the pattern are returned as CSR matrices whose ``data`` is aligned with the
pattern's sorted edge list, so sparse products with the factors cost
O(m * r).
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse.linalg

from .errors import FormatError, InputError, ParameterError
from .graphs import SamplingPattern
from .kernels import TruncatedSVD, _fix_signs, as_matrix, top_r_svd

_EXHAUSTIVE_LIMIT = 10**6


@dataclass
class Observation:
    """Values of a matrix on a sampling pattern, plus the sampling rate."""

    pattern: SamplingPattern
    values: np.ndarray
    rate: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.pattern.m,):
            raise ParameterError(
                f"expected {self.pattern.m} values, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputError("observed values contain NaN or Inf")

    @property
    def shape(self):
        return (self.pattern.n1, self.pattern.n2)


def observe(M, pattern):
    """Restrict ``M`` to the pattern's edges."""
    M = as_matrix(M)
    if M.shape != (pattern.n1, pattern.n2):
        raise ParameterError(f"matrix shape {M.shape} does not match pattern")
    return Observation(pattern, M[pattern.rows, pattern.cols], pattern.rate)


def rescaled_dense(obs):
    """Dense matrix with (1/rate) * value at observed entries, 0 elsewhere."""
    out = np.zeros(obs.shape)
    out[obs.pattern.rows, obs.pattern.cols] = obs.values / obs.rate
    return out


def rescaled_top_svd(obs, r):
    """Top-r SVD of the rescaled observation.

    Sparse Lanczos when the pattern is large and sparse (the rescaled
    observation has only m nonzeros); dense otherwise.  Both paths apply
    the same deterministic sign convention.
    """
    n1, n2 = obs.shape
    density = obs.pattern.m / (n1 * n2)
    if min(n1, n2) >= 200 and density <= 0.25 and r < min(n1, n2) // 2:
        A = obs.pattern.csr_with_values(obs.values / obs.rate)
        U, S, Vt = scipy.sparse.linalg.svds(A, k=r, v0=np.ones(min(n1, n2)))
        order = np.argsort(-S)
        U, V = _fix_signs(U[:, order].copy(), Vt[order].T.copy())
        return TruncatedSVD(U=U, S=np.maximum(S[order], 0.0), V=V)
    return top_r_svd(rescaled_dense(obs), r)


def observed_residual(X, Y, obs):
    """CSR residual with per-edge values <X_i, Y_j> - observed value.

    ``X`` is n1 x r and ``Y`` is n2 x r; the product X @ Y.T is never formed.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    pat = obs.pattern
    if X.shape[0] != pat.n1 or Y.shape[0] != pat.n2 or X.shape[1] != Y.shape[1]:
        raise ParameterError(
            f"factor shapes {X.shape}, {Y.shape} do not match pattern"
        )
    # np.take gathers rows several times faster than X[pat.rows], same values
    vals = np.einsum(
        "ij,ij->i", np.take(X, pat.rows, axis=0), np.take(Y, pat.cols, axis=0)
    ) - obs.values
    return pat.csr_with_values(vals)


@dataclass
class GroundTruth:
    """A rank-r target with its SVD, conditioning, and balanced factors."""

    matrix: np.ndarray
    svd: TruncatedSVD
    rank: int
    condition_number: float
    coherence_mu: float
    left_factor: np.ndarray  # U * sqrt(S), n1 x r
    right_factor: np.ndarray  # V * sqrt(S), n2 x r

    @property
    def sigma1(self):
        return float(self.svd.S[0])

    @property
    def sigma_r(self):
        return float(self.svd.S[-1])

    @property
    def stacked_factor(self):
        return np.vstack([self.left_factor, self.right_factor])

    @property
    def shape(self):
        return self.matrix.shape


def coherence(U, V, rank):
    """Smallest mu with every row leverage below mu * r / n (both sides)."""
    n1, n2 = U.shape[0], V.shape[0]
    lev_u = (U * U).sum(axis=1).max()
    lev_v = (V * V).sum(axis=1).max()
    return float(max(n1 * lev_u, n2 * lev_v) / rank)


def ground_truth_from_svd(U, S, V):
    """Assemble a GroundTruth from given singular triplets."""
    U = as_matrix(U)
    V = as_matrix(V)
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 1 or U.shape[1] != S.size or V.shape[1] != S.size:
        raise ParameterError("inconsistent SVD shapes")
    if S[-1] <= 0 or np.any(np.diff(S) > 0):
        raise ParameterError("singular values must be positive and nonincreasing")
    r = S.size
    sq = np.sqrt(S)
    tsvd = TruncatedSVD(U=U, S=S, V=V)
    return GroundTruth(
        matrix=(U * S) @ V.T,
        svd=tsvd,
        rank=r,
        condition_number=float(S[0] / S[-1]),
        coherence_mu=coherence(U, V, r),
        left_factor=U * sq,
        right_factor=V * sq,
    )


def ground_truth(M, rank):
    """Wrap an exactly rank-``rank`` matrix; rejects matrices that are not.

    The stored ``matrix`` is ``M`` itself, which may differ from its
    truncated SVD ``svd`` by up to 1e-10 relative in Frobenius norm;
    ``metrics.relative_error`` measures against ``svd``.
    """
    M = as_matrix(M)
    tsvd = top_r_svd(M, rank)
    err = np.linalg.norm(M - tsvd.reconstruct())
    scale = max(np.linalg.norm(M), 1e-300)
    if err > 1e-10 * scale:
        raise ParameterError(
            f"matrix is not rank {rank} (relative defect {err / scale:.2e})"
        )
    if tsvd.S[-1] <= 0:
        raise ParameterError(f"matrix has rank below {rank}")
    gt = ground_truth_from_svd(tsvd.U, tsvd.S, tsvd.V)
    gt.matrix = M
    return gt


# ---------------------------------------------------------------------------
# incoherence diagnostics
# ---------------------------------------------------------------------------


@dataclass
class IncoherenceReport:
    mu: float
    delta_d_estimate: float
    subsets_checked: int
    method: str  # graph-neighborhoods | monte-carlo | exhaustive


def _frame_gap(rows_block, scale, r):
    """|| scale * B^T B - I ||_2 for a block of singular-vector rows."""
    G = scale * (rows_block.T @ rows_block) - np.eye(r)
    return float(np.abs(np.linalg.eigvalsh(G)).max())


def subset_isotropy_gap(gt, graph, extra_subsets=0, seed=0, exhaustive=False):
    """Lower bound on the worst isotropy defect over row/column subsets.

    Evaluates every graph neighborhood (the subsets the recovery analysis
    actually touches) plus ``extra_subsets`` random subsets of each
    required size; ``exhaustive=True`` enumerates all subsets instead and
    is only allowed at toy sizes.  The result is a certified lower bound
    on the true uniform constant, never an upper bound.
    """
    U, V = gt.svd.U, gt.svd.V
    r = gt.rank
    n1, n2, d1, d2 = graph.n1, graph.n2, graph.d1, graph.d2
    if d2 > n1 or d1 > n2:
        raise ParameterError("neighborhood size exceeds the opposite side")

    worst = 0.0
    checked = 0
    if exhaustive:
        if comb(n1, d2) + comb(n2, d1) > _EXHAUSTIVE_LIMIT:
            raise ParameterError("exhaustive subset enumeration is too large")
        for S in combinations(range(n1), d2):
            worst = max(worst, _frame_gap(U[list(S)], n1 / d2, r))
            checked += 1
        for S in combinations(range(n2), d1):
            worst = max(worst, _frame_gap(V[list(S)], n2 / d1, r))
            checked += 1
        method = "exhaustive"
    else:
        order = np.lexsort((graph.rows, graph.cols))
        col_sorted_rows = graph.rows[order]
        col_ptr = np.searchsorted(graph.cols[order], np.arange(n2 + 1))
        for j in range(n2):
            S = col_sorted_rows[col_ptr[j] : col_ptr[j + 1]]
            worst = max(worst, _frame_gap(U[S], n1 / d2, r))
            checked += 1
        for i in range(n1):
            S = graph.cols[graph.row_ptr[i] : graph.row_ptr[i + 1]]
            worst = max(worst, _frame_gap(V[S], n2 / d1, r))
            checked += 1
        rng = np.random.default_rng(seed)
        for _ in range(extra_subsets):
            S1 = rng.choice(n1, size=d2, replace=False)
            worst = max(worst, _frame_gap(U[S1], n1 / d2, r))
            S2 = rng.choice(n2, size=d1, replace=False)
            worst = max(worst, _frame_gap(V[S2], n2 / d1, r))
            checked += 2
        method = "monte-carlo" if extra_subsets > 0 else "graph-neighborhoods"

    return IncoherenceReport(
        mu=gt.coherence_mu,
        delta_d_estimate=worst,
        subsets_checked=checked,
        method=method,
    )


# ---------------------------------------------------------------------------
# MatrixMarket serialization of observations
# ---------------------------------------------------------------------------

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def save_observed(obs, path):
    """Write the observation in MatrixMarket coordinate real format."""
    pat = obs.pattern
    with open(path, "w") as fh:
        fh.write(_MM_HEADER + "\n")
        fh.write(f"{pat.n1} {pat.n2} {pat.m}\n")
        for (i, j), v in zip(pat.edges, obs.values):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def save_dense_array(M, path):
    """Write a dense matrix in MatrixMarket array format (column-major)."""
    M = as_matrix(M)
    n1, n2 = M.shape
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{n1} {n2}\n")
        for j in range(n2):
            for i in range(n1):
                fh.write(f"{float(M[i, j])!r}\n")


def load_dense_array(path):
    """Read a matrix written by ``save_dense_array``."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.lower().startswith("%%matrixmarket matrix array real"):
            raise FormatError(f"bad MatrixMarket array header in {path}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"bad dimensions line in {path}")
        n1, n2 = int(parts[0]), int(parts[1])
        data = np.empty(n1 * n2)
        for k in range(n1 * n2):
            token = fh.readline().split()
            if len(token) != 1:
                raise FormatError(f"{path}: truncated at entry {k}")
            data[k] = float(token[0])
    return data.reshape((n2, n1)).T


def load_observed(path, pattern):
    """Read an observation written by ``save_observed``.

    The companion ``pattern`` supplies the sampling rate and must carry
    exactly the coordinates stored in the file.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.lower().startswith("%%matrixmarket matrix coordinate real"):
            raise FormatError(f"bad MatrixMarket header in {path}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"bad dimensions line in {path}")
        n1, n2, m = (int(x) for x in parts)
        if (n1, n2) != (pattern.n1, pattern.n2) or m != pattern.m:
            raise FormatError(f"{path}: dimensions do not match the pattern")
        coords = np.empty((m, 2), dtype=np.int64)
        values = np.empty(m)
        for k in range(m):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise FormatError(f"{path}: truncated or malformed entry {k}")
            coords[k] = (int(parts[0]) - 1, int(parts[1]) - 1)
            values[k] = float(parts[2])
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    if not np.array_equal(coords[order], pattern.edges):
        raise FormatError(f"{path}: coordinates do not match the pattern")
    return Observation(pattern, values[order], pattern.rate)
