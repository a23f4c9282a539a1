"""Observation operator, ground-truth bundles, and incoherence diagnostics.

The observed data lives on the edge set of a sampling pattern; nothing here
ever materializes a lifted (n1+n2)-sized object.  Residuals restricted to
the pattern are returned as CSR matrices whose ``data`` is aligned with the
pattern's sorted edge list, so sparse products with the factors cost
O(m * r).  ``observed_residual`` and ``residual_products`` read the factors
r-major (r x n), the layout the factored solvers keep them in.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import _sparsetools

from .errors import FormatError, InputError, ParameterError
from .graphs import BiregularGraph, SamplingPattern, _parse_rows, _write_matrixmarket
from .kernels import TruncatedSVD, as_matrix, top_r_svd


@dataclass
class Observation:
    """Values of a matrix on a sampling pattern; ``rate`` is the pattern's."""

    pattern: SamplingPattern
    values: np.ndarray
    rate: float = field(init=False)

    def __post_init__(self):
        self.rate = self.pattern.rate
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
    return Observation(pattern, M[pattern.rows, pattern.cols])


def rescaled_top_svd(obs, r):
    """Top-r SVD of the rescaled observation: ``top_r_svd`` of the CSR of
    its m rescaled values (zeros off the pattern when densified).  An
    all-zero observation, which has no top-r subspace, is refused."""
    if not obs.values.any():
        raise ParameterError("observation is identically zero")
    return top_r_svd(obs.pattern.csr_with_values(obs.values / obs.rate), r)


def observed_residual(X, Y, obs, out=None):
    """CSR residual with per-edge values <X_i, Y_j> - observed value.

    ``X`` is n1 x r and ``Y`` is n2 x r; X @ Y.T is never formed.  The kernel
    reads them r-major, as ``X.T`` and ``Y.T`` (free when ``X`` is a view of
    a C-ordered r x n1 array, as the solvers pass it), gathers Y's columns
    with one ``take`` and dots down r contiguous rows, O(m r).  A
    ``BiregularGraph`` gathers by its n1 x d1 ``neighbors`` table and dots
    each X column against its row's d1 gathered columns: about 0.16 ms at
    m = 22k, r = 3 on one core.  Any other pattern repeats X's columns by the
    row counts and gathers by ``cols``: about 0.21 ms there.  A fresh
    ``detmc complete`` on 1024^2, d = 40, r = 5 faulted about 790 pages an
    iteration on the repeat, 24 on the neighbour table.  Both give the same
    values bit for bit.  Given ``out``, an ``obs.pattern.csr_with_values``
    matrix the caller owns (``pgd.iterate`` refills one every iteration),
    the values go into ``out.data`` and ``out`` is returned.
    """
    Xt = np.ascontiguousarray(np.transpose(X), dtype=np.float64)
    Yt = np.ascontiguousarray(np.transpose(Y), dtype=np.float64)
    pat = obs.pattern
    if Xt.shape[1] != pat.n1 or Yt.shape[1] != pat.n2 or len(Xt) != len(Yt):
        raise ParameterError(f"factor shapes {Xt.T.shape}, {Yt.T.shape} do not match pattern")
    out = pat.csr_with_values(np.empty(pat.m)) if out is None else out
    if not np.may_share_memory(out.indices, pat.adjacency.indices):
        raise ParameterError("out is not a residual matrix of this pattern")
    if isinstance(pat, BiregularGraph):
        np.einsum("ki,kij->ij", Xt, np.take(Yt, pat.neighbors, axis=1),
                  out=out.data.reshape(pat.n1, pat.d1))
    else:  # edges are sorted by row, so gathering X's rows is a repeat
        np.einsum("ki,ki->i", np.repeat(Xt, pat.row_counts, axis=1),
                  np.take(Yt, pat.cols, axis=1), out=out.data)
    out.data -= obs.values
    return out


def residual_products(K, Xt, Yt):
    """r-major ``(K @ Y).T`` and ``(K.T @ X).T`` for a residual ``K``: per row,
    scipy's CSR (for ``K.T``, CSC) mat-vec loop on K's own arrays, the loops
    behind ``K @ Y`` and ``K.T @ X``.  Equal bit for bit, without the sparse
    wrappers, the CSC view or the factor copies that those build."""
    (n1, n2), r = K.shape, len(Xt)
    if np.shape(Xt) != (r, n1) or np.shape(Yt) != (r, n2):
        raise ParameterError(f"r-major factors {np.shape(Xt)}, {np.shape(Yt)} vs {K.shape}")
    KY, KtX = np.zeros((r, n1)), np.zeros((r, n2))
    for k in range(r):
        _sparsetools.csr_matvec(n1, n2, K.indptr, K.indices, K.data, Yt[k], KY[k])
        _sparsetools.csc_matvec(n2, n1, K.indptr, K.indices, K.data, Xt[k], KtX[k])
    return KY, KtX


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
    if not (np.all(np.isfinite(S)) and S[-1] > 0 and np.all(np.diff(S) <= 0)):
        raise ParameterError("singular values must be finite, positive and nonincreasing")
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


_RANK_TOL = 1e-10  # relative tolerance of ``ground_truth``'s rank checks


def ground_truth(M, rank):
    """Wrap an exactly rank-``rank`` matrix; rejects matrices that are not.

    The stored ``matrix`` is ``M`` itself, which may differ from its
    truncated SVD ``svd`` by up to 1e-10 relative in Frobenius norm;
    ``metrics.relative_error`` measures against ``svd``.  A singular value
    at or below 1e-10 times the first counts as zero, so the rank is below
    ``rank``.
    """
    M = as_matrix(M)
    tsvd = top_r_svd(M, rank)
    err = np.linalg.norm(M - tsvd.reconstruct())
    scale = max(np.linalg.norm(M), 1e-300)
    if err > _RANK_TOL * scale:
        raise ParameterError(
            f"matrix is not rank {rank} (relative defect {err / scale:.2e})"
        )
    if tsvd.S[-1] <= _RANK_TOL * tsvd.S[0]:
        raise ParameterError(f"matrix has rank below {rank}")
    gt = ground_truth_from_svd(tsvd.U, tsvd.S, tsvd.V)
    gt.matrix = M
    return gt


# ---------------------------------------------------------------------------
# incoherence diagnostics
# ---------------------------------------------------------------------------


def _neighborhood_gaps(A, F, scale):
    """Largest || scale * F_S' F_S - I ||_2 over the neighborhoods S of the
    columns of ``A``: the sums of the rows' outer products over every S are
    one sparse product, and their spectra one batched ``eigvalsh``."""
    r = F.shape[1]
    outer = (F[:, :, None] * F[:, None, :]).reshape(len(F), r * r)
    G = scale * (A.T @ outer).reshape(-1, r, r) - np.eye(r)
    return float(np.abs(np.linalg.eigvalsh(G)).max())


def subset_isotropy_gap(gt, graph):
    """The isotropy gap delta_d, a float: a lower bound on the worst
    isotropy defect over row/column subsets.

    Evaluates every graph neighborhood (n1 + n2 of them), the subsets the
    recovery analysis actually touches: || (n1/d2) U_S' U_S - I ||_2 over
    the rows S adjacent to a column, and its mirror with V.  The result is
    a certified lower bound on the true uniform constant, never an upper
    bound.
    """
    A = graph.adjacency
    return max(_neighborhood_gaps(A, gt.svd.U, graph.n1 / graph.d2),
               _neighborhood_gaps(A.T, gt.svd.V, graph.n2 / graph.d1))


# ---------------------------------------------------------------------------
# MatrixMarket serialization of observations
# ---------------------------------------------------------------------------

_OBSERVED_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def save_observed(obs, path):
    """Write the observation in MatrixMarket coordinate real format: entry k,
    ``i j v`` in the pattern's edge order, on line 2 + k."""
    _write_matrixmarket(path, obs.pattern.csr_with_values(obs.values), "real")


def save_dense_array(M, path):
    """Write a dense matrix in MatrixMarket array format (column-major): the
    banner, the ``n1 n2`` line and all n1*n2 values.  ``scipy.io.mmread``
    reads it back bit for bit, except that it reads ``-0`` as ``+0.0``."""
    _write_matrixmarket(path, as_matrix(M), "real")


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
        dims = _parse_rows([line], np.int64, (1, 3))
        if dims is None:
            raise FormatError(f"bad dimensions line in {path}")
        n1, n2, m = dims[0].tolist()
        if (n1, n2) != (pattern.n1, pattern.n2) or m != pattern.m:
            raise FormatError(f"{path}: dimensions do not match the pattern")
        lines = fh.read().split("\n", m)
    rest = lines.pop() if len(lines) > m else ""  # all after the m-th entry
    table = _parse_rows(lines, _OBSERVED_ROW, (m,))
    if table is None:  # name the first entry that the same parse refuses
        for k in range(m):
            line = lines[k] if k < len(lines) else ""
            if len(line.split()) != 3:
                raise FormatError(f"{path}: truncated or malformed entry {k}")
            if _parse_rows([line], _OBSERVED_ROW, (1,)) is None:
                raise FormatError(f"{path}: non-numeric entry {k}")
    if rest.strip():
        raise FormatError(f"{path}: more entries than the {m} its size line declares")
    coords = np.column_stack([table["i"] - 1, table["j"] - 1])
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    if not np.array_equal(coords[order], pattern.edges):
        raise FormatError(f"{path}: coordinates do not match the pattern")
    return Observation(pattern, table["v"][order])
