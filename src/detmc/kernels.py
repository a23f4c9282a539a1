"""fp64 linear-algebra primitives shared by the rest of the package.

``top_r_svd`` takes a dense array or a scipy sparse matrix.  A dense
matrix no larger than the cutoff gets LAPACK's full SVD; a larger or a
sparse one gets ARPACK's Lanczos (``svds``) from the all-ones start,
which touches ``A`` only through products.  Both paths apply the same
deterministic sign convention, and ``operator_norm`` is the leading
singular value it returns.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import InputError, ParameterError

# Largest dimension for which a dense matrix gets a full dense SVD.
DENSE_SVD_CUTOFF = 2048


def as_matrix(a):
    """Validate and return ``a`` as a 2-D float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InputError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains NaN or Inf entries")
    return m


@dataclass
class TruncatedSVD:
    """Leading singular triplets: ``U @ diag(S) @ V.T`` approximates the input."""

    U: np.ndarray  # (n1, r), orthonormal columns
    S: np.ndarray  # (r,), nonincreasing, nonnegative
    V: np.ndarray  # (n2, r), orthonormal columns

    def reconstruct(self):
        return (self.U * self.S) @ self.V.T


def _fix_signs(U, V):
    """Make the first nonzero entry of each left singular vector nonnegative."""
    for j in range(U.shape[1]):
        col = U[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300)
        idx = np.argmax(big)
        if big[idx] and col[idx] < 0:
            U[:, j] = -col
            V[:, j] = -V[:, j]
    return U, V


def top_r_svd(A, r):
    """Leading ``r`` singular triplets of a dense or sparse ``A``,
    deterministically signed.

    Lanczos needs ``r < min(A.shape)``; a sparse ``A`` that fails that is
    densified.
    """
    sparse = scipy.sparse.issparse(A)
    A = A.astype(np.float64, copy=False) if sparse else as_matrix(A)
    if sparse and not np.all(np.isfinite(A.data)):
        raise InputError("matrix contains NaN or Inf entries")
    n1, n2 = A.shape
    if not 1 <= r <= min(n1, n2):
        raise ParameterError(f"rank {r} out of range for shape {A.shape}")
    if r < min(n1, n2) and (sparse or max(n1, n2) > DENSE_SVD_CUTOFF):
        try:
            U, S, Vt = scipy.sparse.linalg.svds(A, k=r, v0=np.ones(min(n1, n2)))
        except scipy.sparse.linalg.ArpackError:
            # the all-ones start is in the kernel of A'A or AA' (A is zero,
            # or its rows or columns all sum to zero): the dense SVD is exact
            pass
        else:
            order = np.argsort(-S)
            U, V = _fix_signs(U[:, order].copy(), Vt[order].T.copy())
            return TruncatedSVD(U=U, S=np.maximum(S[order], 0.0), V=V)
    U, S, Vt = np.linalg.svd(A.toarray() if sparse else A, full_matrices=False)
    U, V = _fix_signs(U[:, :r].copy(), Vt[:r].T.copy())
    return TruncatedSVD(U=U, S=np.maximum(S[:r], 0.0), V=V)


def operator_norm(A):
    """Largest singular value of a dense or sparse ``A``."""
    return float(top_r_svd(A, 1).S[0])


def orthogonal_procrustes(Z, Zstar):
    """Orthogonal ``R`` minimizing ``||Z - Zstar @ R||_F`` and the attained value.

    ``R`` comes from the SVD of ``Zstar.T @ Z``; this is the classical
    closed-form solution.
    """
    Z = as_matrix(Z)
    Zstar = as_matrix(Zstar)
    if Z.shape != Zstar.shape:
        raise ParameterError(f"shape mismatch: {Z.shape} vs {Zstar.shape}")
    U, _, Vt = np.linalg.svd(Zstar.T @ Z)
    R = U @ Vt
    residual = float(np.linalg.norm(Z - Zstar @ R))
    return R, residual
