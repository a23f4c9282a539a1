"""fp64 linear-algebra primitives shared by the rest of the package.

``top_r_svd`` is the one routine that picks between LAPACK and ARPACK.
It takes a dense array, a scipy sparse matrix or a ``LinearOperator``
and runs Lanczos (``svds``), which touches the input only through
products, when ``r`` is below the smaller side and either the larger
side exceeds ``DENSE_SVD_CUTOFF``, or the input is sparse or an operator
with a smaller side of at least 200, at most a quarter of its entries
stored (an operator stores none) and ``r`` below half the smaller side.
Everything else, and any input ARPACK fails on, gets LAPACK's SVD of the
densified input.  Both paths apply the same deterministic sign
convention, and ``operator_norm`` is the leading singular value it
returns.  Lanczos starts at the all-ones vector, unless the input's row
sums and column sums are each constant (every biregular adjacency): that
vector is then a singular vector, ARPACK goes on from its own random
state and the last bits vary from call to call, so such an input starts
at ``cos(0.7 k) + 1``.
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
    """Leading ``r`` singular triplets of a dense, sparse or operator ``A``,
    deterministically signed, by the route the module docstring states."""
    operator = isinstance(A, scipy.sparse.linalg.LinearOperator)
    sparse = scipy.sparse.issparse(A)
    if sparse:
        A = A.astype(np.float64, copy=False)
        if not np.all(np.isfinite(A.data)):
            raise InputError("matrix contains NaN or Inf entries")
    elif not operator:
        A = as_matrix(A)
    (n1, n2), n = A.shape, min(A.shape)
    if not 1 <= r <= n:
        raise ParameterError(f"rank {r} out of range for shape {A.shape}")
    thin = (sparse or operator) and n >= 200 and 4 * (A.nnz if sparse else 0) <= n1 * n2
    if r < n and (max(n1, n2) > DENSE_SVD_CUTOFF or thin and r < n // 2):
        v0 = np.ones(n)
        if np.ptp(A @ np.ones(n2)) == 0 and np.ptp(A.T @ np.ones(n1)) == 0:
            v0 = np.cos(0.7 * np.arange(n)) + 1  # see the module docstring
        try:
            U, S, Vt = scipy.sparse.linalg.svds(A, k=r, v0=v0)
        except scipy.sparse.linalg.ArpackError:
            # e.g. the start is in the kernel of A'A or AA' (A is zero)
            pass
        else:
            order = np.argsort(-S)
            U, V = _fix_signs(U[:, order].copy(), Vt[order].T.copy())
            return TruncatedSVD(U=U, S=np.maximum(S[order], 0.0), V=V)
    dense = A.toarray() if sparse else A @ np.eye(n2) if operator else A
    U, S, Vt = np.linalg.svd(dense, full_matrices=False)
    U, V = _fix_signs(U[:, :r].copy(), Vt[:r].T.copy())
    return TruncatedSVD(U=U, S=np.maximum(S[:r], 0.0), V=V)


def operator_norm(A):
    """Largest singular value of a dense, sparse or operator ``A``."""
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
