import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from detmc import kernels
from detmc.errors import InputError, ParameterError


def gesvd_oracle(A):
    """Classic Golub-Kahan bidiagonalization SVD (independent LAPACK driver)."""
    return scipy.linalg.svd(A, full_matrices=False, lapack_driver="gesvd")


def permutation_difference(n):
    """Dense I - P for a derangement P: every row and column sums to zero."""
    return np.eye(n) - np.roll(np.eye(n), 1, axis=1)


def sparse_with_stored(n1, n2, stored, seed):
    """CSR with exactly ``stored`` nonzero entries at random positions."""
    rng = np.random.default_rng(seed)
    rows, cols = np.divmod(rng.choice(n1 * n2, size=stored, replace=False), n2)
    return scipy.sparse.csr_matrix(
        (rng.uniform(0.5, 1.5, stored) * rng.choice([-1.0, 1.0], stored), (rows, cols)),
        shape=(n1, n2),
    )


class TestAsMatrix:
    @pytest.mark.parametrize("a", [np.zeros((0, 3)), np.zeros((3, 0)), [], [1.0, 2.0],
                                   np.ones((2, 2, 2))],
                             ids=["0x3", "3x0", "empty list", "1-D", "3-D"])
    def test_not_a_nonempty_matrix(self, a):
        shape = np.shape(a)
        with pytest.raises(InputError, match=rf"^expected a non-empty 2-D matrix, got shape "
                                             rf"{re.escape(str(shape))}$"):
            kernels.as_matrix(a)


class TestTopRSvd:
    def test_diagonal(self):
        tsvd = kernels.top_r_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(tsvd.S, [3.0, 2.0])
        assert np.allclose(tsvd.reconstruct(), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_rank_one_ones(self):
        tsvd = kernels.top_r_svd(np.ones((2, 2)), 1)
        assert np.allclose(tsvd.S, [2.0])
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(tsvd.U[:, 0], v)
        assert np.allclose(tsvd.V[:, 0], v)

    def test_matches_gesvd_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 15))
        tsvd = kernels.top_r_svd(A, 5)
        _, S, _ = gesvd_oracle(A)
        assert np.all(np.abs(tsvd.S - S[:5]) <= 1e-8 * S[0])

    def test_reconstruction_error_is_next_singular_value(self):
        rng = np.random.default_rng(1)
        for n1, n2, r in [(50, 40, 4), (23, 50, 7), (10, 10, 3)]:
            A = rng.standard_normal((n1, n2))
            S = np.linalg.svd(A, compute_uv=False)
            tsvd = kernels.top_r_svd(A, r)
            gap = kernels.operator_norm(A - tsvd.reconstruct())
            assert abs(gap - S[r]) <= 1e-8 * S[0]

    def test_orthonormal_and_sorted(self):
        rng = np.random.default_rng(2)
        tsvd = kernels.top_r_svd(rng.standard_normal((30, 20)), 6)
        assert np.allclose(tsvd.U.T @ tsvd.U, np.eye(6), atol=1e-10)
        assert np.allclose(tsvd.V.T @ tsvd.V, np.eye(6), atol=1e-10)
        assert np.all(np.diff(tsvd.S) <= 0)
        assert np.all(tsvd.S >= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 9))
        t1 = kernels.top_r_svd(A, 3)
        t2 = kernels.top_r_svd(A.copy(), 3)
        assert np.array_equal(t1.U, t2.U)
        for j in range(3):
            col = t1.U[:, j]
            first = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
            assert first >= 0

    def test_lanczos_path_above_cutoff(self):
        # a dense matrix above the cutoff takes Lanczos: known spectrum
        # must be recovered
        rng = np.random.default_rng(4)
        n1, n2, k = 2200, 2100, 8
        U = np.linalg.qr(rng.standard_normal((n1, k)))[0]
        V = np.linalg.qr(rng.standard_normal((n2, k)))[0]
        S = np.array([50.0, 40.0, 30.0, 20.0, 10.0, 5.0, 2.0, 1.0])
        A = (U * S) @ V.T
        assert max(A.shape) > kernels.DENSE_SVD_CUTOFF
        tsvd = kernels.top_r_svd(A, 5)
        assert np.all(np.abs(tsvd.S - S[:5]) <= 1e-8 * S[0])
        best = (U[:, :5] * S[:5]) @ V[:, :5].T
        assert np.linalg.norm(tsvd.reconstruct() - best) <= 1e-6 * S[0]

    def test_sparse_matches_dense(self):
        # the 240 x 210 CSR takes Lanczos at r = 3, the 40 x 30 one (a side
        # below 200) LAPACK; r = min(shape) densifies both
        rng = np.random.default_rng(11)
        for shape, rate in (((40, 30), 0.3), ((240, 210), 0.2)):
            A = rng.standard_normal(shape) * (rng.random(shape) < rate)
            for r in (3, min(shape)):
                sp = kernels.top_r_svd(scipy.sparse.csr_matrix(A), r)
                dense = kernels.top_r_svd(A, r)
                assert np.all(np.abs(sp.S - dense.S) <= 1e-12 * dense.S[0])
                assert np.allclose(sp.reconstruct(), dense.reconstruct(), atol=1e-10)

    def test_parameter_errors(self):
        A = np.eye(3)
        for B in (A, scipy.sparse.csr_matrix(A)):
            with pytest.raises(ParameterError):
                kernels.top_r_svd(B, 0)
            with pytest.raises(ParameterError):
                kernels.top_r_svd(B, 4)
        with pytest.raises(InputError):
            kernels.top_r_svd(np.array([[1.0, np.nan]]), 1)
        with pytest.raises(InputError):
            kernels.top_r_svd(scipy.sparse.csr_matrix(np.array([[1.0, np.nan]])), 1)


class TestOperatorNorm:
    """``operator_norm`` against ``np.linalg.norm(A, 2)``, on ``A`` and
    ``A.T``, dense and CSR."""

    @staticmethod
    def assert_exact(A):
        s1 = np.linalg.norm(A, 2)
        for B in (A, A.T, scipy.sparse.csr_matrix(A), scipy.sparse.csr_matrix(A.T)):
            assert abs(kernels.operator_norm(B) - s1) <= 1e-12 * max(s1, 1.0)

    def test_identity(self):
        self.assert_exact(np.eye(3))

    def test_all_ones(self):
        for n in (2, 5, 9):
            self.assert_exact(np.ones((n, n)))

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            self.assert_exact(rng.standard_normal((10, 10)))
        self.assert_exact(rng.standard_normal((300, 250)) * (rng.random((300, 250)) < 0.05))

    def test_transpose_symmetry(self):
        # a 1 x n shape leaves Lanczos no room at r = 1: CSR is densified
        rng = np.random.default_rng(6)
        for shape in [(12, 7), (7, 12), (9, 9), (1, 9)]:
            self.assert_exact(rng.standard_normal(shape))

    def test_top_vector_orthogonal_to_ones(self):
        # the constant vector is in the kernel of A'A and AA'; the 200 x 200
        # CSR takes Lanczos, whose start is not in it
        self.assert_exact(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        self.assert_exact(permutation_difference(200))

    def test_zero_matrix(self):
        A = np.zeros((4, 3))
        assert kernels.operator_norm(A) == 0.0
        assert kernels.operator_norm(scipy.sparse.csr_matrix(A)) == 0.0


class TestOrthogonalProcrustes:
    def test_identity_alignment(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((10, 3))
        R, res = kernels.orthogonal_procrustes(Z, Z)
        assert np.allclose(R, np.eye(3), atol=1e-10)
        assert res <= 1e-10

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((10, 3))
        R0 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        R, res = kernels.orthogonal_procrustes(Z @ R0, Z)
        assert np.allclose(R, R0, atol=1e-10)
        assert res <= 1e-10

    def test_scalar_case(self):
        R, res = kernels.orthogonal_procrustes(np.array([[2.0]]), np.array([[1.0]]))
        assert R[0, 0] == pytest.approx(1.0)
        assert res == pytest.approx(1.0)

    def test_residual_invariant_under_common_rotation(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((12, 4))
        Zs = rng.standard_normal((12, 4))
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        _, r1 = kernels.orthogonal_procrustes(Z, Zs)
        _, r2 = kernels.orthogonal_procrustes(Z @ Q, Zs @ Q)
        assert abs(r1 - r2) <= 1e-10 * max(r1, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            kernels.orthogonal_procrustes(np.eye(3), np.eye(4))


class TestRouting:
    """Which inputs ``top_r_svd`` gives Lanczos, one threshold at a time,
    and every route against ``np.linalg.svd`` of the densified input."""

    # (shape, stored, r, Lanczos runs for dense / CSR / operator)
    TABLE = [
        ((2049, 3), 2049 * 3, 1, (1, 1, 1)),  # larger side above the cutoff
        ((2048, 3), 2048 * 3, 1, (0, 0, 0)),  # at the cutoff, a side below 200
        ((2049, 3), 2049 * 3, 3, (0, 0, 0)),  # r is the smaller side
        ((200, 260), 1000, 1, (0, 1, 1)),  # smaller side 200
        ((199, 260), 1000, 1, (0, 0, 0)),  # smaller side 199
        ((200, 260), 13000, 1, (0, 1, 1)),  # a quarter of the entries stored
        ((200, 260), 13001, 1, (0, 0, 1)),  # one more: an operator stores none
        ((200, 260), 1000, 99, (0, 1, 1)),  # r below half the smaller side
        ((200, 260), 1000, 100, (0, 0, 0)),  # r at half of it
    ]

    @pytest.fixture
    def lanczos_runs(self, monkeypatch):
        """The ``k`` of every ``svds`` run ``top_r_svd`` makes."""
        svds, seen = scipy.sparse.linalg.svds, []

        def counting(*args, **kwargs):
            seen.append(kwargs.get("k"))
            return svds(*args, **kwargs)

        monkeypatch.setattr(kernels.scipy.sparse.linalg, "svds", counting)
        return seen

    @pytest.mark.parametrize("shape, stored, r, runs", TABLE, ids=[
        "above-cutoff", "at-cutoff", "r-is-side", "side-200", "side-199",
        "quarter-stored", "quarter-stored+1", "r-below-half", "r-at-half"])
    def test_route_and_result(self, lanczos_runs, shape, stored, r, runs):
        csr = sparse_with_stored(*shape, stored, seed=sum(shape) + stored + r)
        dense = csr.toarray()
        S = np.linalg.svd(dense, compute_uv=False)
        inputs = (dense, csr, scipy.sparse.linalg.aslinearoperator(csr))
        for A, want in zip(inputs, runs):
            lanczos_runs.clear()
            tsvd = kernels.top_r_svd(A, r)
            assert lanczos_runs == [r] * want, type(A)
            assert np.all(np.abs(tsvd.S - S[:r]) <= 1e-10 * S[0])
            assert np.linalg.norm(dense @ tsvd.V - tsvd.U * tsvd.S) <= 1e-10 * S[0]
            assert np.linalg.norm(dense.T @ tsvd.U - tsvd.V * tsvd.S) <= 1e-10 * S[0]

    def test_arpack_failure_takes_the_dense_svd(self, lanczos_runs):
        # every start is in the kernel of a zero matrix: ARPACK refuses it
        # and LAPACK answers, for CSR and operator
        csr = scipy.sparse.csr_matrix((200, 200))
        for A in (csr, scipy.sparse.linalg.aslinearoperator(csr)):
            lanczos_runs.clear()
            assert kernels.operator_norm(A) == 0.0
            assert lanczos_runs == [1]

    def test_all_ones_start_unless_it_is_a_singular_vector(self, monkeypatch):
        # constant row and column sums (a 4-regular 200 x 200 CSR) make the
        # all-ones vector a singular vector; any other input keeps it as the
        # start, so a spectral init on an observation starts where it did
        svds, starts = scipy.sparse.linalg.svds, []

        def recording(A, k, v0):
            starts.append(v0)
            return svds(A, k=k, v0=v0)

        monkeypatch.setattr(kernels.scipy.sparse.linalg, "svds", recording)
        regular = scipy.sparse.csr_matrix(np.kron(np.eye(50), np.ones((4, 4))))
        for A in (regular, sparse_with_stored(200, 260, 1000, seed=0)):
            kernels.top_r_svd(A, 2)
        assert np.array_equal(starts[0], np.cos(0.7 * np.arange(200)) + 1)
        assert np.array_equal(starts[1], np.ones(200))


def test_only_kernels_calls_svds():
    # top_r_svd is the one place that picks Lanczos over LAPACK
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "detmc"
    callers = [
        path.name
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "svds" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert callers == ["kernels.py"]
