import numpy as np
import pytest

from detmc import bench, graphs, sampling
from detmc.errors import FormatError, ParameterError
from support import complete_graph


def dense_mask(g):
    M = np.zeros((g.n1, g.n2))
    M[g.rows, g.cols] = 1.0
    return M


class TestObserve:
    def test_diagonal_pattern(self):
        g = graphs.BiregularGraph(2, 2, np.array([[0, 0], [1, 1]]))
        obs = sampling.observe(np.array([[1.0, 2.0], [3.0, 4.0]]), g)
        dense = np.zeros((2, 2))
        dense[g.rows, g.cols] = obs.values
        assert np.array_equal(dense, np.array([[1.0, 0.0], [0.0, 4.0]]))

    def test_complete_graph_enumerates_everything(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 4))
        obs = sampling.observe(M, complete_graph(3, 4))
        assert np.array_equal(obs.values, M.ravel())
        assert obs.rate == 1.0

    def test_zero_matrix(self):
        g = graphs.random_biregular(6, 6, 2, seed=0)
        obs = sampling.observe(np.zeros((6, 6)), g)
        assert np.all(obs.values == 0)

    def test_shape_mismatch(self):
        g = graphs.random_biregular(6, 6, 2, seed=0)
        with pytest.raises(ParameterError):
            sampling.observe(np.zeros((5, 6)), g)

    def test_idempotent_in_dense_form(self):
        rng = np.random.default_rng(1)
        g = graphs.random_biregular(8, 8, 3, seed=2)
        M = rng.standard_normal((8, 8))
        once = np.zeros((8, 8))
        once[g.rows, g.cols] = sampling.observe(M, g).values
        twice = np.zeros((8, 8))
        twice[g.rows, g.cols] = sampling.observe(once, g).values
        assert np.array_equal(once, twice)


class TestRescaledDense:
    def test_complete_is_identity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 4))
        obs = sampling.observe(M, complete_graph(4, 4))
        assert np.allclose(sampling.rescaled_dense(obs), M)

    def test_half_rate_doubles(self):
        g = graphs.random_biregular(4, 4, 2, seed=1)
        M = np.zeros((4, 4))
        i, j = g.edges[0]
        M[i, j] = 1.0
        out = sampling.rescaled_dense(sampling.observe(M, g))
        assert out[i, j] == pytest.approx(2.0)

    def test_rank_one_exact_on_complete(self):
        M = np.ones((2, 2))
        obs = sampling.observe(M, complete_graph(2, 2))
        tsvd = sampling.rescaled_top_svd(obs, 1)
        assert np.allclose(tsvd.reconstruct(), M, atol=1e-12)

    def test_sparse_and_dense_top_svd_agree(self):
        gt = bench.synthetic_low_rank(256, 256, 3, 3.0, seed=5)
        g = graphs.random_biregular(256, 256, 20, seed=6)
        obs = sampling.observe(gt.matrix, g)
        dense = sampling.rescaled_dense(obs)
        assert obs.pattern.m / (256 * 256) <= 0.25  # sparse path active
        from detmc.kernels import top_r_svd

        a = sampling.rescaled_top_svd(obs, 3)
        b = top_r_svd(dense, 3)
        assert np.all(np.abs(a.S - b.S) <= 1e-8 * b.S[0])
        assert np.linalg.norm(a.reconstruct() - b.reconstruct()) <= 1e-7 * b.S[0]


class TestSparseProducts:
    def test_rescaled_inner_product_matches_dense(self):
        rng = np.random.default_rng(3)
        g = graphs.random_biregular(20, 20, 5, seed=4)
        mask = dense_mask(g)
        for _ in range(5):
            A = rng.standard_normal((20, 20))
            B = rng.standard_normal((20, 20))
            sparse_val = float(
                (A[g.rows, g.cols] * B[g.rows, g.cols]).sum()
            ) / g.rate
            dense_val = float(((mask * A) * (mask * B)).sum()) / g.rate
            assert abs(sparse_val - dense_val) <= 1e-12 * max(abs(dense_val), 1.0)

    def test_residual_zero_at_ground_truth(self, small_instance):
        gt, g, obs = small_instance
        K = sampling.observed_residual(gt.left_factor, gt.right_factor, obs)
        assert np.abs(K.data).max() <= 1e-10 * np.abs(obs.values).max()

    def test_residual_at_zero_factors(self, small_instance):
        gt, g, obs = small_instance
        r = gt.rank
        K = sampling.observed_residual(
            np.zeros((g.n1, r)), np.zeros((g.n2, r)), obs
        )
        assert np.allclose(K.data, -obs.values)

    def test_residual_matches_dense_oracle(self, small_instance):
        gt, g, obs = small_instance
        rng = np.random.default_rng(5)
        X = rng.standard_normal((g.n1, gt.rank))
        Y = rng.standard_normal((g.n2, gt.rank))
        K = sampling.observed_residual(X, Y, obs)
        dense = (X @ Y.T - gt.matrix) * dense_mask(g)
        assert np.allclose(K.toarray(), dense, atol=1e-12)

    def test_residual_products_match_dense_oracle(self):
        rng = np.random.default_rng(6)
        gt = bench.synthetic_low_rank(30, 30, 3, 2.0, seed=7)
        g = graphs.random_biregular(30, 30, 6, seed=8)
        obs = sampling.observe(gt.matrix, g)
        X = rng.standard_normal((30, 3))
        Y = rng.standard_normal((30, 3))
        K = sampling.observed_residual(X, Y, obs)
        Kd = (X @ Y.T - gt.matrix) * dense_mask(g)
        assert np.allclose(K @ Y, Kd @ Y, atol=1e-12)
        assert np.allclose(K.T @ X, Kd.T @ X, atol=1e-12)

    @pytest.mark.parametrize("kind", ["biregular", "bernoulli"])
    def test_residual_matches_dense_and_fancy_gather(self, kind):
        gt = bench.synthetic_low_rank(40, 30, 3, 2.0, seed=11)
        if kind == "biregular":
            pat = graphs.random_biregular(40, 30, 6, seed=12)
        else:
            pat = graphs.bernoulli_mask(40, 30, 0.2, seed=12)
        obs = sampling.observe(gt.matrix, pat)
        rng = np.random.default_rng(13)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((30, 3))
        K = sampling.observed_residual(X, Y, obs)
        dense = (X @ Y.T)[pat.rows, pat.cols] - obs.values
        assert np.allclose(K.data, dense, rtol=0, atol=1e-12)
        # the same values, bit for bit, as a fancy-indexed row gather
        fancy = np.einsum("ij,ij->i", X[pat.rows], Y[pat.cols]) - obs.values
        assert np.array_equal(K.data, fancy)
        assert np.array_equal(K.indices, pat.cols)
        assert np.array_equal(K.indptr, pat.row_ptr)

    def test_residuals_share_read_only_index_arrays(self, small_instance):
        gt, g, obs = small_instance
        X, Y = gt.left_factor, gt.right_factor
        K1 = sampling.observed_residual(X, Y, obs)
        K2 = sampling.observed_residual(2 * X, Y, obs)
        assert np.shares_memory(K1.indices, K2.indices)
        with pytest.raises(ValueError):
            K1.indices[0] = K1.indices[1]
        assert np.array_equal(K2.indices, g.cols)

    def test_residual_shape_mismatch(self, small_instance):
        gt, g, obs = small_instance
        with pytest.raises(ParameterError):
            sampling.observed_residual(
                np.zeros((g.n1 + 1, gt.rank)), np.zeros((g.n2, gt.rank)), obs
            )


class TestGroundTruth:
    def test_balanced_factors(self):
        gt = bench.synthetic_low_rank(20, 15, 3, 4.0, seed=9)
        S = gt.svd.S
        assert np.allclose(gt.left_factor.T @ gt.left_factor, np.diag(S), atol=1e-10 * S[0])
        assert np.allclose(gt.right_factor.T @ gt.right_factor, np.diag(S), atol=1e-10 * S[0])
        assert np.allclose(gt.matrix, gt.left_factor @ gt.right_factor.T, atol=1e-10 * S[0])

    def test_from_matrix_round_trip(self):
        gt = bench.synthetic_low_rank(12, 10, 2, 3.0, seed=10)
        gt2 = sampling.ground_truth(gt.matrix, 2)
        assert gt2.rank == 2
        assert gt2.condition_number == pytest.approx(3.0, rel=1e-9)

    def test_full_rank_matrix_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ParameterError):
            sampling.ground_truth(rng.standard_normal((8, 8)), 2)


class TestCoherence:
    def test_flat_rank_one(self):
        n = 16
        M = np.ones((n, n)) / n
        gt = sampling.ground_truth(M, 1)
        assert gt.coherence_mu == pytest.approx(1.0, rel=1e-10)

    def test_spiky_rank_one(self):
        n = 16
        M = np.zeros((n, n))
        M[0, 0] = 1.0
        gt = sampling.ground_truth(M, 1)
        assert gt.coherence_mu == pytest.approx(float(n), rel=1e-10)

    def test_matches_direct_row_scan(self):
        gt = bench.synthetic_low_rank(256, 256, 3, 1.0, seed=12)
        U, V = gt.svd.U, gt.svd.V
        direct = max(
            (256 / 3) * (U * U).sum(axis=1).max(),
            (256 / 3) * (V * V).sum(axis=1).max(),
        )
        assert gt.coherence_mu == pytest.approx(direct, rel=1e-12)


class TestSubsetIsotropyGap:
    def test_flat_rank_one_is_zero(self):
        n = 16
        gt = sampling.ground_truth(np.ones((n, n)) / n, 1)
        g = graphs.random_biregular(n, n, 4, seed=13)
        rep = sampling.subset_isotropy_gap(gt, g)
        assert rep.delta_d_estimate <= 1e-12
        assert rep.method == "graph-neighborhoods"
        assert rep.subsets_checked == 2 * n

    def test_exhaustive_identity_case(self):
        # U = I_4 (rank 4), subsets of size 2: gap is exactly 1
        U = np.eye(4)
        S = np.array([4.0, 3.0, 2.0, 1.0])
        gt = sampling.ground_truth_from_svd(U, S, np.linalg.qr(
            np.random.default_rng(14).standard_normal((6, 4)))[0])
        g = graphs.random_biregular(4, 6, 3, seed=15)  # d2 = 2
        rep = sampling.subset_isotropy_gap(gt, g, exhaustive=True)
        assert rep.method == "exhaustive"
        assert rep.delta_d_estimate == pytest.approx(1.0, rel=1e-12)

    def test_complete_graph_single_subset(self):
        gt = bench.synthetic_low_rank(8, 8, 2, 2.0, seed=16)
        rep = sampling.subset_isotropy_gap(gt, complete_graph(8, 8))
        # the only size-n subset is everything: U'U = I exactly
        assert rep.delta_d_estimate <= 1e-10

    def test_monotone_in_extra_subsets(self):
        gt = bench.synthetic_low_rank(24, 24, 2, 2.0, seed=17)
        g = graphs.random_biregular(24, 24, 6, seed=18)
        vals = [
            sampling.subset_isotropy_gap(gt, g, extra_subsets=k, seed=99).delta_d_estimate
            for k in (0, 2, 5, 10)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_exhaustive_size_guard(self):
        gt = bench.synthetic_low_rank(64, 64, 2, 2.0, seed=19)
        g = graphs.random_biregular(64, 64, 16, seed=20)
        with pytest.raises(ParameterError):
            sampling.subset_isotropy_gap(gt, g, exhaustive=True)


class TestMatrixMarket:
    def test_round_trip(self, small_instance, tmp_path):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        obs2 = sampling.load_observed(path, g)
        assert np.array_equal(obs2.values, obs.values)
        assert obs2.rate == obs.rate
        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real general"

    def test_pattern_mismatch_rejected(self, small_instance, tmp_path):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        other = graphs.random_biregular(30, 30, 6, seed=1234)
        with pytest.raises(FormatError):
            sampling.load_observed(path, other)

    def test_truncated_file_rejected(self, small_instance, tmp_path):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(FormatError):
            sampling.load_observed(path, g)
