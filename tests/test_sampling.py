import numpy as np
import pytest
from scipy.io import mmread

from detmc import bench, graphs, kernels, sampling
from detmc.errors import FormatError, ParameterError
from support import (bernoulli_with_empty_row_and_column, complete_graph, edge_text_reference,
                     observed_text_reference)


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

    @pytest.mark.parametrize("count", [11, 13])
    def test_wrong_number_of_values(self, count):
        g = graphs.random_biregular(6, 6, 2, seed=0)
        with pytest.raises(ParameterError, match=rf"^expected 12 values, got \({count},\)$"):
            sampling.Observation(g, np.ones(count))

    def test_idempotent_in_dense_form(self):
        rng = np.random.default_rng(1)
        g = graphs.random_biregular(8, 8, 3, seed=2)
        M = rng.standard_normal((8, 8))
        once = np.zeros((8, 8))
        once[g.rows, g.cols] = sampling.observe(M, g).values
        twice = np.zeros((8, 8))
        twice[g.rows, g.cols] = sampling.observe(once, g).values
        assert np.array_equal(once, twice)


def rescaled(obs):
    """The rescaled observation p^-1 P_Omega(M), scattered into a dense array."""
    out = np.zeros(obs.shape)
    out[obs.pattern.rows, obs.pattern.cols] = obs.values / obs.rate
    return out


class TestRescaledDense:
    """``rescaled_top_svd`` on the rescaled observation, whose small-instance
    path densifies the CSR of the rescaled values."""

    def test_complete_is_identity(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((4, 4))
        obs = sampling.observe(M, complete_graph(4, 4))
        assert np.allclose(sampling.rescaled_top_svd(obs, 4).reconstruct(), M)

    def test_half_rate_doubles(self):
        g = graphs.random_biregular(4, 4, 2, seed=1)
        M = np.zeros((4, 4))
        i, j = g.edges[0]
        M[i, j] = 1.0
        tsvd = sampling.rescaled_top_svd(sampling.observe(M, g), 1)
        assert tsvd.S[0] == pytest.approx(2.0)
        assert tsvd.reconstruct()[i, j] == pytest.approx(2.0)

    def test_small_path_densifies_the_csr(self, monkeypatch):
        # the operand LAPACK factors is, bit for bit, the scattered
        # rescaled values, on a graph and a mask
        rng = np.random.default_rng(3)
        svd, seen = np.linalg.svd, []

        def spying(A, *args, **kwargs):
            seen.append(A)
            return svd(A, *args, **kwargs)

        monkeypatch.setattr(kernels.np.linalg, "svd", spying)
        for pattern in (graphs.random_biregular(30, 20, 4, seed=1),
                        bernoulli_with_empty_row_and_column()):
            obs = sampling.observe(rng.standard_normal((pattern.n1, pattern.n2)), pattern)
            sampling.rescaled_top_svd(obs, 2)
            assert isinstance(seen[-1], np.ndarray)
            assert np.array_equal(seen[-1], rescaled(obs))

    def test_rank_one_exact_on_complete(self):
        M = np.ones((2, 2))
        obs = sampling.observe(M, complete_graph(2, 2))
        tsvd = sampling.rescaled_top_svd(obs, 1)
        assert np.allclose(tsvd.reconstruct(), M, atol=1e-12)

    def test_sparse_and_dense_top_svd_agree(self):
        gt = bench.synthetic_low_rank(256, 256, 3, 3.0, seed=5)
        g = graphs.random_biregular(256, 256, 20, seed=6)
        obs = sampling.observe(gt.matrix, g)
        dense = rescaled(obs)
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
        # the same values, bit for bit, as the same r-major arithmetic done
        # by plain indexing (which returns the gathers (m, r)-ordered, so
        # they are laid out r-major again)
        fancy = np.einsum(
            "ki,ki->i",
            np.ascontiguousarray(X.T[:, pat.rows]),
            np.ascontiguousarray(Y.T[:, pat.cols]),
        ) - obs.values
        assert np.array_equal(K.data, fancy)
        assert np.array_equal(K.indices, pat.cols)
        assert np.array_equal(K.indptr, np.searchsorted(pat.rows, np.arange(pat.n1 + 1)))

    def test_residuals_share_read_only_index_arrays(self, small_instance):
        gt, g, obs = small_instance
        X, Y = gt.left_factor, gt.right_factor
        K1 = sampling.observed_residual(X, Y, obs)
        K2 = sampling.observed_residual(2 * X, Y, obs)
        assert np.shares_memory(K1.indices, K2.indices)
        # the pattern's adjacency is the one CSR whose index arrays they wrap
        assert np.shares_memory(K1.indices, g.adjacency.indices)
        assert np.shares_memory(K1.indptr, g.adjacency.indptr)
        with pytest.raises(ValueError):
            K1.indices[0] = K1.indices[1]
        assert np.array_equal(K2.indices, g.cols)

    def test_residual_shape_mismatch(self, small_instance):
        gt, g, obs = small_instance
        with pytest.raises(ParameterError):
            sampling.observed_residual(
                np.zeros((g.n1 + 1, gt.rank)), np.zeros((g.n2, gt.rank)), obs
            )


def _layouts(A):
    """The values of ``A`` C-ordered, Fortran-ordered and as a strided view."""
    wide = np.zeros((A.shape[0], 2 * A.shape[1]))
    wide[:, ::2] = A
    return {"C": np.ascontiguousarray(A), "F": np.asfortranarray(A), "strided": wide[:, ::2]}


def _kernel_pattern(kind):
    if kind == "biregular":
        return graphs.random_biregular(40, 30, 6, seed=21)
    return bernoulli_with_empty_row_and_column()


class TestResidualKernel:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("kind", ["biregular", "bernoulli"])
    def test_matches_dense_product_in_every_layout(self, kind, r, layout):
        pat = _kernel_pattern(kind)
        rng = np.random.default_rng(23)
        X = rng.standard_normal((pat.n1, r))
        Y = rng.standard_normal((pat.n2, r))
        obs = sampling.Observation(pat, rng.standard_normal(pat.m))
        K = sampling.observed_residual(_layouts(X)[layout], _layouts(Y)[layout], obs)
        dense = (X @ Y.T)[pat.rows, pat.cols] - obs.values
        scale = r * np.abs(X).max() * np.abs(Y).max() + np.abs(obs.values).max()
        assert np.abs(K.data - dense).max() <= 1e-13 * scale
        assert np.array_equal(K.indices, pat.cols)
        assert np.array_equal(K.indptr, np.searchsorted(pat.rows, np.arange(pat.n1 + 1)))
        # the layout of the input does not change a bit of the result
        K_c = sampling.observed_residual(X, Y, obs)
        assert np.array_equal(K.data, K_c.data)

    def test_empty_rows_and_columns_are_empty_in_the_residual(self):
        pat = _kernel_pattern("bernoulli")
        obs = sampling.Observation(pat, np.ones(pat.m))
        K = sampling.observed_residual(np.ones((40, 2)), np.ones((25, 2)), obs).toarray()
        assert not K[0].any() and not K[:, 0].any()
        assert np.array_equal(K[pat.rows, pat.cols], np.ones(pat.m))

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("kind", ["biregular", "bernoulli"])
    def test_residual_products_are_scipys_products_bit_for_bit(self, kind, r):
        # residual_products calls scipy's private CSR/CSC mat-vec loops; a
        # scipy whose loops change name, arguments or summation order fails
        # here instead of moving the solvers' iterates
        pat = _kernel_pattern(kind)
        rng = np.random.default_rng(24)
        X = rng.standard_normal((pat.n1, r))
        Y = rng.standard_normal((pat.n2, r))
        obs = sampling.Observation(pat, rng.standard_normal(pat.m))
        K = sampling.observed_residual(X, Y, obs)
        Xt, Yt = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
        KY, KtX = sampling.residual_products(K, Xt, Yt)
        assert np.array_equal(KY, (K @ Y).T)
        assert np.array_equal(KtX, (K.T @ X).T)
        # a fresh result every call, not one summed into the last
        again = sampling.residual_products(K, Xt, Yt)
        assert np.array_equal(again[0], KY) and np.array_equal(again[1], KtX)
        Kd = K.toarray()
        assert np.allclose(KY, (Kd @ Y).T, rtol=0, atol=1e-12)
        assert np.allclose(KtX, (Kd.T @ X).T, rtol=0, atol=1e-12)
        if kind == "bernoulli":  # row 0 and column 0 are empty
            assert not KY[:, 0].any() and not KtX[:, 0].any()

    def test_residual_products_reject_mismatched_factors(self):
        pat = _kernel_pattern("bernoulli")
        obs = sampling.Observation(pat, np.ones(pat.m))
        K = sampling.observed_residual(np.ones((40, 2)), np.ones((25, 2)), obs)
        for Xt, Yt in [(np.ones((2, 40)), np.ones((2, 24))),
                       (np.ones((2, 40)), np.ones((3, 25))),
                       (np.ones((2, 25)), np.ones((2, 40)))]:
            with pytest.raises(ParameterError):
                sampling.residual_products(K, Xt, Yt)

    def test_residual_into_out_is_out_and_equals_the_fresh_one(self):
        pat = _kernel_pattern("bernoulli")
        rng = np.random.default_rng(25)
        X = rng.standard_normal((pat.n1, 3))
        Y = rng.standard_normal((pat.n2, 3))
        obs = sampling.Observation(pat, rng.standard_normal(pat.m))
        K = pat.csr_with_values(np.empty(pat.m))
        for scale in (1.0, 2.0):  # refilled, not accumulated
            assert sampling.observed_residual(scale * X, Y, obs, out=K) is K
            fresh = sampling.observed_residual(scale * X, Y, obs)
            assert fresh is not K
            assert np.array_equal(K.data, fresh.data)
        # a matrix of an equal pattern built apart, or a copy, is not the
        # pattern's own residual matrix
        twin = graphs.BernoulliMask(pat.n1, pat.n2, pat.edges, pat.rate)
        for other in (twin.csr_with_values(np.empty(twin.m)), K.copy(),
                      _kernel_pattern("biregular").adjacency.copy()):
            with pytest.raises(ParameterError):
                sampling.observed_residual(X, Y, obs, out=other)

    @pytest.mark.parametrize("r", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["lps", "random", "loaded", "bernoulli"])
    def test_equals_the_repeat_path_bit_for_bit(self, lps_5_13, tmp_path, kind, r):
        # a biregular graph gathers Y by its neighbour table and dots each
        # row against it; the values are those of the repeat by the row
        # counts, which a Bernoulli mask still takes
        if kind == "loaded":
            graphs.save_edges(graphs.random_biregular(60, 40, 10, seed=27), tmp_path / "g")
        pat = {"lps": lambda: lps_5_13,
               "random": lambda: graphs.random_biregular(96, 64, 8, seed=26),
               "loaded": lambda: graphs.load_edges(tmp_path / "g"),
               "bernoulli": lambda: graphs.bernoulli_mask(50, 40, 0.2, seed=28)}[kind]()
        assert isinstance(pat, graphs.BiregularGraph) == (kind != "bernoulli")
        rng = np.random.default_rng(29)
        Xt, Yt = rng.standard_normal((r, pat.n1)), rng.standard_normal((r, pat.n2))
        obs = sampling.Observation(pat, rng.standard_normal(pat.m))
        repeat = np.einsum("ki,ki->i", np.repeat(Xt, pat.row_counts, axis=1),
                           np.take(Yt, pat.cols, axis=1)) - obs.values
        K = pat.csr_with_values(np.empty(pat.m))
        assert sampling.observed_residual(Xt.T, Yt.T, obs, out=K) is K
        assert np.array_equal(K.data, repeat)
        assert np.array_equal(sampling.observed_residual(Xt.T, Yt.T, obs).data, repeat)

    def test_neighbors_are_cached_and_read_only(self, lps_5_13):
        g = lps_5_13
        neighbors = g.neighbors
        assert neighbors is g.neighbors and neighbors.shape == (g.n1, g.d1)
        for i in (0, 17, g.n1 - 1):
            assert np.array_equal(neighbors[i], g.cols[g.rows == i])
        with pytest.raises(ValueError):
            neighbors[0, 0] = 0

    def test_row_counts_are_cached_and_read_only(self):
        pat = _kernel_pattern("bernoulli")
        counts = pat.row_counts
        assert counts is pat.row_counts
        assert np.array_equal(counts, np.bincount(pat.rows, minlength=pat.n1))
        assert counts[0] == 0
        with pytest.raises(ValueError):
            counts[1] = 0


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

    @pytest.mark.parametrize("S", [[np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan]])
    def test_non_finite_singular_values_rejected(self, S):
        # NaN fails every comparison, so the sign and order checks let it by
        rng = np.random.default_rng(12)
        U = np.linalg.qr(rng.standard_normal((8, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        with pytest.raises(ParameterError, match="finite"):
            sampling.ground_truth_from_svd(U, S, V)


    def test_rank_deficient_matrix_rejected(self):
        # exactly rank 1: its second singular value is rounding (1.5e-15),
        # which passes a check against zero with a condition number of 4.8e16
        M = np.outer(np.arange(1.0, 7.0), np.arange(1.0, 6.0))
        with pytest.raises(ParameterError, match="^matrix has rank below 2$"):
            sampling.ground_truth(M, 2)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ParameterError, match="^matrix has rank below 1$"):
            sampling.ground_truth(np.zeros((4, 3)), 1)

    def test_well_conditioned_rank_two_accepted(self):
        gt = bench.synthetic_low_rank(6, 5, 2, 10.0, seed=13)
        gt2 = sampling.ground_truth(gt.matrix, 2)
        assert gt2.rank == 2
        assert gt2.condition_number == pytest.approx(10.0, rel=1e-9)

    @pytest.mark.parametrize("shapes", [((8, 2), (3,), (6, 3)), ((8, 3), (3,), (6, 2)),
                                        ((8, 2), (2, 1), (6, 2))],
                             ids=["U", "V", "S not 1-D"])
    def test_inconsistent_svd_shapes_rejected(self, shapes):
        U, S, V = (np.ones(shape) for shape in shapes)
        with pytest.raises(ParameterError, match="^inconsistent SVD shapes$"):
            sampling.ground_truth_from_svd(U, S, V)


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


def neighborhood_loop_gap(gt, g):
    """The isotropy gap by one ``eigvalsh`` per graph neighborhood."""
    def gap(F, S, scale):
        return np.abs(np.linalg.eigvalsh(scale * F[S].T @ F[S] - np.eye(gt.rank))).max()
    return max([gap(gt.svd.U, g.rows[g.cols == j], g.n1 / g.d2) for j in range(g.n2)]
               + [gap(gt.svd.V, g.cols[g.rows == i], g.n2 / g.d1) for i in range(g.n1)])


class TestSubsetIsotropyGap:
    def test_flat_rank_one_is_zero(self):
        n = 16
        gt = sampling.ground_truth(np.ones((n, n)) / n, 1)
        g = graphs.random_biregular(n, n, 4, seed=13)
        assert sampling.subset_isotropy_gap(gt, g) <= 1e-12

    def test_exhaustive_identity_case(self):
        # U = I_4 (rank 4), neighborhoods of size 2: (4/2)(e_a e_a' + e_b e_b')
        # - I has eigenvalues +-1, so the gap is exactly 1
        U = np.eye(4)
        S = np.array([4.0, 3.0, 2.0, 1.0])
        gt = sampling.ground_truth_from_svd(U, S, np.linalg.qr(
            np.random.default_rng(14).standard_normal((6, 4)))[0])
        g = graphs.random_biregular(4, 6, 3, seed=15)  # d2 = 2
        assert sampling.subset_isotropy_gap(gt, g) == pytest.approx(1.0, rel=1e-12)

    def test_complete_graph_single_subset(self):
        gt = bench.synthetic_low_rank(8, 8, 2, 2.0, seed=16)
        # the only size-n subset is everything: U'U = I exactly
        assert sampling.subset_isotropy_gap(gt, complete_graph(8, 8)) <= 1e-10

    def test_matches_neighborhood_loop_on_lps(self, lps_5_13):
        gt = bench.synthetic_low_rank(lps_5_13.n1, lps_5_13.n2, 3, 2.0, seed=17)
        gap = sampling.subset_isotropy_gap(gt, lps_5_13)
        assert gap == pytest.approx(neighborhood_loop_gap(gt, lps_5_13), rel=1e-12)

    def test_matches_neighborhood_loop_rectangular(self):
        gt = bench.synthetic_low_rank(48, 36, 2, 2.0, seed=18)
        g = graphs.random_biregular(48, 36, 12, seed=19)  # d2 = 16
        gap = sampling.subset_isotropy_gap(gt, g)
        assert gap == pytest.approx(neighborhood_loop_gap(gt, g), rel=1e-12)


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

    @pytest.mark.parametrize("extra", ["1 1 123.0\n3 4 0.5\n", "  \n1 1 123.0"])
    def test_entries_past_the_declared_count_rejected(self, small_instance, tmp_path, extra):
        # they used to be dropped without a word
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        with open(path, "a") as fh:
            fh.write(extra)
        with pytest.raises(FormatError) as info:
            sampling.load_observed(path, g)
        assert str(info.value) == f"{path}: more entries than the {g.m} its size line declares"

    def test_trailing_whitespace_accepted(self, small_instance, tmp_path):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        with open(path, "a") as fh:
            fh.write(" \n\n\t\n")
        assert np.array_equal(sampling.load_observed(path, g).values, obs.values)

    @pytest.mark.parametrize("bad, message", [
        ("3 4", "truncated or malformed entry 4"),
        ("3 4 0.5 1", "truncated or malformed entry 4"),
        ("", "truncated or malformed entry 4"),
        ("3 4 half", "non-numeric entry 4"),
        ("3.0 4 0.5", "non-numeric entry 4"),
    ])
    def test_bad_entry_in_the_middle_is_named(self, small_instance, tmp_path, bad, message):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        lines = path.read_text().splitlines()
        lines[2 + 4] = bad  # entry 4, after the header and the dimensions line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            sampling.load_observed(path, g)
        assert str(info.value) == f"{path}: {message}"

    def test_underscored_value_refused(self, tmp_path):
        # Python's float() reads "1_0.5" as 10.5; numpy's parse, the one
        # parser, refuses it, as the MatrixMarket format has no such number
        g = graphs.random_biregular(12, 8, 4, seed=2)
        obs = sampling.observe(bench.synthetic_low_rank(12, 8, 2, 1.0, seed=1).matrix, g)
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        lines = path.read_text().splitlines()
        i, j, _ = lines[2 + 3].split()
        lines[2 + 3] = f"{i} {j} 1_0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            sampling.load_observed(path, g)
        assert str(info.value) == f"{path}: non-numeric entry 3"

    def test_comment_before_the_size_line_accepted(self, small_instance, tmp_path):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        header, body = path.read_text().split("\n", 1)
        path.write_text(f"{header}\n% written by hand\n%\n{body}")
        assert np.array_equal(sampling.load_observed(path, g).values, obs.values)

    @pytest.mark.parametrize("size_line, message", [
        ("30 30", "bad dimensions line in {path}"),
        ("30 30 180 1", "bad dimensions line in {path}"),
        ("30 30 x", "bad dimensions line in {path}"),  # not a bare ValueError
        ("30 30 180.0", "bad dimensions line in {path}"),
        ("", "bad dimensions line in {path}"),
        ("31 30 180", "{path}: dimensions do not match the pattern"),
        ("30 29 180", "{path}: dimensions do not match the pattern"),
        ("30 30 179", "{path}: dimensions do not match the pattern"),
    ])
    def test_size_line_refused(self, small_instance, tmp_path, size_line, message):
        gt, g, obs = small_instance
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        lines = path.read_text().splitlines()
        assert lines[1] == f"30 30 {g.m}"
        lines[1] = size_line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            sampling.load_observed(path, g)
        assert str(info.value) == message.format(path=path)

    def test_dense_round_trip(self, tmp_path):
        M = np.random.default_rng(24).standard_normal((5, 3))
        path = tmp_path / "dense.mtx"
        sampling.save_dense_array(M, path)
        assert np.array_equal(mmread(path), M)

    # signed zeros, whole numbers, tiny, huge and subnormal values, and a
    # value that needs all 17 significant digits
    EDGE_VALUES = np.array([[-0.0, 1e-300, 5e-324], [1 / 3, 2.5, -7.0],
                            [0.0, 1e300, -1e-310]])

    @pytest.mark.parametrize("M", [
        EDGE_VALUES,
        np.eye(2),  # symmetric and small: scipy would keep only its lower triangle
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]),
        np.random.default_rng(3).standard_normal((3, 5)).T,  # F-ordered
        np.arange(1.0, 6.0).reshape(1, 5),
        np.arange(1.0, 5.0).reshape(4, 1),
    ], ids=["edge values", "eye", "symmetric", "transposed", "1x5", "4x1"])
    def test_dense_layout_and_exact_values(self, tmp_path, M):
        out = tmp_path / "dense.mtx"
        sampling.save_dense_array(M, out)
        text = out.read_text()
        lines = text.splitlines()
        n1, n2 = M.shape
        assert lines[:2] == ["%%MatrixMarket matrix array real general", f"{n1} {n2}"]
        assert not any(line.startswith("%") for line in lines[1:])
        assert len(lines) == 2 + n1 * n2 and text.endswith("\n")
        # read back by a reader that splits on whitespace and reshapes
        # column-major; scipy's mmread would read "-0" as +0.0
        back = np.array(text.split("\n", 2)[2].split(), dtype=float).reshape(n2, n1).T
        assert back.shape == M.shape
        assert np.array_equal(back.view(np.int64), M.view(np.int64))

    def test_dense_path_is_written_as_given(self, tmp_path):
        out = tmp_path / "result.txt"
        sampling.save_dense_array(np.eye(3), out)
        assert [p.name for p in tmp_path.iterdir()] == ["result.txt"]


class TestWriters:
    """Every MatrixMarket and edge-list file goes through scipy's compiled
    writer.  Edge lists, pattern exports and dense arrays keep the bytes of
    the per-line writers before it; observed values read back bit for bit."""

    @pytest.mark.parametrize("make", [
        lambda: graphs.random_biregular(12, 8, 4, seed=2),
        lambda: graphs.lps_graph(5, 13),
        # the cli benchmark instance's graph, before its relabelling
        lambda: graphs.random_biregular(1024, 1024, 40,
                                        seed=np.random.SeedSequence((0, 0, 1)).entropy),
        lambda: complete_graph(12, 12),  # square and symmetric: no lower triangle
    ], ids=["random-12-8", "lps-5-13", "cli", "complete-12"])
    def test_edge_and_pattern_files_match_the_reference(self, tmp_path, make):
        g = make()
        graphs.save_edges(g, tmp_path / "g.edges")
        graphs.save_matrixmarket_pattern(g, tmp_path / "g.mtx")
        body = edge_text_reference(g)
        assert body.count("\n") == g.m
        assert (tmp_path / "g.edges").read_text() == (
            f"%%biregular {g.n1} {g.n2} {g.d1} {g.d2}\n" + body)
        assert (tmp_path / "g.mtx").read_text() == (
            f"%%MatrixMarket matrix coordinate pattern general\n{g.n1} {g.n2} {g.m}\n" + body)
        assert graphs.load_edges(tmp_path / "g.edges") == g

    @pytest.mark.parametrize("values", [
        # TestMatrixMarket's edge values, a 17-digit value, the largest
        # float and a negative subnormal
        np.array([-0.0, 5e-324, 1e300, 1 / 3, 0.1257302210933933, -7.0, 2.5, 1e-300,
                  -1e-310, 0.0, -5e-324, 1.7976931348623157e308]),
        np.zeros(12),  # explicit zeros are written, not dropped
    ], ids=["edge-values", "zeros"])
    def test_observed_values_read_back_bit_for_bit(self, tmp_path, values):
        g = complete_graph(3, 4)
        obs = sampling.Observation(g, values)
        path = tmp_path / "obs.mtx"
        sampling.save_observed(obs, path)
        back = sampling.load_observed(path, g).values
        assert np.array_equal(back.view(np.int64), values.view(np.int64))
        # line for line the repr formatter's file: the same banner, size
        # line and i j, and values of the same bits
        lines = path.read_text().splitlines()
        ref = observed_text_reference(obs).splitlines()
        assert lines[:2] == ref[:2] and len(lines) == len(ref) == 2 + g.m
        for line, ref_line in zip(lines[2:], ref[2:]):
            (i, j, v), (ri, rj, rv) = line.split(), ref_line.split()
            assert (i, j) == (ri, rj)
            assert np.float64(v).view(np.int64) == np.float64(rv).view(np.int64)

    def test_dense_bytes_unchanged(self, tmp_path):
        # TestMatrixMarket's edge values, column-major
        path = tmp_path / "dense.mtx"
        sampling.save_dense_array(TestMatrixMarket.EDGE_VALUES, path)
        assert path.read_bytes() == (
            b"%%MatrixMarket matrix array real general\n3 3\n"
            b"-0\n3.333333333333333E-1\n0\n1E-300\n2.5\n1E300\n5E-324\n-7\n-1E-310\n")
