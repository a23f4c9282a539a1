import dataclasses
import math

import numpy as np
import pytest

from detmc import graphs
from detmc.errors import FormatError, ParameterError
from support import complete_graph, constant_pair_residual, random_biregular_reference


def two_k22():
    """Two disjoint copies of K_{2,2}: a disconnected 2-regular graph."""
    edges = [(i, j) for i in range(2) for j in range(2)]
    edges += [(i + 2, j + 2) for i in range(2) for j in range(2)]
    return graphs.BiregularGraph(4, 4, np.array(edges))


class TestRandomBiregular:
    def test_forced_degrees(self):
        g = graphs.random_biregular(4, 2, 1, seed=0)
        assert (g.d1, g.d2) == (1, 2)
        assert np.all(np.bincount(g.cols, minlength=2) == 2)

    def test_square_degrees(self):
        g = graphs.random_biregular(4, 4, 2, seed=1)
        assert np.all(np.bincount(g.rows, minlength=4) == 2)
        assert np.all(np.bincount(g.cols, minlength=4) == 2)

    def test_deterministic_per_seed(self):
        a = graphs.random_biregular(64, 48, 6, seed=9)
        b = graphs.random_biregular(64, 48, 6, seed=9)
        assert np.array_equal(a.edges, b.edges)
        c = graphs.random_biregular(64, 48, 6, seed=10)
        assert not np.array_equal(a.edges, c.edges)

    def test_rectangular(self):
        g = graphs.random_biregular(60, 40, 10, seed=3)
        assert (g.d1, g.d2) == (10, 15)
        assert g.m == 600

    def test_dense_complement_path(self):
        g = graphs.random_biregular(16, 16, 13, seed=5)
        assert (g.d1, g.d2) == (13, 13)
        assert np.all(np.bincount(g.rows, minlength=16) == 13)
        assert np.all(np.bincount(g.cols, minlength=16) == 13)

    def test_complete_case(self):
        g = graphs.random_biregular(5, 5, 5, seed=0)
        assert g.m == 25

    def test_infeasible(self):
        with pytest.raises(ParameterError):
            graphs.random_biregular(4, 3, 2, seed=0)  # 8 not divisible by 3
        with pytest.raises(ParameterError):
            graphs.random_biregular(4, 4, 5, seed=0)  # d1 > n2

    def test_degree_zero_rejected(self):
        with pytest.raises(ParameterError):
            graphs.random_biregular(4, 4, 0, seed=0)

    def test_sigma1_is_sqrt_d1d2(self):
        for n1, n2, d1, seed in [(40, 40, 6, 0), (60, 40, 10, 1), (24, 36, 9, 2)]:
            g = graphs.random_biregular(n1, n2, d1, seed)
            cert = graphs.certify(g)
            expected = math.sqrt(g.d1 * g.d2)
            assert abs(cert.sigma1 - expected) <= 1e-6 * expected

    @pytest.mark.parametrize("n1, n2, d1, seed", [
        *[(n, n, d, seed) for n, d in ((4, 2), (16, 8), (40, 6), (64, 20))
          for seed in (0, 1, 7)],
        *[(48, 36, 12, seed) for seed in (0, 1, 2)],  # rectangular
        (60, 40, 10, 3), (24, 36, 9, 2),
        *[(n1, n2, d1, seed) for n1, n2, d1 in ((16, 16, 13), (48, 36, 30))
          for seed in (0, 5)],  # the complement branch
        (512, 512, 60, 7),  # the desk graph
        *[(1092, 1092, d, np.random.SeedSequence((1, d)).entropy) for d in (20, 22)],
    ])
    def test_matches_the_reference(self, n1, n2, d1, seed):
        # the duplicate repair draws from the generator in the old order, so
        # every graph is the old one edge for edge
        g = graphs.random_biregular(n1, n2, d1, seed)
        assert np.array_equal(g.edges, random_biregular_reference(n1, n2, d1, seed).edges)

    def test_desk_graph_regression(self, desk_graph):
        cert = graphs.certify(desk_graph)
        assert abs(cert.sigma1 - 60.0) <= 1e-6 * 60.0
        assert cert.sigma2 < 1.5 * 2 * math.sqrt(59)
        # frozen observed value for seed=7 (regression baseline)
        assert cert.sigma2 == pytest.approx(14.2615904, abs=1e-5)


class TestLps:
    def test_sizes_and_degree(self, lps_5_13):
        g = lps_5_13
        assert g.n1 == g.n2 == 1092
        assert g.d1 == g.d2 == 6
        assert g.m == 1092 * 6

    def test_ramanujan_certificate(self, lps_5_13_cert):
        cert = lps_5_13_cert
        assert abs(cert.sigma1 - 6.0) <= 1e-6 * 6.0
        assert cert.sigma2 <= 2 * math.sqrt(5) + 1e-6
        assert cert.is_ramanujan

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            graphs.lps_graph(13, 5)  # q <= 2 sqrt(p)
        with pytest.raises(ParameterError):
            graphs.lps_graph(5, 5)  # not distinct
        with pytest.raises(ParameterError):
            graphs.lps_graph(3, 13)  # p = 3 mod 4
        with pytest.raises(ParameterError):
            graphs.lps_graph(13, 17)  # (13|17) = +1, not bipartite
        with pytest.raises(ParameterError):
            graphs.lps_graph(5, 15)  # q composite

    def test_large_sparse_certification_path(self):
        # n = 2448: a larger LPS graph on the same Lanczos route
        g = graphs.lps_graph(5, 17)
        assert g.n1 == g.n2 == 2448
        cert = graphs.certify(g)
        assert abs(cert.sigma1 - 6.0) <= 1e-6 * 6.0
        assert cert.sigma2 <= 2 * math.sqrt(5) + 1e-6
        assert cert.is_ramanujan


class TestCertify:
    def test_complete_bipartite_3x3(self):
        cert = graphs.certify(complete_graph(3, 3))
        assert cert.sigma1 == pytest.approx(3.0, abs=1e-10)
        assert cert.sigma2 == pytest.approx(0.0, abs=1e-10)
        assert cert.is_ramanujan

    def test_complete_bipartite_2x2(self):
        cert = graphs.certify(complete_graph(2, 2))
        assert cert.sigma1 == pytest.approx(2.0, abs=1e-12)

    def test_disconnected_union_not_ramanujan(self):
        # two disjoint copies of K_{2,2}: sigma2 = sigma1 = 2
        g = two_k22()
        cert = graphs.certify(g)
        assert cert.sigma2 == pytest.approx(cert.sigma1)
        assert not cert.is_ramanujan


class TestConstantPair:
    """What holds on every biregular graph, because d1 n1 = d2 n2: the
    constant pair is exact, and the graph's deviation is sigma2/p."""

    @staticmethod
    def graphs_under_test(lps_5_13, tmp_path):
        path = tmp_path / "g.edges"
        graphs.save_edges(graphs.random_biregular(12, 8, 4, seed=2), path)
        return (lps_5_13, graphs.random_biregular(60, 40, 10, seed=1),  # d2 = 15
                complete_graph(2, 2), graphs.load_edges(path))

    def test_constant_pair_is_exact(self, lps_5_13, tmp_path):
        for g in self.graphs_under_test(lps_5_13, tmp_path):
            assert constant_pair_residual(g) <= 1e-12 * math.sqrt(g.d1 * g.d2), g

    def test_deviation_equals_sigma2_over_rate(self):
        # the oracle is the dense spectral norm of A/p - 11', on a square
        # and a rectangular graph
        for g in (graphs.random_biregular(128, 128, 24, seed=2),
                  graphs.random_biregular(48, 36, 12, seed=24)):  # d2 = 16
            dense = np.linalg.norm(g.adjacency.toarray() / g.rate - 1.0, 2)
            assert dense == pytest.approx(graphs.certify(g).sigma2 / g.rate, rel=1e-8)

    def test_deviation_meets_its_bound(self, lps_5_13, tmp_path):
        # sigma2/p <= c0 sqrt(n1 n2) / sqrt(d_min), with equality when
        # d1 = d2: c0 is measured from the same sigma2
        for g in self.graphs_under_test(lps_5_13, tmp_path):
            cert = graphs.certify(g)
            dev = cert.sigma2 / g.rate
            bound = cert.c0 * math.sqrt(g.n1 * g.n2) / math.sqrt(min(g.d1, g.d2))
            assert dev <= bound * (1 + 1e-12), g
            if g.d1 == g.d2:
                assert dev == pytest.approx(bound, rel=1e-12, abs=1e-12), g


class TestCertifyOracle:
    """The Lanczos sigma1/sigma2 against a dense SVD of the adjacency."""

    @staticmethod
    def assert_matches_dense(g, cert):
        s = np.linalg.svd(g.adjacency.toarray(), compute_uv=False)
        assert cert.sigma1 == pytest.approx(s[0], rel=1e-10)
        assert cert.sigma2 == pytest.approx(s[1], rel=1e-10)
        return s

    @pytest.mark.parametrize("n1, n2, d1, seed", [
        (8, 8, 3, 0), (16, 16, 5, 1), (40, 40, 6, 2), (64, 64, 60, 3),
        (2, 4, 2, 4), (9, 3, 2, 5), (12, 8, 4, 6), (60, 40, 10, 7), (24, 36, 9, 8),
    ])
    def test_random_biregular(self, n1, n2, d1, seed):
        g = graphs.random_biregular(n1, n2, d1, seed)
        self.assert_matches_dense(g, graphs.certify(g))

    def test_disconnected_union_repeats_sigma1(self):
        g = two_k22()
        s = self.assert_matches_dense(g, graphs.certify(g))
        assert s[1] == pytest.approx(s[0])

    def test_lps_high_multiplicity_sigma2(self, lps_5_13, lps_5_13_cert):
        # a repeated sigma2 is where Lanczos could under-report
        s = self.assert_matches_dense(lps_5_13, lps_5_13_cert)
        assert s[2] == pytest.approx(s[1], rel=1e-9)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 5), (5, 1), (2, 2), (4, 7)])
    def test_complete_graphs_take_the_dense_case(self, n1, n2):
        # the graph has rank one, so Lanczos cannot find a second value
        cert = graphs.certify(complete_graph(n1, n2))
        assert cert.sigma1 == pytest.approx(math.sqrt(n1 * n2), rel=1e-12)
        assert cert.sigma2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("build, calls", [
        (lambda: graphs.random_biregular(40, 40, 6, seed=2), 1),
        (lambda: complete_graph(4, 7), 0),
        (lambda: graphs.random_biregular(2, 4, 2, seed=4), 0),  # a two-vertex side
    ], ids=["random", "complete", "two-vertex-side"])
    def test_one_lanczos_run_per_certificate(self, monkeypatch, build, calls):
        # built here, not shared: a certificate is measured once per graph
        svds, seen = graphs.scipy.sparse.linalg.svds, []

        def counting(*args, **kwargs):
            seen.append(kwargs.get("k"))
            return svds(*args, **kwargs)

        monkeypatch.setattr(graphs.scipy.sparse.linalg, "svds", counting)
        g = build()
        self.assert_matches_dense(g, graphs.certify(g))
        assert seen == [2] * calls


class TestCertificateCache:
    def test_measured_once_and_shared(self, monkeypatch):
        measured = []
        top_two = graphs._top_two

        def counting(g):
            measured.append(g)
            return top_two(g)

        monkeypatch.setattr(graphs, "_top_two", counting)
        g = graphs.random_biregular(20, 20, 4, seed=0)
        first = graphs.certify(g)
        assert graphs.certify(g) is first is g.certificate
        assert measured == [g]

    def test_frozen(self):
        cert = graphs.certify(graphs.random_biregular(8, 8, 3, seed=0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.sigma2 = 0.0


class TestEdgeFiles:
    def test_round_trip(self, tmp_path):
        g = graphs.random_biregular(12, 8, 4, seed=2)
        path = tmp_path / "g.edges"
        graphs.save_edges(g, path)
        g2 = graphs.load_edges(path)
        assert g2 == g
        assert (g2.d1, g2.d2) == (g.d1, g.d2)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("%%biregular 2 2 2 2\n1 1\n1 1\n2 1\n2 2\n")
        with pytest.raises(FormatError):
            graphs.load_edges(path)

    def test_degree_violation_rejected(self, tmp_path):
        path = tmp_path / "deg.edges"
        # left vertex 1 has degree 1 instead of 2
        path.write_text("%%biregular 2 2 2 2\n1 1\n2 1\n2 2\n")
        with pytest.raises(FormatError):
            graphs.load_edges(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "hdr.edges"
        path.write_text("%%biregular 2 2 1 1\n1 1\n1 2\n2 1\n2 2\n")
        with pytest.raises(FormatError):
            graphs.load_edges(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("%%biregular 2 2 2 2\n1 1\n1 2\n2 one\n2 2\n")
        with pytest.raises(FormatError):
            graphs.load_edges(path)

    @pytest.mark.parametrize("bad, message", [
        ("2 one", "non-integer index"),
        ("2", "expected 'i j'"),
        ("1 2 3", "expected 'i j'"),
        ("13 1", "index out of range"),
        ("0 1", "index out of range"),
    ])
    def test_bad_line_in_the_middle_is_named(self, tmp_path, bad, message):
        g = graphs.random_biregular(12, 8, 4, seed=2)
        path = tmp_path / "g.edges"
        graphs.save_edges(g, path)
        lines = path.read_text().splitlines()
        lines.insert(5, "")  # blank lines are skipped, but counted
        lines[20] = bad  # line 21 of the file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            graphs.load_edges(path)
        assert str(info.value) == f"{path}:21: {message}"

    def test_blank_lines_are_skipped(self, tmp_path):
        g = graphs.random_biregular(12, 8, 4, seed=2)
        path = tmp_path / "g.edges"
        graphs.save_edges(g, path)
        lines = path.read_text().splitlines()
        lines.insert(5, "  ")
        path.write_text("\n".join(lines) + "\n\n")
        assert graphs.load_edges(path) == g

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.edges"
        path.write_text("1 1\n1 2\n")
        with pytest.raises(FormatError):
            graphs.load_edges(path)

    def test_matrixmarket_pattern_export(self, tmp_path):
        g = graphs.random_biregular(4, 4, 2, seed=0)
        path = tmp_path / "g.mtx"
        graphs.save_matrixmarket_pattern(g, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate pattern general"
        assert lines[1].split() == ["4", "4", "8"]
        assert len(lines) == 2 + g.m


class TestBernoulliMask:
    def test_rate_and_determinism(self):
        m1 = graphs.bernoulli_mask(50, 40, 0.2, seed=1)
        m2 = graphs.bernoulli_mask(50, 40, 0.2, seed=1)
        assert np.array_equal(m1.edges, m2.edges)
        assert m1.rate == 0.2
        # one draw should land within 5 standard deviations of the mean
        mean = 0.2 * 50 * 40
        sd = math.sqrt(50 * 40 * 0.2 * 0.8)
        assert abs(m1.m - mean) <= 5 * sd

    def test_invalid_rate(self):
        with pytest.raises(ParameterError):
            graphs.bernoulli_mask(5, 5, 0.0, seed=0)
