import json
import math
import tracemalloc

import numpy as np
import pytest

from detmc import bench, graphs, theory
from detmc.errors import ParameterError
from support import complete_graph


@pytest.fixture(scope="module")
def certified_instance():
    gt = bench.synthetic_low_rank(128, 128, 3, 2.0, seed=1)
    g = graphs.random_biregular(128, 128, 24, seed=2)
    return gt, g


def dense_tangent_margin(gt, g, trials, seed, dt):
    """The tangent check's worst margin with every Z = U A' + B V' formed
    as a dense n1 x n2 matrix, from the same draws."""
    U, V = gt.svd.U, gt.svd.V
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        Z = U @ rng.standard_normal((g.n2, gt.rank)).T \
            + rng.standard_normal((g.n1, gt.rank)) @ V.T
        full = float((Z * Z).sum())
        masked = float((Z[g.rows, g.cols] ** 2).sum()) / g.rate
        worst = min(worst, (1 + dt) * full - masked, masked - (1 - dt) * full)
    return worst


class TestTangentIsometry:
    def test_complete_graph_margin_is_slack_exactly(self):
        # with everything observed the masked energy equals the full energy,
        # so both margins equal delta_tilde * ||Z||^2
        gt = bench.synthetic_low_rank(20, 20, 2, 2.0, seed=3)
        rep = theory.check_tangent_isometry(gt, complete_graph(20, 20), trials=5, seed=4)
        assert rep.passed
        assert rep.worst_margin >= 0
        assert rep.delta_tilde is not None
        # worst margin equals delta_tilde times the smallest sampled energy
        assert rep.worst_margin <= rep.delta_tilde * rep.scale / (1 + rep.delta_tilde) + 1e-6

    def test_certified_graph(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_tangent_isometry(gt, g, trials=50, seed=5)
        assert rep.passed

    def test_deterministic_per_seed(self, certified_instance):
        gt, g = certified_instance
        a = theory.check_tangent_isometry(gt, g, trials=10, seed=6)
        b = theory.check_tangent_isometry(gt, g, trials=10, seed=6)
        assert a.worst_margin == b.worst_margin

    def test_matches_dense_reference(self, certified_instance):
        complete = (bench.synthetic_low_rank(20, 20, 2, 2.0, seed=3), complete_graph(20, 20))
        for gt, g in (complete, certified_instance):
            rep = theory.check_tangent_isometry(gt, g, trials=5, seed=4)
            assert rep.worst_margin == pytest.approx(
                dense_tangent_margin(gt, g, 5, 4, rep.delta_tilde), rel=1e-12)

    def test_memory_below_one_dense_matrix(self, lps_5_13):
        g = lps_5_13
        gt = bench.synthetic_low_rank(g.n1, g.n2, 3, 2.0, seed=5)
        tracemalloc.start()
        try:
            theory.check_tangent_isometry(gt, g, trials=5, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.n1 * g.n2 * 8  # one float64 n1 x n2 array: 9.1 MiB


class TestBilinearBound:
    def test_all_ones_vectors(self):
        # x = y = 1: the rescaled edge sum over a biregular graph is n1*n2
        g = graphs.random_biregular(16, 16, 4, seed=7)
        x = np.ones(16)
        y = np.ones(16)
        lhs = float(x @ (g.adjacency @ y)) / g.rate
        assert lhs == pytest.approx(16 * 16, rel=1e-12)  # first RHS term alone

    def test_single_coordinate_pair_on_k22(self):
        g = complete_graph(2, 2)
        cert = graphs.certify(g)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        lhs = float(x @ (g.adjacency @ y)) / g.rate
        rhs = 1.0 + 0.5 * cert.c0 * (math.sqrt(2) + math.sqrt(2)) * 1.0
        assert lhs == pytest.approx(1.0)
        assert lhs <= rhs + 1e-12

    def test_certified_graph(self, certified_instance):
        _, g = certified_instance
        rep = theory.check_bilinear_bound(g, trials=100, seed=8)
        assert rep.passed

    def test_slack_is_sigma2_over_rate(self, lps_5_13):
        # the slack 0.5 c0 (sqrt(n1) + sqrt(n2)) / sqrt(p) is sigma2/p on
        # every biregular graph (c0 is 2 sigma2 / (sqrt(d1) + sqrt(d2)) and
        # d1 = p n2, d2 = p n1), so with the expander mixing lemma
        # |x'(A/p - 11')y| <= (sigma2/p) |x| |y| the bound cannot fail
        rect = (graphs.random_biregular(48, 36, 12, seed=24),  # d2 = 16
                graphs.random_biregular(60, 40, 10, seed=3))  # d2 = 15
        for g in (lps_5_13, *rect):
            cert = graphs.certify(g)
            slack = 0.5 * cert.c0 * (math.sqrt(g.n1) + math.sqrt(g.n2)) / math.sqrt(g.rate)
            assert slack == pytest.approx(cert.sigma2 / g.rate, rel=1e-12)


class TestGraphDeviation:
    def test_complete_graph_zero_deviation(self):
        # A = 11' and p = 1: the graph's own deviation sigma2/p vanishes
        gt = bench.synthetic_low_rank(12, 12, 2, 2.0, seed=3)
        rep = theory.check_graph_deviation(gt, complete_graph(12, 12))
        assert rep.params["sigma2_over_p"] <= 1e-8
        assert rep.passed

    def test_complete_graph_with_truth_zero_deviation(self):
        # everything observed: the rescaled matrix IS the matrix, so the
        # margin is the whole bound
        gt = bench.synthetic_low_rank(12, 12, 2, 2.0, seed=3)
        rep = theory.check_graph_deviation(gt, complete_graph(12, 12))
        assert rep.params["masked_deviation"] == 0.0
        assert rep.instances_tested == 1
        assert rep.worst_margin == rep.scale
        assert rep.passed

    def test_masked_deviation_matches_dense_norm(self, certified_instance):
        # the oracle is the dense spectral norm of the rescaled masked
        # matrix less the matrix
        gt, g = certified_instance
        rep = theory.check_graph_deviation(gt, g)
        rescaled = np.zeros((g.n1, g.n2))
        rescaled[g.rows, g.cols] = gt.matrix[g.rows, g.cols] / g.rate
        assert rep.params["masked_deviation"] == pytest.approx(
            np.linalg.norm(rescaled - gt.matrix, 2), rel=1e-12)

    def test_margin_is_the_masked_bound_less_the_deviation(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_graph_deviation(gt, g)
        cert = graphs.certify(g)
        bound = cert.c0 * gt.coherence_mu * gt.rank / math.sqrt(min(g.d1, g.d2)) * gt.sigma1
        assert rep.scale == bound
        assert rep.worst_margin == bound - rep.params["masked_deviation"]
        assert rep.params["sigma2_over_p"] == cert.sigma2 / g.rate
        assert "deviation" not in rep.params

    def test_disconnected_control_uses_measured_constant(self):
        edges = [(i, j) for i in range(2) for j in range(2)]
        edges += [(i + 2, j + 2) for i in range(2) for j in range(2)]
        g = graphs.BiregularGraph(4, 4, np.array(edges))
        gt = bench.synthetic_low_rank(4, 4, 1, 2.0, seed=0)
        rep = theory.check_graph_deviation(gt, g)
        # bound built from the certificate's own (non-Ramanujan) constant
        cert = graphs.certify(g)
        assert not cert.is_ramanujan
        assert rep.params["c0"] == cert.c0
        assert rep.scale == pytest.approx(cert.c0 * gt.coherence_mu * gt.sigma1 / math.sqrt(2),
                                          rel=1e-12)
        assert rep.passed

    def test_memory_below_one_dense_matrix(self, lps_5_13):
        g = lps_5_13
        gt = bench.synthetic_low_rank(g.n1, g.n2, 3, 2.0, seed=5)
        tracemalloc.start()
        try:
            theory.check_graph_deviation(gt, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.n1 * g.n2 * 8  # one float64 n1 x n2 array: 9.1 MiB


class TestMaskedQuartic:
    def test_certified_graph(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_masked_quartic(gt, g, trials=100, seed=9)
        assert rep.passed

    def test_complete_graph_reduces_to_cauchy_schwarz(self):
        gt = bench.synthetic_low_rank(20, 20, 2, 2.0, seed=10)
        rep = theory.check_masked_quartic(gt, complete_graph(20, 20), trials=20, seed=11)
        assert rep.passed


class TestMaskedRowBound:
    def test_certified_graph(self):
        g = graphs.random_biregular(64, 64, 8, seed=12)
        rep = theory.check_masked_row_bound(g, trials=100, seed=13)
        assert rep.passed

    def test_single_spike_on_k22(self):
        g = complete_graph(2, 2)
        A = np.zeros((4, 1))
        A[0, 0] = 2.0
        B = np.ones((4, 1))
        lhs = (
            theory._masked_product_energy(A[:2], B[2:], g)
            + theory._masked_product_energy(B[:2], A[2:], g)
        )
        rhs = 2 * min(
            (A**2).sum() * (B * B).sum(axis=1).max(),
            (B**2).sum() * (A * A).sum(axis=1).max(),
        )
        assert lhs <= rhs + 1e-12


class TestGeometryChecks:
    def test_pgd_geometry_in_basin(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_pgd_geometry(gt, g, trials=20, seed=14)
        assert rep.worst_margin >= -1e-9 * rep.scale
        assert "required_rate" in rep.params

    def test_pgd_geometry_full_observation(self):
        gt = bench.synthetic_low_rank(64, 64, 2, 2.0, seed=15)
        rep = theory.check_pgd_geometry(gt, complete_graph(64, 64), trials=10, seed=16)
        assert rep.passed

    def test_scaled_geometry_in_basin(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_scaled_geometry(gt, g, trials=20, seed=17)
        assert rep.instances_tested > 0
        assert rep.worst_margin >= -1e-9 * rep.scale

    def test_reports_deterministic(self, certified_instance):
        gt, g = certified_instance
        a = theory.check_scaled_geometry(gt, g, trials=10, seed=18)
        b = theory.check_scaled_geometry(gt, g, trials=10, seed=18)
        assert a.worst_margin == b.worst_margin


class TestReports:
    def test_json_round_trip(self, certified_instance, tmp_path):
        gt, g = certified_instance
        rep = theory.check_bilinear_bound(g, trials=5, seed=19)
        path = tmp_path / "report.json"
        bench.write_json([rep.to_dict()], path)  # as theory run writes --out
        [payload] = json.loads(path.read_text())
        assert payload["check_name"] == "bilinear_bound"
        assert payload["passed"] is True
        assert "params" in payload and "c0" in payload["params"]
        # integer parameters stay integers
        assert type(payload["params"]["d1"]) is type(payload["params"]["d2"]) is int

    def test_run_all_covers_every_check(self, certified_instance):
        gt, g = certified_instance
        reports = theory.run_all(gt, g, trials=5, seed=20)
        names = {r.check_name for r in reports}
        assert names == {
            "tangent_isometry",
            "bilinear_bound",
            "graph_deviation",
            "masked_quartic",
            "masked_row_bound",
            "pgd_geometry",
            "scaled_geometry",
        }

    @pytest.mark.parametrize("trials", [0, -1])
    def test_run_all_refuses_trials_below_one(self, certified_instance, trials):
        # each used to report every check as passed at worst_margin=+inf
        gt, g = certified_instance
        with pytest.raises(ParameterError, match="trials must be at least 1"):
            theory.run_all(gt, g, trials=trials, seed=0)

    @pytest.mark.parametrize("name", ["tangent_isometry", "bilinear_bound",
                                      "masked_quartic", "masked_row_bound",
                                      "pgd_geometry", "scaled_geometry"])
    def test_each_check_refuses_trials_below_one(self, certified_instance, name):
        # five of these used to pass at worst_margin=+inf with no instance
        # tested, and scaled_geometry to fail on a nan margin
        gt, g = certified_instance
        instance = (g,) if name in ("bilinear_bound", "masked_row_bound") else (gt, g)
        for trials in (0, -1):
            with pytest.raises(ParameterError, match="trials must be at least 1"):
                getattr(theory, "check_" + name)(*instance, trials=trials, seed=0)

    def test_run_all_measures_the_certificate_once(self, monkeypatch):
        measured, certified = [], []
        top_two, certify = graphs._top_two, theory.certify

        def counting_top_two(g):
            measured.append(g)
            return top_two(g)

        def counting_certify(g):
            certified.append(g)
            return certify(g)

        monkeypatch.setattr(graphs, "_top_two", counting_top_two)
        monkeypatch.setattr(theory, "certify", counting_certify)
        gt = bench.synthetic_low_rank(30, 30, 2, 2.0, seed=21)
        g = graphs.random_biregular(30, 30, 6, seed=22)
        theory.run_all(gt, g, trials=3, seed=23)
        assert len(certified) == 6
        assert measured == [g]
