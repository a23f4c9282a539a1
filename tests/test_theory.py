import json
import math

import numpy as np
import pytest

from detmc import bench, graphs, theory
from support import complete_graph


@pytest.fixture(scope="module")
def certified_instance():
    gt = bench.synthetic_low_rank(128, 128, 3, 2.0, seed=1)
    g = graphs.random_biregular(128, 128, 24, seed=2)
    return gt, g


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


class TestGraphDeviation:
    def test_complete_graph_zero_deviation(self):
        rep = theory.check_graph_deviation(complete_graph(12, 12))
        assert rep.params["deviation"] <= 1e-8
        assert rep.passed

    def test_deviation_equals_sigma2_over_rate(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_graph_deviation(g, gt)
        cert = graphs.certify(g)
        assert rep.params["deviation"] == pytest.approx(
            cert.sigma2 / g.rate, rel=1e-8
        )
        assert rep.passed

    def test_disconnected_control_uses_measured_constant(self):
        edges = [(i, j) for i in range(2) for j in range(2)]
        edges += [(i + 2, j + 2) for i in range(2) for j in range(2)]
        g = graphs.BiregularGraph(4, 4, np.array(edges))
        rep = theory.check_graph_deviation(g)
        # bound built from the certificate's own (non-Ramanujan) constant
        assert rep.passed


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
    def test_json_round_trip(self, certified_instance):
        gt, g = certified_instance
        rep = theory.check_bilinear_bound(g, trials=5, seed=19)
        payload = json.loads(rep.to_json())
        assert payload["check_name"] == "bilinear_bound"
        assert payload["passed"] is True
        assert "params" in payload and "c0" in payload["params"]

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
