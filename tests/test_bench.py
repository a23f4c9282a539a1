import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from detmc import bench, graphs, ialm, pgd, scaled_pgd
from detmc.errors import ParameterError


class TestSyntheticLowRank:
    def test_geometric_spectrum(self):
        gt = bench.synthetic_low_rank(20, 20, 3, 10.0, seed=0)
        assert np.allclose(gt.svd.S, [10.0, np.sqrt(10.0), 1.0])
        assert gt.condition_number == pytest.approx(10.0)

    def test_rank_one(self):
        gt = bench.synthetic_low_rank(10, 10, 1, 1.0, seed=1)
        assert np.allclose(gt.svd.S, [1.0])

    def test_orthonormal_factors(self):
        gt = bench.synthetic_low_rank(30, 25, 4, 5.0, seed=2)
        assert np.allclose(gt.svd.U.T @ gt.svd.U, np.eye(4), atol=1e-12)
        assert np.allclose(gt.svd.V.T @ gt.svd.V, np.eye(4), atol=1e-12)

    def test_coherence_recorded_not_targeted(self):
        # frozen measured value for this seed at the benchmark size
        gt = bench.synthetic_low_rank(1092, 1092, 3, 1.0, seed=0)
        direct = max(
            (1092 / 3) * (gt.svd.U ** 2).sum(axis=1).max(),
            (1092 / 3) * (gt.svd.V ** 2).sum(axis=1).max(),
        )
        assert gt.coherence_mu == pytest.approx(direct, rel=1e-12)
        assert gt.coherence_mu == pytest.approx(5.4349715, abs=1e-5)

    def test_guards(self):
        with pytest.raises(ParameterError):
            bench.synthetic_low_rank(10, 10, 11, 1.0, seed=0)
        with pytest.raises(ParameterError):
            bench.synthetic_low_rank(10, 10, 2, 0.5, seed=0)
        for r in (0, -1):
            with pytest.raises(ParameterError, match="rank must be at least 1"):
                bench.synthetic_low_rank(10, 10, r, 1.0, seed=0)


class TestExperimentConfig:
    def test_sweep_must_increase(self):
        with pytest.raises(ParameterError):
            bench.ExperimentConfig(degrees=(10, 10))
        with pytest.raises(ParameterError):
            bench.ExperimentConfig(trials=0)
        with pytest.raises(ParameterError):
            bench.ExperimentConfig(tol=0.0)

    @pytest.mark.parametrize("sizes", [{"n1": 0}, {"n2": -5}, {"n1": -5, "n2": -5}])
    def test_sizes_below_one_rejected(self, sizes):
        # n = -5 used to run and write one skipped row with p = -1.6
        with pytest.raises(ParameterError, match="matrix sizes must be at least 1"):
            bench.ExperimentConfig(**sizes)


class TestPhaseTransition:
    def make_cfg(self, **kw):
        base = dict(
            n1=48, n2=48, r=2, degrees=(16, 48), trials=2, tol=1e-6,
            seed=1, eta=0.35, max_iter=400,
        )
        base.update(kw)
        return bench.ExperimentConfig(**base)

    def test_full_observation_point_succeeds(self):
        rows = bench.run_phase_transition(self.make_cfg(), solver="pgd")
        by_key = {(r["sampler"], round(r["p"], 6)): r for r in rows}
        assert by_key[("deterministic", 1.0)]["success_ratio"] == 1.0

    def test_deterministic_rows_reproducible(self):
        cfg = self.make_cfg()
        a = bench.run_phase_transition(cfg, solver="pgd")
        b = bench.run_phase_transition(cfg, solver="pgd")
        assert a == b

    @pytest.mark.parametrize("solver, eta", [("pgd", 0.35), ("scaled-pgd", None)])
    def test_pool_gives_the_serial_rows(self, solver, eta):
        # the serial reference: every trial run in this process, on graphs
        # built with the sweep's seeds, and aggregated here
        cfg = self.make_cfg(degrees=(16, 24), trials=3, max_iter=300, eta=eta)
        serial = []
        for d in cfg.degrees:
            graph = graphs.random_biregular(
                48, 48, d, seed=np.random.SeedSequence((cfg.seed, d)).entropy)
            for sampler in bench.SAMPLERS:
                recs = [bench.phase_trial(cfg, solver, graph, sampler, t)
                        for t in range(cfg.trials)]
                assert all(s == sampler for s, _ in recs)
                serial.append({
                    "sampler": sampler, "p": d / 48,
                    "success_ratio": sum(r.success for _, r in recs) / cfg.trials,
                    "mean_iters": float(np.mean([r.iterations for _, r in recs])),
                })
        assert bench.run_phase_transition(cfg, solver=solver) == serial

    def test_no_worker_outlives_the_sweep(self):
        bench.run_phase_transition(self.make_cfg(degrees=(16,), trials=2), solver="pgd")
        assert multiprocessing.active_children() == []
        # a negative step makes every trial raise in its worker
        with pytest.raises(ParameterError, match="eta must be positive"):
            bench.run_phase_transition(self.make_cfg(eta=-1.0), solver="pgd")
        assert multiprocessing.active_children() == []

    def test_bernoulli_rate_matches_expected_count(self):
        from detmc.graphs import bernoulli_mask

        d, n = 16, 48
        p = d / n
        masks = [bernoulli_mask(n, n, p, seed=k) for k in range(20)]
        mean_m = np.mean([m.m for m in masks])
        assert abs(mean_m - n * d) <= 0.01 * n * d + 3 * np.sqrt(n * n * p)

    def test_infeasible_degree_writes_warning_row(self):
        # 48 * 13 is not divisible by 36
        cfg = bench.ExperimentConfig(
            n1=48, n2=36, r=2, degrees=(13, 36), trials=1, tol=1e-6,
            seed=1, eta=0.35, max_iter=200,
        )
        with pytest.warns(UserWarning):
            rows = bench.run_phase_transition(cfg, solver="pgd")
        assert [row["sampler"] for row in rows] == ["skipped", *bench.SAMPLERS]
        # a sweep with no feasible degree runs no trial
        with pytest.warns(UserWarning):
            rows = bench.run_phase_transition(replace(cfg, degrees=(13,)), solver="pgd")
        assert [row["sampler"] for row in rows] == ["skipped"]


class TestSolve:
    def test_settings_routed_by_config_fields(self, monkeypatch):
        # each solver gets the settings that are fields of its config, None
        # meaning the default; the solver is looked up on its module per call
        seen = {}

        def record(*args, gt=None):
            seen[type(args[-1])] = args[-1]
            return None, None

        for module in (pgd, scaled_pgd, ialm):
            monkeypatch.setattr(module, "solve", record)
        for name in bench.SOLVERS:
            bench.solve(name, None, 2, max_iter=7, tol=1e-3, eta=0.12, mu=3.0)
        assert seen == {
            pgd.PgdConfig: pgd.PgdConfig(max_iter=7, tol=1e-3, eta=0.12, mu=3.0),
            scaled_pgd.ScaledPgdConfig: scaled_pgd.ScaledPgdConfig(
                max_iter=7, tol=1e-3, eta=0.12, mu=3.0),
            ialm.IalmConfig: ialm.IalmConfig(max_iter=7, tol=1e-3),
        }

    def test_unknown_solver(self):
        with pytest.raises(ParameterError):
            bench.solve("sgd", None, 2)


class TestSolverComparison:
    def test_rows_schema_and_determinism(self):
        cfg = bench.ExperimentConfig(
            n1=64, n2=64, r=2, r_list=(2,), degrees=(24,), trials=2,
            tol=1e-3, seed=3, max_iter=2000,
        )
        rows = bench.run_solver_comparison(cfg)
        assert [row["solver"] for row in rows] == ["ialm", "pgd", "scaled-pgd"]
        for row in rows:
            assert row["mean_rel_error"] < 1e-3
        again = bench.run_solver_comparison(cfg)
        for a, b in zip(rows, again):
            assert a["mean_iters"] == b["mean_iters"]
            assert a["mean_rel_error"] == b["mean_rel_error"]


class TestConvergenceComparison:
    def test_traces_and_rates(self):
        cfg = bench.ExperimentConfig(
            n1=64, n2=64, r=2, r_list=(2,), kappa_list=(1.0, 4.0),
            trials=1, tol=1e-4, seed=4, max_iter=3000,
        )
        traces, rates = bench.run_convergence_comparison(cfg, degree=24)
        assert {row["solver"] for row in rates} == {"pgd", "scaled-pgd"}
        assert len(rates) == 4
        for row in rates:
            assert row["final_rel_error"] < 1e-4
            assert row["iters_to_tol"] > 0
        kappas = {row["kappa"] for row in traces}
        assert kappas == {1.0, 4.0}


class TestCsvOutput:
    def test_byte_determinism_excluding_wall(self, tmp_path):
        cfg = bench.ExperimentConfig(
            n1=48, n2=48, r=2, degrees=(24,), trials=2, tol=1e-6,
            seed=5, eta=0.35, max_iter=300,
        )
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = bench.run_phase_transition(cfg, solver="pgd")
            path = tmp_path / name
            bench.write_csv(rows, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_write_csv_requires_rows(self, tmp_path):
        with pytest.raises(ParameterError):
            bench.write_csv([], tmp_path / "empty.csv")

    def test_header_and_decimal_format(self, tmp_path):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.25}]
        path = tmp_path / "t.csv"
        bench.write_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "a,b"
        assert text[1] == "1,0.5"
