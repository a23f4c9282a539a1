import multiprocessing

import numpy as np
import pytest

from detmc import bench, graphs, ialm, pgd, sampling, scaled_pgd
from detmc.errors import DivergenceError, ParameterError


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

    def test_negative_seed_refused(self):
        # numpy raised a bare ValueError: expected non-negative integer
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            bench.synthetic_low_rank(8, 8, 2, 1.0, seed=-1)

    def test_sequence_and_tuple_seeds_go_through(self):
        for seed in ((1, 2), np.random.SeedSequence((1, 2))):
            gt = bench.synthetic_low_rank(8, 8, 2, 1.0, seed)
            U = np.linalg.qr(np.random.default_rng((1, 2)).standard_normal((8, 2)))[0]
            assert np.array_equal(gt.svd.U, U)

    @pytest.mark.parametrize("cond", [float("nan"), float("inf")])
    def test_non_finite_condition_number(self, cond):
        # a NaN passed the "< 1" check and built singular values [nan, 1]
        with pytest.raises(ParameterError, match="condition number"):
            bench.synthetic_low_rank(8, 8, 2, cond, seed=0)


class TestExperimentConfig:
    def test_tol_must_be_positive(self):
        with pytest.raises(ParameterError, match="tol must be positive"):
            bench.ExperimentConfig(tol=0.0)

    @pytest.mark.parametrize("sizes", [{"n1": 0}, {"n2": -5}, {"n1": -5, "n2": -5}])
    def test_sizes_below_one_rejected(self, sizes):
        # n = -5 used to run and write one skipped row with p = -1.6
        with pytest.raises(ParameterError, match="matrix sizes must be at least 1"):
            bench.ExperimentConfig(**sizes)

    def test_negative_seed_refused_before_any_graph(self, monkeypatch):
        # compare used to build nothing and raise numpy's bare ValueError
        def fail(*args, **kwargs):
            pytest.fail("a graph was built")

        for module in (graphs, bench):
            monkeypatch.setattr(module, "random_biregular", fail)
        with pytest.raises(ParameterError, match="seed must be non-negative, got -1"):
            bench.run_solver_comparison(bench.ExperimentConfig(n1=32, n2=32, seed=-1),
                                        (2,), (8,), 1)


class TestSweepRefusals:
    """Phase and compare refuse a trial count below 1 and degrees that do not
    strictly increase, and every sweep a setting one of its solvers refuses,
    before they build any graph."""

    @pytest.mark.parametrize("sweep", ["phase", "compare"])
    @pytest.mark.parametrize("degrees, trials, message", [
        ((10, 10), 1, "strictly increasing"),
        ((10, 12), 0, "trials must be at least 1"),
    ], ids=["repeated-degree", "no-trials"])
    def test_refused_before_any_graph(self, monkeypatch, sweep, degrees, trials, message):
        def fail(*args, **kwargs):
            pytest.fail("a graph was built")

        for module in (graphs, bench):  # bench calls its own binding
            monkeypatch.setattr(module, "random_biregular", fail)
        cfg = bench.ExperimentConfig(n1=48, n2=48)
        with pytest.raises(ParameterError, match=message):
            if sweep == "phase":
                bench.run_phase_transition(cfg, 2, degrees, trials)
            else:
                bench.run_solver_comparison(cfg, (2,), degrees, trials)

    @pytest.mark.parametrize("sweep, solver, settings, message", [
        ("phase", "pgd", {"max_iter": 0}, "max_iter must be at least 1"),
        ("phase", "ialm", {"tol": float("nan")}, "tol must be finite"),
        ("phase", "pgd", {"eval_every": 0}, "eval_every must be at least 1"),
        ("phase", "scaled-pgd", {"eta": 0.2}, "eta=0.2 exceeds the step cap"),
        ("phase", "sgd", {}, "unknown solver 'sgd'"),
        ("convergence", None, {"eta": 0.2}, "eta=0.2 exceeds the step cap"),
        ("convergence", None, {"tol": float("nan")}, "tol must be finite"),
        ("convergence", None, {"eta": -1.0}, "eta must be positive and finite"),
        ("compare", None, {"eta": 1.0}, "eta=1.0 exceeds the step cap"),
        ("compare", None, {"max_iter": 0}, "max_iter must be at least 1"),
    ])
    def test_setting_a_solver_refuses_is_refused_before_any_graph(
            self, monkeypatch, sweep, solver, settings, message):
        # compare must not run IALM and PGD before scaled PGD refuses eta=1.0
        def fail(*args, **kwargs):
            pytest.fail("a graph was built")

        for module in (graphs, bench):
            monkeypatch.setattr(module, "random_biregular", fail)
        cfg = bench.ExperimentConfig(n1=64, n2=64, **settings)
        with pytest.raises(ParameterError, match=message):
            if sweep == "phase":
                bench.run_phase_transition(cfg, 2, (8,), 1, solver=solver)
            elif sweep == "convergence":
                bench.run_convergence_comparison(cfg, (2,), (1.0,), degree=8)
            else:
                bench.run_solver_comparison(cfg, (2,), (8,), 1)


class TestPhaseTransition:
    R = 2

    def make_cfg(self, **kw):
        base = dict(n1=48, n2=48, tol=1e-6, seed=1, eta=0.35, max_iter=400)
        base.update(kw)
        return bench.ExperimentConfig(**base)

    def test_full_observation_point_succeeds(self):
        rows = bench.run_phase_transition(self.make_cfg(), self.R, (16, 48), 2, solver="pgd")
        by_key = {(r["sampler"], round(r["p"], 6)): r for r in rows}
        assert by_key[("deterministic", 1.0)]["success_ratio"] == 1.0

    def test_deterministic_rows_reproducible(self):
        cfg = self.make_cfg()
        a = bench.run_phase_transition(cfg, self.R, (16, 48), 2, solver="pgd")
        b = bench.run_phase_transition(cfg, self.R, (16, 48), 2, solver="pgd")
        assert a == b

    @pytest.mark.parametrize("solver, eta", [("pgd", 0.35), ("scaled-pgd", None)])
    def test_pool_gives_the_serial_rows(self, solver, eta):
        # the serial reference: every trial run in this process, on graphs
        # built with the sweep's seeds, and aggregated here
        cfg = self.make_cfg(max_iter=300, eta=eta)
        degrees, trials = (16, 24), 3
        serial = []
        for d in degrees:
            graph = graphs.random_biregular(
                48, 48, d, seed=np.random.SeedSequence((cfg.seed, d)).entropy)
            for sampler in bench.SAMPLERS:
                runs = [bench.phase_trial(cfg, self.R, solver, graph, sampler, t)
                        for t in range(trials)]
                assert all(s == sampler for s, _ in runs)
                traces = [trace for _, trace in runs]
                succeeded = [trace.meta["stop_reason"] != "diverged"
                             and trace.final_rel_error < cfg.tol for trace in traces]
                serial.append({
                    "sampler": sampler, "p": d / 48,
                    "success_ratio": sum(succeeded) / trials,
                    "mean_iters": float(np.mean([trace.iterations[-1] for trace in traces])),
                })
        assert bench.run_phase_transition(cfg, self.R, degrees, trials, solver=solver) == serial

    def test_criterion_02_blow_up_stops_on_stall(self):
        # criterion 02's trial 1 at d = 18: on the graph and on its mask the
        # run blows up onto a flat loss at error above 10, and it stops on
        # "stall" at the first evaluated iteration once the loss has settled
        cfg = bench.ExperimentConfig(n1=1092, n2=1092, eta=0.35, max_iter=1200,
                                     eval_every=5, seed=1, tol=1e-6)
        graph = graphs.random_biregular(
            1092, 1092, 18, seed=np.random.SeedSequence((cfg.seed, 18)).entropy)
        for sampler, stop in (("deterministic", 35), ("bernoulli", 40)):
            _, trace = bench.phase_trial(cfg, 3, "pgd", graph, sampler, 1)
            assert (trace.meta["stop_reason"], trace.iterations[-1]) == ("stall", stop)
            assert trace.final_rel_error > 10

    def test_no_worker_outlives_the_sweep(self):
        bench.run_phase_transition(self.make_cfg(), self.R, (16,), 2, solver="pgd")
        assert multiprocessing.active_children() == []
        # a negative step makes every trial raise in its worker
        with pytest.raises(ParameterError, match="eta must be positive"):
            bench.run_phase_transition(self.make_cfg(eta=-1.0), self.R, (16, 48), 2,
                                       solver="pgd")
        assert multiprocessing.active_children() == []

    def test_a_diverged_trial_is_its_trace_and_no_success(self, monkeypatch):
        # the trace a DivergenceError carries comes back; below tol or not,
        # a run marked "diverged" is no success
        trace = pgd.IterationTrace(meta={"stop_reason": "diverged"})
        trace.append(1.0, 0.0)

        def diverge(*args, **kwargs):
            raise DivergenceError("loss is no longer finite", trace)

        monkeypatch.setattr(bench, "solve", diverge)
        graph = graphs.random_biregular(48, 48, 16, seed=0)
        cfg = self.make_cfg()
        assert bench.phase_trial(cfg, self.R, "pgd", graph, "bernoulli", 0) == ("bernoulli", trace)
        assert not bench._succeeded(trace, cfg.tol)
        trace.meta["stop_reason"] = "tol"
        assert bench._succeeded(trace, cfg.tol)

    def test_bernoulli_rate_matches_expected_count(self):
        from detmc.graphs import bernoulli_mask

        d, n = 16, 48
        p = d / n
        masks = [bernoulli_mask(n, n, p, seed=k) for k in range(20)]
        mean_m = np.mean([m.m for m in masks])
        assert abs(mean_m - n * d) <= 0.01 * n * d + 3 * np.sqrt(n * n * p)

    def test_infeasible_degree_writes_warning_row(self):
        # 48 * 13 is not divisible by 36
        cfg = bench.ExperimentConfig(n1=48, n2=36, tol=1e-6, seed=1, eta=0.35, max_iter=200)
        with pytest.warns(UserWarning):
            rows = bench.run_phase_transition(cfg, 2, (13, 36), 1, solver="pgd")
        assert [row["sampler"] for row in rows] == ["skipped", *bench.SAMPLERS]
        # a sweep with no feasible degree runs no trial
        with pytest.warns(UserWarning):
            rows = bench.run_phase_transition(cfg, 2, (13,), 1, solver="pgd")
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

    @pytest.mark.parametrize("solver", list(bench.SOLVERS))
    def test_setting_no_solver_reads_is_refused(self, solver):
        # a misspelled max_iter used to be dropped, and the run went on to
        # the default 2000 iterations
        g = graphs.random_biregular(40, 40, 8, seed=1)
        obs = sampling.observe(bench.synthetic_low_rank(40, 40, 2, 1.0, seed=2).matrix, g)
        with pytest.raises(ParameterError, match="^no solver reads the setting max_iters$"):
            bench.solve(solver, obs, 2, max_iters=5)
        with pytest.raises(ParameterError, match="^no solver reads the setting n1, seed$"):
            bench.solve(solver, obs, 2, seed=0, n1=40)

    @pytest.mark.parametrize("solver", list(bench.SOLVERS))
    def test_all_zero_observation_refused(self, solver):
        # the factored solvers used to name their clip bound or budget
        g = graphs.random_biregular(24, 24, 6, seed=1)
        obs = sampling.Observation(g, np.zeros(g.m))
        with pytest.raises(ParameterError, match="^observation is identically zero$"):
            bench.solve(solver, obs, 2)


class TestSolverComparison:
    def test_rows_schema_and_determinism(self):
        cfg = bench.ExperimentConfig(n1=64, n2=64, tol=1e-3, seed=3, max_iter=2000)
        rows = bench.run_solver_comparison(cfg, (2,), (24,), 2)
        assert [row["solver"] for row in rows] == ["ialm", "pgd", "scaled-pgd"]
        for row in rows:
            assert row["mean_rel_error"] < 1e-3
        again = bench.run_solver_comparison(cfg, (2,), (24,), 2)
        for a, b in zip(rows, again):
            assert a["mean_iters"] == b["mean_iters"]
            assert a["mean_rel_error"] == b["mean_rel_error"]

    def test_rows_are_the_means_of_the_solvers_own_runs(self):
        # compare's seed scheme, restated: the degree-d graph from
        # SeedSequence((seed, 1000 + d)), trial t's kappa-1 ground truth from
        # SeedSequence((seed, d, r, t)); each instance re-run through solve
        n, d, r, trials, seed, tol, max_iter = 64, 24, 2, 2, 3, 1e-3, 2000
        cfg = bench.ExperimentConfig(n1=n, n2=n, tol=tol, seed=seed, max_iter=max_iter)
        rows = bench.run_solver_comparison(cfg, (r,), (d,), trials)
        graph = graphs.random_biregular(
            n, n, d, seed=np.random.SeedSequence((seed, 1000 + d)).entropy)
        truths = [bench.synthetic_low_rank(n, n, r, 1.0, np.random.SeedSequence((seed, d, r, t)))
                  for t in range(trials)]
        for row in rows:
            traces = [bench.solve(row["solver"], sampling.observe(gt.matrix, graph), r, gt,
                                  max_iter=max_iter, tol=tol)[1] for gt in truths]
            assert row["mean_iters"] == np.mean([trace.iterations[-1] for trace in traces])
            assert row["mean_rel_error"] == np.mean([trace.final_rel_error for trace in traces])


class TestConvergenceComparison:
    def test_traces_and_rates(self):
        cfg = bench.ExperimentConfig(n1=64, n2=64, tol=1e-4, seed=4, max_iter=3000)
        traces, rates = bench.run_convergence_comparison(cfg, (2,), (1.0, 4.0), degree=24)
        assert {row["solver"] for row in rates} == {"pgd", "scaled-pgd"}
        assert len(rates) == 4
        for row in rates:
            assert row["final_rel_error"] < 1e-4
            assert row["iters_to_tol"] > 0
        kappas = {row["kappa"] for row in traces}
        assert kappas == {1.0, 4.0}


class TestCsvOutput:
    def test_byte_determinism_excluding_wall(self, tmp_path):
        cfg = bench.ExperimentConfig(n1=48, n2=48, tol=1e-6, seed=5, eta=0.35, max_iter=300)
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = bench.run_phase_transition(cfg, 2, (24,), 2, solver="pgd")
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
