import csv
import json
import keyword
import re

import numpy as np
import pytest
from scipy.io import mmread

from detmc import bench, cli, graphs, pgd, sampling, scaled_pgd, theory
from detmc.errors import GenerationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, argv):
    """argparse refuses ``argv``: exit 2 with a usage message, no traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err, err


def write_instance(tmp_path, n=40, d=12):
    gt = bench.synthetic_low_rank(n, n, 2, 2.0, seed=1)
    g = graphs.random_biregular(n, n, d, seed=2)
    obs = sampling.observe(gt.matrix, g)
    obs_path, graph_path = tmp_path / "obs.mtx", tmp_path / "g.edges"
    sampling.save_observed(obs, obs_path)
    graphs.save_edges(g, graph_path)
    return obs_path, graph_path


class Recorded(Exception):
    """Raised by a patched solve once it has recorded its config."""


def record_configs(monkeypatch, *modules):
    """Patch each module's ``solve`` to record its config and stop the run."""
    seen = []

    def record(*args, gt=None):
        seen.append(args[-1])
        raise Recorded

    for module in modules:
        monkeypatch.setattr(module, "solve", record)
    return seen


class TestGraphCommands:
    def test_gen_verify_export_round_trip(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        code, out = run_cli(
            capsys, "graph", "gen", "--kind", "random",
            "--n1", "24", "--n2", "24", "--d1", "6",
            "--seed", "3", "--out", str(edges),
        )
        assert code == 0
        info = json.loads(out)
        assert info["d1"] == 6 and info["is_ramanujan"] in (True, False)

        code, out = run_cli(capsys, "graph", "verify", "--graph", str(edges))
        cert = json.loads(out)
        assert cert["sigma1"] == pytest.approx(6.0, rel=1e-6)
        assert code in (0, 1)

        mtx = tmp_path / "g.mtx"
        code, out = run_cli(capsys, "graph", "export", "--graph", str(edges),
                            "--out", str(mtx))
        assert code == 0
        assert mtx.read_text().startswith("%%MatrixMarket matrix coordinate pattern")

    def test_gen_lps(self, tmp_path, capsys):
        edges = tmp_path / "lps.edges"
        code, out = run_cli(capsys, "graph", "gen", "--kind", "lps",
                            "--p", "5", "--q", "13", "--out", str(edges))
        assert code == 0
        info = json.loads(out)
        assert info["n1"] == 1092 and info["is_ramanujan"] is True

    def test_gen_random_seed_defaults_to_0(self, tmp_path, capsys):
        # --seed defaults to None so that --kind lps can refuse it
        paths = tmp_path / "default.edges", tmp_path / "seed0.edges"
        for path, seed in zip(paths, ((), ("--seed", "0"))):
            code, _ = run_cli(capsys, "graph", "gen", "--kind", "random", "--n1", "12",
                              "--n2", "12", "--d1", "4", *seed, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gen_guard(self, capsys):
        code, _ = run_cli(capsys, "graph", "gen", "--kind", "lps", "--p", "13", "--q", "5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--kind", "lps", "--p", "5", "--q", "13", "--n1", "3"),
        ("--kind", "lps", "--p", "5", "--q", "13", "--d1", "3"),
        ("--kind", "random", "--n1", "8", "--n2", "8", "--d1", "2", "--p", "5"),
        ("--kind", "random", "--n1", "8", "--n2", "8", "--d1", "2", "--q", "13"),
        ("--kind", "random", "--n1", "8", "--n2", "8"),
        ("--kind", "lps", "--p", "5", "--q", "13", "--seed", "9"),
    ], ids=["lps n1", "lps d1", "random p", "random q", "random without d1", "lps seed"])
    def test_gen_refuses_the_other_kinds_flags(self, tmp_path, capsys, argv):
        # the flags of the other kind used to be read by nothing, with exit 0
        out = tmp_path / "g.edges"
        code = cli.main(["graph", "gen", *argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: --kind "), err
        assert not out.exists()


class TestComplete:
    # what ends each blind run below: the loss floor for the factored
    # solvers, feasibility below tol for the nuclear-norm baseline
    STOP_REASON = {"pgd": "loss-floor", "scaled-pgd": "loss-floor", "ialm": "tol"}

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd", "ialm"])
    def test_end_to_end(self, tmp_path, capsys, solver):
        gt = bench.synthetic_low_rank(40, 40, 2, 2.0, seed=1)
        # dense enough that the nuclear-norm minimizer is also exact
        g = graphs.random_biregular(40, 40, 24, seed=2)
        obs = sampling.observe(gt.matrix, g)
        obs_path = tmp_path / "obs.mtx"
        graph_path = tmp_path / "g.edges"
        out_path = tmp_path / "completed.mtx"
        sampling.save_observed(obs, obs_path)
        graphs.save_edges(g, graph_path)

        # IALM has no rank or incoherence knob, and only IALM reads --tol
        # without a truth
        flags = ("--tol", "1e-8") if solver == "ialm" else ("--rank", "2", "--mu", "8.0")
        code, out = run_cli(
            capsys, "complete", "--observed", str(obs_path),
            "--graph", str(graph_path), *flags,
            "--solver", solver, "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["observed_residual"] < 1e-3
        assert summary["stop_reason"] == self.STOP_REASON[solver]
        M = mmread(out_path)
        rel = np.linalg.norm(M - gt.matrix) / np.linalg.norm(gt.matrix)
        assert rel < 1e-3

    def test_out_is_written_as_given(self, tmp_path, capsys):
        obs_path, graph_path = write_instance(tmp_path)
        out_path = tmp_path / "result.txt"
        code, out = run_cli(capsys, "complete", "--observed", str(obs_path),
                            "--graph", str(graph_path), "--rank", "2",
                            "--out", str(out_path))
        assert code == 0 and json.loads(out)["path"] == str(out_path)
        assert out_path.exists() and not (tmp_path / "result.txt.mtx").exists()


class TestBenchCommands:
    def test_phase_writes_csv(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "bench", "phase", "--n", "48", "--r", "2",
            "--degrees", "16,24", "--trials", "2", "--max-iter", "400",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "phase.csv")))
        assert {r["sampler"] for r in rows} == {"deterministic", "bernoulli"}
        assert len(rows) == 4

    def test_phase_tol_is_stop_and_success_threshold(self, tmp_path, capsys):
        # --tol used to be overwritten by a fixed 1e-6 success threshold
        argv = ["bench", "phase", "--n", "48", "--r", "2", "--degrees", "16,24",
                "--trials", "2", "--max-iter", "400", "--seed", "1"]
        tables = {}
        for tol in ("1e-6", "0.5"):
            out = tmp_path / tol
            code, _ = run_cli(capsys, *argv, "--tol", tol, "--out", str(out))
            assert code == 0
            tables[tol] = list(csv.DictReader(open(out / "phase.csv")))
        code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "default"))
        assert list(csv.DictReader(open(tmp_path / "default" / "phase.csv"))) == tables["1e-6"]
        assert tables["0.5"] != tables["1e-6"]
        for loose, tight in zip(tables["0.5"], tables["1e-6"]):
            assert float(loose["mean_iters"]) < float(tight["mean_iters"])
            assert float(loose["success_ratio"]) >= float(tight["success_ratio"])

    def test_compare_writes_csv_and_json(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "bench", "compare", "--n", "64", "--ranks", "2",
            "--degrees", "24", "--trials", "1", "--tol", "1e-3",
            "--max-iter", "2000", "--seed", "2", "--out", str(tmp_path),
        )
        assert code == 0
        rows = list(csv.DictReader(open(tmp_path / "compare.csv")))
        assert {r["solver"] for r in rows} == {"ialm", "pgd", "scaled-pgd"}
        payload = json.load(open(tmp_path / "compare.json"))
        assert len(payload) == 3

    def test_convergence_writes_traces_and_rates(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "bench", "convergence", "--n", "64", "--ranks", "2",
            "--kappas", "1,2", "--degree", "24", "--tol", "1e-4",
            "--max-iter", "2000", "--seed", "3", "--out", str(tmp_path),
        )
        assert code == 0
        rates = list(csv.DictReader(open(tmp_path / "convergence_rates.csv")))
        assert len(rates) == 4  # 2 solvers x 2 kappas
        traces = list(csv.DictReader(open(tmp_path / "convergence.csv")))
        assert set(traces[0]) == {"solver", "kappa", "r", "iter", "rel_error"}


class TestTheoryCommand:
    def test_run_all_checks(self, tmp_path, capsys):
        out_file = tmp_path / "theory.json"
        code, out = run_cli(
            capsys, "theory", "run", "--n", "64", "--r", "2", "--d", "16",
            "--trials", "10", "--seed", "4", "--out", str(out_file),
        )
        assert code == 0
        assert "tangent_isometry" in out
        payload = json.load(open(out_file))
        assert len(payload) == 7

    @pytest.mark.parametrize("flags", [("--n", "64"), ("--d", "8"), ("--n", "64", "--d", "8")])
    def test_lps_refuses_the_random_graphs_flags(self, tmp_path, capsys, flags):
        # --n and --d size the random graph; with --lps they used to be
        # ignored with exit 0
        out_file = tmp_path / "theory.json"
        code = cli.main(["theory", "run", "--lps", "5,13", *flags, "--trials", "1",
                         "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: --lps does not read --"), err
        assert not out_file.exists()

    def test_random_graph_defaults(self, monkeypatch):
        seen = []

        def record(*args, **kwargs):
            seen.append((args, kwargs))
            raise Recorded

        monkeypatch.setattr(graphs, "random_biregular", record)
        with pytest.raises(Recorded):
            cli.main(["theory", "run"])
        assert seen == [((512, 512, 60), {"seed": 0})]


class TestConfigFile:
    def test_config_defaults_and_cli_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\nd1=4\nn1=12\nn2=12\n# comment\n")
        edges = tmp_path / "g.edges"
        code, out = run_cli(
            capsys, "graph", "gen", "--kind", "random",
            "--config", str(cfg), "--out", str(edges),
        )
        assert code == 0
        g = graphs.load_edges(edges)
        assert (g.n1, g.d1) == (12, 4)
        # explicit flag beats the config value
        code, out = run_cli(
            capsys, "graph", "gen", "--kind", "random",
            "--config", str(cfg), "--d1", "6", "--out", str(edges),
        )
        assert code == 0
        assert graphs.load_edges(edges).d1 == 6

    def test_abbreviated_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d1=4\nn1=12\nn2=12\n")
        edges = tmp_path / "g.edges"
        code, _ = run_cli(capsys, "graph", "gen", "--kind", "random",
                          "--config", str(cfg), "--d", "6", "--out", str(edges))
        assert code == 0
        assert graphs.load_edges(edges).d1 == 6

    def test_keys_are_flag_names(self, tmp_path, capsys, monkeypatch):
        # lambda for --lambda, max_iter or max-iter for --max-iter
        obs_path, graph_path = write_instance(tmp_path)
        seen = record_configs(monkeypatch, pgd)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=0.25\nmax_iter=7\n")
        with pytest.raises(Recorded):
            cli.main(["complete", "--observed", str(obs_path), "--graph", str(graph_path),
                      "--rank", "2", "--config", str(cfg)])
        assert seen == [pgd.PgdConfig(lam=0.25, max_iter=7)]
        cfg.write_text("lam=0.25\n")
        code = cli.main(["complete", "--observed", str(obs_path), "--graph",
                         str(graph_path), "--rank", "2", "--config", str(cfg)])
        assert code == 2 and "unknown config keys: lam" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, line", [
        (("graph", "gen", "--kind", "random", "--n1", "8", "--n2", "8"), "d1=abc"),
        (("theory", "run"), "trials=2.5"),
        (("bench", "phase"), "solver=sgd"),
    ], ids=["d1=abc", "trials=2.5", "solver=sgd"])
    def test_value_its_flag_refuses_exits_2(self, tmp_path, capsys, argv, line):
        # each used to end in a TypeError traceback or run on the raw string
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert_usage_error(capsys, [*argv, "--config", str(cfg)])

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _ = run_cli(capsys, "graph", "gen", "--kind", "random",
                          "--n1", "8", "--n2", "8", "--d1", "2",
                          "--config", str(cfg))
        assert code == 2

    # command, its argv without the required flag, the flag's key and a value
    REQUIRED = {
        "complete --observed": (("complete", "--graph", "g.edges", "--rank", "2"),
                                "observed", "o.mtx"),
        "complete --graph": (("complete", "--observed", "o.mtx", "--rank", "2"),
                             "graph", "g.edges"),
        "graph verify --graph": (("graph", "verify"), "graph", "g.edges"),
        "graph export --graph": (("graph", "export"), "graph", "g.edges"),
        "graph gen --kind": (("graph", "gen", "--p", "5", "--q", "13"), "kind", "lps"),
    }

    @pytest.mark.parametrize("case", REQUIRED)
    def test_required_flag_from_the_file(self, tmp_path, capsys, case):
        # each used to exit 2 with the flag given only in the file
        argv, key, value = self.REQUIRED[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        ns = cli._apply_config(cli.build_parser(), [*argv, "--config", str(cfg)])
        assert getattr(ns, key) == value
        with pytest.raises(SystemExit) as exc:  # in neither place: argparse's message
            cli.main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: --{key}\n")

    def test_rank_from_the_file(self, tmp_path, capsys):
        # this used to exit 2 with "the following arguments are required: --rank"
        obs_path, graph_path = write_instance(tmp_path)
        cfg, out = tmp_path / "run.cfg", tmp_path / "completed.mtx"
        cfg.write_text("rank=2\n")
        code, _ = run_cli(capsys, "complete", "--observed", str(obs_path), "--graph",
                          str(graph_path), "--config", str(cfg), "--out", str(out))
        assert code == 0 and out.exists()


# flags no command takes any more: ``--threads`` went with the thread pool
REMOVED_FLAGS = ("threads",)


class TestFlags:
    """Each subcommand takes only the flags it reads: a shared flag it would
    ignore exits 2, and so does its key in a config file."""

    # command: (its required flags, the shared flags it does not read)
    IGNORED = {
        "graph gen": (("--kind", "random"), ("tol", "eta", "lam", "solver")),
        "graph verify": (("--graph", "g.edges"), ("seed", "tol", "eta", "lam", "solver")),
        "graph export": (("--graph", "g.edges"), ("seed", "tol", "eta", "lam", "solver")),
        "complete": (("--observed", "o.mtx", "--graph", "g.edges", "--rank", "2"),
                     ("seed",)),
        "bench phase": ((), ()),
        "bench convergence": ((), ("solver",)),
        "bench compare": ((), ("solver",)),
        "theory run": ((), ("tol", "eta", "lam", "solver")),
    }
    @pytest.mark.parametrize("command, dest", [
        pytest.param(command, dest, id=f"{command} {dest}")
        for command, (_, dests) in IGNORED.items() for dest in (*dests, *REMOVED_FLAGS)])
    def test_dropped_flag_exits_2(self, tmp_path, capsys, command, dest):
        argv = [*command.split(), *self.IGNORED[command][0]]
        value = {"solver": "pgd", "threads": "2"}.get(dest, "1")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, cli._flag_of(dest), value])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{cli._flag_of(dest)[2:]}={value}\n")
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestSolverSettings:
    """``complete`` and ``bench phase`` run one solver and refuse a tuning flag
    it does not read; each of these used to exit 0 with the flag ignored."""

    @pytest.mark.parametrize("solver, flags", [
        ("ialm", ("--eta", "0.3")),
        ("ialm", ("--lambda", "7")),
        ("ialm", ("--mu", "5")),
        ("ialm", ("--eta", "0.3", "--lambda", "7", "--mu", "5")),
        ("scaled-pgd", ("--lambda", "7")),
        ("pgd", ("--tol", "1e-8")),
        ("scaled-pgd", ("--tol", "1e-8")),
    ])
    def test_complete(self, tmp_path, capsys, solver, flags):
        obs_path, graph_path = write_instance(tmp_path)
        out = tmp_path / "completed.mtx"
        code = cli.main(["complete", "--observed", str(obs_path), "--graph",
                         str(graph_path), "--rank", "2", "--solver", solver, *flags,
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: --solver {solver} does not read")
        assert not out.exists()

    @pytest.mark.parametrize("solver, flags", [
        ("ialm", ("--eta", "0.3")),
        ("scaled-pgd", ("--lambda", "7")),
    ])
    def test_bench_phase(self, tmp_path, capsys, solver, flags):
        code = cli.main(["bench", "phase", "--n", "48", "--r", "2", "--degrees", "16",
                         "--trials", "1", "--solver", solver, *flags,
                         "--out", str(tmp_path)])
        assert code == 2 and "does not read" in capsys.readouterr().err
        assert not (tmp_path / "phase.csv").exists()

    def test_config_value_is_refused_too(self, tmp_path, capsys, monkeypatch):
        obs_path, graph_path = write_instance(tmp_path)
        monkeypatch.setattr(graphs, "load_edges", lambda *a: pytest.fail("graph loaded"))
        cfg = tmp_path / "run.cfg"
        for solver, key in (("ialm", "eta"), ("pgd", "tol"), ("scaled-pgd", "tol")):
            cfg.write_text(f"{key}=0.3\n")
            code = cli.main(["complete", "--observed", str(obs_path), "--graph",
                             str(graph_path), "--rank", "2", "--solver", solver,
                             "--config", str(cfg)])
            err = capsys.readouterr().err
            assert code == 2 and err == f"error: --solver {solver} does not read --{key}\n"


@pytest.mark.parametrize("command, key, value", [
    ("theory run", "lps", "5"),
    ("theory run", "lps", "5,13,17"),
    ("theory run", "lps", ""),
    ("bench compare", "ranks", ""),
    ("bench compare", "ranks", "2,x"),
    ("bench phase", "degrees", ","),
    ("bench convergence", "kappas", ""),
])
def test_malformed_list_flag_exits_2(tmp_path, capsys, command, key, value):
    # these used to end in TypeError or IndexError tracebacks, or (--lps "")
    # to build the random graph; a config-file value gets the same check
    assert_usage_error(capsys, [*command.split(), f"--{key}", value])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert_usage_error(capsys, [*command.split(), "--config", str(cfg)])


def test_benchmark_cli_argv(tmp_path, monkeypatch):
    """The argv the benchmark's ``cli`` workload and its warm-up send resolve
    to the settings they always had."""
    obs_path, graph_path = map(str, write_instance(tmp_path))
    out = str(tmp_path / "out")

    def resolve(*argv):
        return cli._apply_config(cli.build_parser(), list(argv))

    ns = resolve("graph", "verify", "--graph", graph_path)
    assert (ns.run, ns.graph, ns.out) == (cli.cmd_graph_verify, graph_path, None)

    seen = record_configs(monkeypatch, scaled_pgd)
    for rank, max_iter in ((5, 2000), (2, 20)):
        ns = resolve("complete", "--observed", obs_path, "--graph", graph_path,
                     "--rank", str(rank), "--solver", "scaled-pgd", "--mu", "8",
                     "--max-iter", str(max_iter), "--out", out)
        assert (ns.run, ns.rank, ns.out) == (cli.cmd_complete, rank, out)
        with pytest.raises(Recorded):
            ns.run(ns)
    assert seen == [scaled_pgd.ScaledPgdConfig(mu=8.0, max_iter=2000, tol=1e-6),
                    scaled_pgd.ScaledPgdConfig(mu=8.0, max_iter=20, tol=1e-6)]
    assert seen[0].eta == scaled_pgd.ScaledPgdConfig().eta

    ns = resolve("theory", "run", "--lps", "5,13", "--r", "3", "--trials", "20",
                 "--seed", "7", "--out", out)
    assert (ns.run, ns.lps, ns.r, ns.trials, ns.seed, ns.out, ns.kappa) == (
        cli.cmd_theory_run, (5, 13), 3, 20, 7, out, 2.0)
    ns = resolve("theory", "run", "--n", "64", "--d", "8", "--r", "2", "--trials", "2",
                 "--out", out)
    assert (ns.lps, ns.n, ns.d, ns.r, ns.trials, ns.seed, ns.kappa) == (
        None, 64, 8, 2, 2, 0, 2.0)


class TestErrorExitCodes:
    """Every ``detmc.errors`` type ends the run with exit 2 and one line."""

    @staticmethod
    def assert_one_line_error(capsys, code):
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def complete(self, obs_path, graph_path, tmp_path, *extra, rank=2):
        """``complete`` at ``rank``, or with no ``--rank`` when that is None."""
        rank_flag = () if rank is None else ("--rank", str(rank))
        return cli.main(["complete", "--observed", str(obs_path),
                         "--graph", str(graph_path), *rank_flag,
                         "--out", str(tmp_path / "completed.mtx"), *extra])

    def test_parameter_error(self, capsys):
        code = cli.main(["graph", "gen", "--kind", "lps", "--p", "13", "--q", "5"])
        self.assert_one_line_error(capsys, code)

    def test_format_error(self, tmp_path, capsys):
        obs_path, graph_path = write_instance(tmp_path)
        obs_path.write_text("not a MatrixMarket file\n")
        code = self.complete(obs_path, graph_path, tmp_path)
        self.assert_one_line_error(capsys, code)

    def test_entries_past_the_declared_count(self, tmp_path, capsys):
        obs_path, graph_path = write_instance(tmp_path)
        with open(obs_path, "a") as fh:
            fh.write("1 1 123.0\n3 4 0.5\n")
        code = self.complete(obs_path, graph_path, tmp_path)
        err = self.assert_one_line_error(capsys, code)
        assert "more entries than the" in err

    def test_input_error(self, tmp_path, capsys):
        obs_path, graph_path = write_instance(tmp_path)
        lines = obs_path.read_text().splitlines()
        i, j, _ = lines[2].split()
        lines[2] = f"{i} {j} nan"
        obs_path.write_text("\n".join(lines) + "\n")
        code = self.complete(obs_path, graph_path, tmp_path)
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd"])
    def test_rank_below_one(self, tmp_path, capsys, solver):
        # at 256 x 256, d = 20 the spectral init runs Lanczos on the CSR
        obs_path, graph_path = write_instance(tmp_path, n=256, d=20)
        for rank in (0, -1):
            code = self.complete(obs_path, graph_path, tmp_path, "--solver", solver,
                                 rank=rank)
            self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("argv", [
        ("theory", "run", "--n", "64", "--d", "8", "--r", "-1"),
        ("theory", "run", "--n", "64", "--d", "8", "--r", "0"),
        ("bench", "phase", "--n", "64", "--r", "-2", "--degrees", "8", "--trials", "1"),
    ])
    def test_synthetic_rank_below_one(self, tmp_path, capsys, argv):
        # these used to end in numpy's "negative dimensions are not allowed"
        # traceback, or (at --r 0) in a complaint about a (64, 0) matrix
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
        err = self.assert_one_line_error(capsys, code)
        assert "rank must be at least 1" in err
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_error(self, tmp_path, capsys):
        # a huge mu lifts the row clip, so a large step overflows the loss
        obs_path, graph_path = write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path,
                             "--solver", "pgd", "--eta", "50", "--mu", "1e200")
        self.assert_one_line_error(capsys, code)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_ialm_penalty(self, tmp_path, capsys):
        # at tol 0 the penalty mu0 * 1.1^k overflows after about 7440
        # iterations; it used to end in a LinAlgError traceback
        obs_path, graph_path = write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path, "--solver", "ialm",
                             "--tol", "0", "--max-iter", "9000", rank=None)
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("extra", [
        ("--solver", "pgd", "--mu", "-1"),
        ("--solver", "pgd", "--mu", "nan"),
        ("--solver", "ialm", "--tol", "nan"),
        ("--solver", "ialm", "--max-iter", "0"),
    ])
    def test_setting_no_run_can_use(self, tmp_path, capsys, extra):
        # each of these used to run (with a numpy warning for --mu -1), write
        # a matrix and exit 0
        obs_path, graph_path = write_instance(tmp_path, n=64, d=16)
        code = self.complete(obs_path, graph_path, tmp_path, *extra,
                             rank=None if "ialm" in extra else 2)
        self.assert_one_line_error(capsys, code)
        assert not (tmp_path / "completed.mtx").exists()

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd"])
    def test_factored_solver_requires_rank(self, tmp_path, capsys, solver):
        obs_path, graph_path = write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path, "--solver", solver, rank=None)
        err = self.assert_one_line_error(capsys, code)
        assert err == f"error: --solver {solver} requires --rank\n"
        assert not (tmp_path / "completed.mtx").exists()

    @pytest.mark.parametrize("rank", [3, -7])
    def test_ialm_refuses_rank(self, tmp_path, capsys, rank):
        # IALM never read --rank: both used to run and write the same file
        obs_path, graph_path = write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path, "--solver", "ialm", rank=rank)
        err = self.assert_one_line_error(capsys, code)
        assert err == "error: --solver ialm does not read --rank\n"
        assert not (tmp_path / "completed.mtx").exists()

    @pytest.mark.parametrize("missing", ["graph", "observed", "config", "out"])
    def test_missing_file(self, tmp_path, capsys, monkeypatch, missing):
        # each used to end in a FileNotFoundError traceback with exit 1; a
        # missing output directory used to be found only after the solve
        monkeypatch.setattr(bench, "solve", lambda *a, **k: pytest.fail("solve ran"))
        obs_path, graph_path = write_instance(tmp_path)
        paths = {"graph": graph_path, "observed": obs_path,
                 "out": tmp_path / "completed.mtx"}
        paths[missing] = tmp_path / "missing" / "file"
        config = ("--config", str(paths["config"])) if missing == "config" else ()
        code = cli.main(["complete", "--observed", str(paths["observed"]),
                         "--graph", str(paths["graph"]), "--rank", "2",
                         "--out", str(paths["out"]), *config])
        self.assert_one_line_error(capsys, code)
        assert not (tmp_path / "completed.mtx").exists()

    def test_theory_run_missing_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(theory, "run_all", lambda *a, **k: pytest.fail("checks ran"))
        code = cli.main(["theory", "run", "--n", "16", "--r", "1", "--d", "4",
                         "--trials", "1", "--out", str(tmp_path / "missing" / "t.json")])
        self.assert_one_line_error(capsys, code)

    def test_graph_verify_missing_out_dir(self, tmp_path, capsys, monkeypatch):
        # the certificate used to be printed in full before --out failed
        _, graph_path = write_instance(tmp_path)
        monkeypatch.setattr(graphs, "load_edges", lambda *a: pytest.fail("graph loaded"))
        code = cli.main(["graph", "verify", "--graph", str(graph_path),
                         "--out", str(tmp_path / "missing" / "v.json")])
        assert capsys.readouterr().out == ""
        assert code == 2

    def test_generation_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise GenerationError("duplicate-edge repair exceeded the attempt cap")

        monkeypatch.setattr(graphs, "random_biregular", fail)
        code = cli.main(["graph", "gen", "--kind", "random", "--n1", "8", "--n2", "8",
                         "--d1", "2", "--out", str(tmp_path / "g.edges")])
        self.assert_one_line_error(capsys, code)

    def test_eta_above_the_cap(self, tmp_path, capsys):
        # the message used to ask for allow_large_eta=True, which no flag sets
        obs_path, graph_path = write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path,
                             "--solver", "scaled-pgd", "--eta", "0.2")
        err = self.assert_one_line_error(capsys, code)
        assert "0.145" in err
        assert not any(keyword.iskeyword(word) for word in re.findall(r"\w+", err)), err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_theory_run_trials_below_one(self, tmp_path, capsys, monkeypatch, trials):
        # each used to report every check as passed at worst_margin=+inf,
        # write Infinity into --out and exit 0
        monkeypatch.setattr(graphs, "random_biregular", lambda *a, **k: pytest.fail("work ran"))
        out = tmp_path / "t.json"
        code = cli.main(["theory", "run", "--n", "40", "--d", "8", "--r", "2",
                         "--trials", trials, "--out", str(out)])
        self.assert_one_line_error(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["graph gen", "graph verify", "graph export",
                                         "theory run", "complete"])
    def test_out_is_a_directory(self, tmp_path, capsys, monkeypatch, command):
        # graph verify printed its certificate and theory run its report
        # before the write failed, complete ran its solve first, and graph
        # gen and export built or loaded the graph first
        obs_path, graph_path = write_instance(tmp_path)
        for module, name in ((graphs, "load_edges"), (graphs, "random_biregular"),
                             (graphs, "lps_graph"), (bench, "solve")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("work ran"))
        argv = {
            "graph gen": ["--kind", "random", "--n1", "8", "--n2", "8", "--d1", "2"],
            "graph verify": ["--graph", str(graph_path)],
            "graph export": ["--graph", str(graph_path)],
            "theory run": ["--n", "16", "--r", "1", "--d", "4", "--trials", "1"],
            "complete": ["--observed", str(obs_path), "--graph", str(graph_path),
                         "--rank", "2"],
        }[command]
        code = cli.main([*command.split(), *argv, "--out", str(tmp_path)])
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("command, sweep", [
        ("phase", "run_phase_transition"),
        ("convergence", "run_convergence_comparison"),
        ("compare", "run_solver_comparison"),
    ])
    def test_bench_out_is_a_file(self, tmp_path, capsys, monkeypatch, command, sweep):
        # the sweep used to run in full before --out failed
        monkeypatch.setattr(bench, sweep, lambda *a, **k: pytest.fail("sweep ran"))
        out = tmp_path / "taken"
        out.write_text("")
        code = cli.main(["bench", command, "--out", str(out)])
        self.assert_one_line_error(capsys, code)
        assert out.read_text() == ""
