import csv
import json

import numpy as np
import pytest

from detmc import bench, cli, graphs, sampling, theory
from detmc.errors import AlignmentError, GenerationError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_gen_guard(self, capsys):
        code, _ = run_cli(capsys, "graph", "gen", "--kind", "lps", "--p", "13", "--q", "5")
        assert code == 2


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

        code, out = run_cli(
            capsys, "complete", "--observed", str(obs_path),
            "--graph", str(graph_path), "--rank", "2", "--mu", "8.0",
            "--solver", solver, "--out", str(out_path), "--tol", "1e-8",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["observed_residual"] < 1e-3
        assert summary["stop_reason"] == self.STOP_REASON[solver]
        M = sampling.load_dense_array(out_path)
        rel = np.linalg.norm(M - gt.matrix) / np.linalg.norm(gt.matrix)
        assert rel < 1e-3


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

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code, _ = run_cli(capsys, "graph", "gen", "--kind", "random",
                          "--n1", "8", "--n2", "8", "--d1", "2",
                          "--config", str(cfg))
        assert code == 2


class TestFlags:
    """Each subcommand takes only the flags it reads: a shared flag it would
    ignore exits 2, and so does its key in a config file."""

    # command: (its required flags, the shared flags it does not read)
    IGNORED = {
        "graph gen": (("--kind", "random"), ("threads", "tol", "eta", "lam", "solver")),
        "graph verify": (("--graph", "g.edges"),
                         ("seed", "threads", "tol", "eta", "lam", "solver")),
        "graph export": (("--graph", "g.edges"),
                         ("seed", "threads", "tol", "eta", "lam", "solver")),
        "complete": (("--observed", "o.mtx", "--graph", "g.edges", "--rank", "2"),
                     ("seed", "threads")),
        "bench convergence": ((), ("threads", "solver")),
        "bench compare": ((), ("threads", "solver")),
        "theory run": ((), ("threads", "tol", "eta", "lam", "solver")),
    }

    @pytest.mark.parametrize("command, dest", [
        pytest.param(command, dest, id=f"{command} {dest}")
        for command, (_, dests) in IGNORED.items() for dest in dests])
    def test_dropped_flag_exits_2(self, tmp_path, capsys, command, dest):
        argv = [*command.split(), *self.IGNORED[command][0]]
        value = "pgd" if dest == "solver" else "1"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, cli._flag_of(dest), value])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{dest}={value}\n")
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestErrorExitCodes:
    """Every ``detmc.errors`` type ends the run with exit 2 and one line."""

    @staticmethod
    def assert_one_line_error(capsys, code):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @staticmethod
    def write_instance(tmp_path, n=40, d=12):
        gt = bench.synthetic_low_rank(n, n, 2, 2.0, seed=1)
        g = graphs.random_biregular(n, n, d, seed=2)
        obs = sampling.observe(gt.matrix, g)
        obs_path, graph_path = tmp_path / "obs.mtx", tmp_path / "g.edges"
        sampling.save_observed(obs, obs_path)
        graphs.save_edges(g, graph_path)
        return obs_path, graph_path

    def complete(self, obs_path, graph_path, tmp_path, *extra, rank=2):
        return cli.main(["complete", "--observed", str(obs_path),
                         "--graph", str(graph_path), "--rank", str(rank),
                         "--out", str(tmp_path / "completed.mtx"), *extra])

    def test_parameter_error(self, capsys):
        code = cli.main(["graph", "gen", "--kind", "lps", "--p", "13", "--q", "5"])
        self.assert_one_line_error(capsys, code)

    def test_format_error(self, tmp_path, capsys):
        obs_path, graph_path = self.write_instance(tmp_path)
        obs_path.write_text("not a MatrixMarket file\n")
        code = self.complete(obs_path, graph_path, tmp_path)
        self.assert_one_line_error(capsys, code)

    def test_input_error(self, tmp_path, capsys):
        obs_path, graph_path = self.write_instance(tmp_path)
        lines = obs_path.read_text().splitlines()
        i, j, _ = lines[2].split()
        lines[2] = f"{i} {j} nan"
        obs_path.write_text("\n".join(lines) + "\n")
        code = self.complete(obs_path, graph_path, tmp_path)
        self.assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("solver", ["pgd", "scaled-pgd"])
    def test_rank_below_one(self, tmp_path, capsys, solver):
        # at 256 x 256, d = 20 the spectral init runs Lanczos on the CSR
        obs_path, graph_path = self.write_instance(tmp_path, n=256, d=20)
        for rank in (0, -1):
            code = self.complete(obs_path, graph_path, tmp_path, "--solver", solver,
                                 rank=rank)
            self.assert_one_line_error(capsys, code)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_error(self, tmp_path, capsys):
        # a huge mu lifts the row clip, so a large step overflows the loss
        obs_path, graph_path = self.write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path,
                             "--solver", "pgd", "--eta", "50", "--mu", "1e200")
        self.assert_one_line_error(capsys, code)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_ialm_penalty(self, tmp_path, capsys):
        # at tol 0 the penalty mu0 * 1.1^k overflows after about 7440
        # iterations; it used to end in a LinAlgError traceback
        obs_path, graph_path = self.write_instance(tmp_path)
        code = self.complete(obs_path, graph_path, tmp_path, "--solver", "ialm",
                             "--tol", "0", "--max-iter", "9000")
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
        obs_path, graph_path = self.write_instance(tmp_path, n=64, d=16)
        code = self.complete(obs_path, graph_path, tmp_path, *extra)
        self.assert_one_line_error(capsys, code)
        assert not (tmp_path / "completed.mtx").exists()

    def test_generation_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise GenerationError("duplicate-edge repair exceeded the attempt cap")

        monkeypatch.setattr(graphs, "random_biregular", fail)
        code = cli.main(["graph", "gen", "--kind", "random", "--n1", "8", "--n2", "8",
                         "--d1", "2", "--out", str(tmp_path / "g.edges")])
        self.assert_one_line_error(capsys, code)

    def test_alignment_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AlignmentError("gauge alignment stalled at gradient norm 1.00e-03")

        monkeypatch.setattr(theory, "run_all", fail)
        code = cli.main(["theory", "run", "--n", "16", "--r", "1", "--d", "4",
                         "--trials", "1"])
        self.assert_one_line_error(capsys, code)
