import csv
import gzip
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from banditbench import cli, harness, ntk
from banditbench.cli import main
from banditbench.data import BLOCK_ROWS, read_pairs
from banditbench.harness import ExperimentConfig, build_rounds
from banditbench.nn import TrainConfig
from banditbench.policies import ALGORITHMS, PolicyConfig
from helpers import rounds_built, traced_peak, without_wall_clock

# every CLI test plays its episodes in-process
pytestmark = pytest.mark.usefixtures("in_process")


def run_args(tmp_path, *extra):
    return ["run", "--dataset", "synthetic-nonlinear", "--algo", "uniform",
            "--T", "20", "--repeats", "2",
            "--out", str(tmp_path / "out"), *extra]


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        out = tmp_path / "out"
        assert (out / "summary.csv").exists()
        assert (out / "plot_uniform.csv").exists()
        assert (out / "trace_uniform_0.jsonl").exists()
        assert "total regret" in capsys.readouterr().out

    def test_neural_run_small(self, tmp_path, capsys):
        args = ["run", "--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                "--T", "8", "--repeats", "1", "--width", "4", "--iters", "2",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "neural-ts" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = uniform\nT = 30\nrepeats = 1\n"
                       "dataset = synthetic-nonlinear\n")
        args = ["run", "--config", str(cfg), "--T", "10",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=10)" in capsys.readouterr().out

    def test_stop_train_zero_accepted(self, tmp_path, capsys):
        args = ["run", "--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                "--T", "5", "--repeats", "1", "--width", "4", "--iters", "2",
                "--stop-train", "0", "--out", str(tmp_path / "out")]
        assert main(args) == 0


class TestRejectedValues:
    """A value that a config dataclass, the round stream or the policy
    rejects ends the command before round 1 like an argparse error: exit 2
    and the check's message, no traceback."""

    @pytest.mark.parametrize("flag,value,message", [
        ("--lambda", "0", "reg must be positive"),
        ("--T", "0", "horizon must be >= 1"),
        ("--nu", "-1", "nu must be nonnegative"),
        ("--repeats", "0", "repeats must be >= 1"),
        ("--dataset", "nope", "unknown dataset 'nope'"),
        ("--T", "9000", "horizon 9000 exceeds dataset size 8124"),
        ("--width", "3", "width must be a positive even integer, got 3"),
        ("--lr", "0.5", "step_size*m*reg = 50 >= 1"),
    ])
    def test_exits_2_with_the_message(self, tmp_path, capsys, flag, value,
                                      message):
        with pytest.raises(SystemExit) as info:
            main(run_args(tmp_path, "--algo", "neural-ts", "--dataset",
                          "mushroom-like", flag, value))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"banditbench run: error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestRejectedStreamAndPolicyValues:
    @pytest.mark.parametrize("flag,value,message", [
        ("--arms", "0", "n_arms must be >= 1"),
        ("--arms", "-2", "n_arms must be >= 1"),
        ("--raw-dim", "0", "raw_dim must be >= 1"),
        ("--stop-train", "-3", "stop_train must be >= 0")])
    def test_exits_2_before_round_1(self, tmp_path, capsys, flag, value,
                                    message):
        with pytest.raises(SystemExit) as info:
            main(run_args(tmp_path, "--algo", "neural-ts", flag, value))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"banditbench run: error: {message}"
        assert not (tmp_path / "out").exists()


class TestPreRunChecksBuildOneRound:
    def test_a_long_run_is_checked_in_little_memory(self, tmp_path,
                                                    monkeypatch):
        # 50000 rounds of the default stream take about 50 MiB; the width
        # and the policy checks need one
        seen = []
        monkeypatch.setattr(cli, "cmd_run",
                            lambda args, inputs: seen.append(args) or 0)
        main(run_args(tmp_path, "--T", "50000"))
        args, = seen
        assert args.horizon == 50000
        assert traced_peak(lambda: cli._inputs(args)) < 5 * 2**20

    @pytest.mark.parametrize("dataset", ["synthetic-nonlinear",
                                         "mushroom-like"])
    def test_builds_at_most_one_block(self, tmp_path, monkeypatch, dataset):
        seen = []
        monkeypatch.setattr(cli, "cmd_run",
                            lambda args, inputs: seen.append(args) or 0)
        main(run_args(tmp_path, "--dataset", dataset, "--T", "2000"))
        args, = seen
        with rounds_built() as built:
            cli._inputs(args)
        assert 1 <= len(built) <= BLOCK_ROWS


def _categorical_csv(tmp_path, n):
    """An all-categorical CSV of n rows and its schema file."""
    rng = np.random.default_rng(2)
    table = tmp_path / "cats.csv"
    table.write_text("cap,odor,kind\n" + "".join(
        f"{'xbf'[i]},{'anlp'[j]},{'ep'[(i + j) % 2]}\n"
        for i, j in rng.integers(0, 3, (n, 2))))
    schema = tmp_path / "schema.txt"
    schema.write_text("cap: categorical\nodor: categorical\nlabel: kind\n")
    return [f"csv:{table}", "--schema", str(schema)]


class TestLazyStreamTraces:
    """An episode played from the lazy stream writes the JSONL that the same
    rounds, built into a list before round 1, give."""

    @pytest.mark.parametrize("flag", [["--no-duplicate"], ["--delay", "32"]],
                             ids=["no-duplicate", "delay32"])
    @pytest.mark.parametrize("dataset", ["synthetic-nonlinear",
                                         "synthetic-linear", "mushroom-like",
                                         "csv"])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_match_a_list_built_stream(self, tmp_path, monkeypatch, algo,
                                       dataset, flag):
        horizon = BLOCK_ROWS + 44   # two blocks
        spec = (_categorical_csv(tmp_path, horizon) if dataset == "csv"
                else [dataset])
        lazy = harness.build_rounds
        traces = []
        for name, build in (("lazy", lazy), ("list", lambda *a: list(lazy(*a)))):
            monkeypatch.setattr(harness, "build_rounds", build)
            out = tmp_path / name
            assert main(["run", "--dataset", *spec, "--algo", algo,
                         "--T", str(horizon), "--repeats", "1",
                         "--width", "4", "--iters", "1", "--stop-train", "40",
                         "--out", str(out), *flag]) == 0
            with open(out / f"trace_{algo}_0.jsonl") as fh:
                traces.append(without_wall_clock(map(json.loads, fh)))
        assert traces[0] == traces[1]


class TestGrid:
    def test_grid_table_printed(self, tmp_path, capsys):
        args = ["grid", "--dataset", "synthetic-nonlinear", "--algo", "lin-ts",
                "--T", "15", "--repeats", "1",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("regret") >= 4  # 3 nu cells + best line
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_writes_the_cell_summary_only(self, tmp_path):
        args = ["grid", "--dataset", "synthetic-nonlinear", "--algo", "lin-ts",
                "--T", "15", "--repeats", "1",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert not (tmp_path / "out" / "plot_none.csv").exists()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "summary.csv"]

    def test_rejects_a_cell_before_any_runs(self, tmp_path, capsys):
        # step*m*lambda is 0.005 at --lambda 0.001 but 5 in the lambda=1 cell
        args = ["grid", "--algo", "neural-ts", "--lambda", "0.001", "--lr",
                "0.05", "--T", "5", "--repeats", "1",
                "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "banditbench grid: error: step_size*m*reg = 5 >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_network_width_is_not_checked_for_lin_ts(self, tmp_path):
        assert main(["grid", "--algo", "lin-ts", "--width", "3", "--T", "5",
                     "--repeats", "1",
                     "--out", str(tmp_path / "out")]) == 0

    def test_cell_equals_run_with_its_lambda_and_nu(self, tmp_path):
        # a cell's lambda reaches the training loss as well as the posterior
        common = ["--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                  "--T", "40", "--repeats", "2", "--width", "8",
                  "--train-mode", "gd", "--iters", "20", "--lr", "0.01"]
        assert main(["grid", *common, "--out", str(tmp_path / "grid")]) == 0
        with open(tmp_path / "grid" / "summary.csv") as fh:
            cells = {(float(row["reg"]), float(row["nu"])): float(row["mean"])
                     for row in csv.DictReader(fh)}
        for reg, nu in [(0.01, 0.1), (0.1, 0.001)]:
            out = tmp_path / f"run_{reg}_{nu}"
            assert main(["run", *common, "--lambda", str(reg), "--nu", str(nu),
                         "--out", str(out)]) == 0
            with open(out / "summary.csv") as fh:
                mean = float(next(csv.DictReader(fh))["mean"])
            assert cells[reg, nu] == mean


class TestNtk:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["ntk", "--n", "5", "--raw-dim", "6", "--depth", "2",
                "--T", "100", "--arms", "2", "--out-file", str(out)]
        assert main(args) == 0
        report = json.loads(out.read_text())
        for key in ("eff_dim", "spectrum", "B", "nu_theory",
                    "width_condition", "min_eigenvalue"):
            assert key in report
        assert report["n_contexts"] == 10
        assert len(report["spectrum"]) == 10

    def test_subsampling_cap(self, tmp_path):
        # --n rounds of the default 4-arm stream size the context set
        out = tmp_path / "report.json"
        args = ["ntk", "--n", "3", "--out-file", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["n_contexts"] == 12


def ntk_report(tmp_path, *flags):
    out = tmp_path / "report.json"
    assert main(["ntk", *flags, "--out-file", str(out)]) == 0
    return json.loads(out.read_text())


class TestNtkStream:
    """ntk's contexts are every arm's context in the first --n rounds of the
    stream that run plays, and its K is that stream's arm count."""

    report = staticmethod(ntk_report)

    def test_contexts_and_budget_come_from_the_stream(self, tmp_path):
        report = self.report(tmp_path, "--dataset", "synthetic-linear",
                             "--n", "5", "--arms", "2", "--T", "300",
                             "--lambda", "0.5")
        assert report["n_contexts"] == 10
        config = ExperimentConfig("synthetic-linear", PolicyConfig("neural-ts"),
                                  horizon=5, n_arms=2)
        contexts = np.concatenate([r.contexts for r in build_rounds(config, 0)])
        H = ntk.ntk_matrix(contexts, 2)
        expected = ntk.effective_dimension(H, 0.5, 300 * 2)
        assert report["eff_dim"] == pytest.approx(expected.eff_dim, rel=1e-12)

    def test_contexts_are_the_rounds_run_plays(self, tmp_path, monkeypatch):
        seen = []
        real = ntk.ntk_matrix
        monkeypatch.setattr(ntk, "ntk_matrix",
                            lambda contexts, depth: seen.append(contexts)
                            or real(contexts, depth))
        self.report(tmp_path, "--dataset", "mushroom-like", "--n", "4",
                    "--seed", "3")
        config = ExperimentConfig("mushroom-like", PolicyConfig("neural-ts"),
                                  horizon=4)
        rounds = build_rounds(config, 3)
        np.testing.assert_array_equal(
            seen[0], np.concatenate([r.contexts for r in rounds]))

    @pytest.mark.parametrize("dataset,n", [("mushroom-like", "3"),
                                           ("synthetic-nonlinear", "2")])
    def test_no_duplicate_halves_the_context_width(self, tmp_path,
                                                   monkeypatch, dataset, n):
        widths = []
        real = ntk.ntk_matrix
        monkeypatch.setattr(ntk, "ntk_matrix",
                            lambda contexts, depth: widths.append(
                                contexts.shape[1]) or real(contexts, depth))
        self.report(tmp_path, "--dataset", dataset, "--n", n)
        self.report(tmp_path, "--dataset", dataset, "--n", n, "--no-duplicate")
        assert widths[1] * 2 == widths[0]
        if dataset == "synthetic-nonlinear":
            assert widths[1] == 8  # --raw-dim


class TestNtkTheoryFromTheStream:
    """B is over the stream's own expected rewards and R is its noise: the
    synthetic streams' noise_sd, 0 for a labeled dataset."""

    report = staticmethod(ntk_report)

    def test_b_is_over_the_expected_rewards(self, tmp_path):
        flags = ("--n", "5", "--arms", "2")
        report = self.report(tmp_path, "--dataset", "synthetic-linear", *flags)
        config = ExperimentConfig("synthetic-linear", PolicyConfig("neural-ts"),
                                  horizon=5, n_arms=2)
        rounds = build_rounds(config, 0)
        h = np.concatenate([r.expected_rewards for r in rounds])
        H = ntk.ntk_matrix(np.concatenate([r.contexts for r in rounds]), 2)
        assert report["B"] == ntk.theory_B(h, H, np.linalg.eigvalsh(H)[0])
        assert report["R"] == config.noise_sd
        assert report["nu_theory"] > report["B"]
        nonlinear = self.report(tmp_path, "--dataset", "synthetic-nonlinear",
                                *flags)
        assert nonlinear["B"] != report["B"]

    def test_labeled_rewards_carry_no_noise(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("size,color,kind\n1.0,red,a\n2.0,blue,b\n"
                        "0.5,green,a\n3.0,red,b\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("size: numeric\ncolor: categorical\nlabel: kind\n")
        report = self.report(tmp_path, "--dataset", f"csv:{data}", "--schema",
                             str(schema), "--n", "4")
        assert report["R"] == 0.0
        assert report["B"] is not None
        assert report["nu_theory"] == report["B"]

    def test_one_eigendecomposition_per_report(self, tmp_path, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or real(a))
        report = self.report(tmp_path, "--dataset", "synthetic-linear",
                             "--n", "5")
        assert report["B"] is not None
        assert calls == [(20, 20)]

    def test_report_holds_no_kernel_matrix(self, tmp_path):
        report = self.report(tmp_path, "--n", "5")
        assert "H" not in report
        assert len(report["spectrum"]) == 20

    @pytest.mark.parametrize("flag,value", [("--rewards", "zero"),
                                            ("--R", "0.5")])
    def test_removed_flags_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["ntk", "--n", "2", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestNtkReportIsStrictJson:
    """Extreme --lambda and --delta values give a report without NaN or
    Infinity, whose flags are compared in log space and whose terms are null
    where a double cannot hold them; a --width that no network has exits 2
    before any kernel is built."""

    @staticmethod
    def strict(text):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize("flag,value,message", [
        ("--lambda", "1e-40", None),
        ("--lambda", "1e300", None),
        ("--lambda", "1e-30", None),
        ("--lambda", "1e-320", None),
        ("--lambda", "5e-324", None),
        ("--width", "1", "width must be a positive even integer, got 1"),
        ("--width", "0", "width must be a positive even integer, got 0"),
        ("--delta", "1e-320", None)])
    def test_exits_0_with_strict_json_or_2(self, monkeypatch, capsys, flag,
                                           value, message):
        argv = ["ntk", "--n", "5", flag, value]
        if message is not None:
            monkeypatch.setattr(ntk, "ntk_matrix", None)
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == f"banditbench ntk: error: {message}"
            return
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = self.strict(captured.out)
        cond = report["width_condition"]
        if cond["lower_bound_rhs"] is not None:
            assert cond["lower_bound_ok"] == (cond["width"]
                                              >= cond["lower_bound_rhs"])
        if cond["log_cubed_rhs"] is not None:
            assert cond["log_cubed_ok"] == (cond["log_cubed_lhs"]
                                            >= cond["log_cubed_rhs"])
        if flag == "--lambda" and float(value) < 1.0:
            # the terms in lambda^-7 and lambda^-8 are past 1e308
            assert cond["log_cubed_rhs"] is None
            assert cond["log_cubed_ok"] is False


    def test_delta_is_checked_on_a_singular_kernel(self, capsys):
        # a singular H skips nu, whose check --delta reached alone; past 1
        # the width terms took the log of a number below 1
        with pytest.raises(SystemExit) as info:
            main(["ntk", "--dataset", "mushroom-like", "--n", "50",
                  "--delta", "1e9"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "banditbench ntk: error: delta must be in (0, 1)")

class TestInProcessSwitch:
    """BANDITBENCH_THREADS=1 is the one switch that keeps a run's episodes
    in-process: --serial is gone from the command line and config files."""

    @pytest.fixture(autouse=True)
    def no_episodes(self, monkeypatch):
        monkeypatch.setattr(cli, "run_repeats", None)
        monkeypatch.setattr(cli, "run_grid", None)

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_serial_flag_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--algo", "uniform", "--T", "5", "--serial",
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "banditbench: error: unrecognized arguments: --serial")

    def test_serial_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = uniform\nT = 5\nserial = true\n")
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditbench run: error: --config {cfg}: serial: "
            "unrecognized arguments: --serial=true")


class TestNtkIngestRejections:
    """Bad ntk or ingest input ends like an argparse error: exit 2 and the
    reason, no traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["ntk", "--dataset", "nope"], "unknown dataset 'nope'"),
        (["ntk", "--n", "0"], "horizon must be >= 1"),
        (["ntk", "--dataset", "mushroom-like", "--n", "9000"],
         "horizon 9000 exceeds dataset size 8124"),
        (["ntk", "--lambda", "0"], "reg must be positive"),
        (["ntk", "--dataset", "csv:missing.csv", "--schema", "schema.txt"],
         "No such file or directory: 'missing.csv'"),
        (["ingest", "--dataset", "csv:missing.csv", "--schema", "schema.txt"],
         "No such file or directory: 'missing.csv'"),
        (["ingest"], "ingest needs a labeled --dataset"),
        (["ingest", "--dataset", "synthetic-linear"],
         "ingest needs a labeled --dataset")])
    def test_exits_2_with_the_reason(self, tmp_path, monkeypatch, capsys,
                                     argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "schema.txt").write_text("size: numeric\nlabel: kind\n")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            f"banditbench {argv[0]}: error: ")
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err
        assert not (tmp_path / "manifest.json").exists()


class TestNonFiniteValues:
    """NaN and infinite floats fail the range checks as well, before round 1
    or before the ntk report is built."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "--algo", "lin-ts", "--nu", "nan"],
         "nu must be nonnegative and finite, got nan"),
        (["run", "--algo", "neural-ts", "--nu", "nan", "--width", "8"],
         "nu must be nonnegative and finite, got nan"),
        (["run", "--algo", "lin-ts", "--nu", "inf"],
         "nu must be nonnegative and finite, got inf"),
        (["run", "--algo", "lin-ucb", "--lambda", "nan"],
         "reg must be positive and finite, got nan"),
        (["run", "--algo", "lin-ucb", "--lambda", "inf"],
         "reg must be positive and finite, got inf"),
        (["run", "--algo", "kernel-ts", "--lambda", "nan"],
         "reg must be positive and finite, got nan"),
        (["run", "--algo", "neural-ts", "--lambda", "nan"],
         "reg must be positive and finite, got nan"),
        (["run", "--algo", "neural-ts", "--lr", "nan"],
         "step_size must be positive and finite, got nan"),
        (["ntk", "--lambda", "nan", "--n", "5"],
         "reg must be positive and finite, got nan")])
    def test_exits_2_naming_the_value(self, tmp_path, monkeypatch, capsys,
                                      argv, message):
        # no episode may run and no kernel matrix be built
        monkeypatch.setattr(cli, "run_repeats", None)
        monkeypatch.setattr(ntk, "ntk_matrix", None)
        if argv[0] == "run":
            argv = [*argv, "--T", "20", "--repeats", "1",
                    "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"banditbench {argv[0]}: error: {message}"
        assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output path that cannot be written ends the command with exit 2
    and the path before any episode runs or any report is built."""

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_out_under_a_file(self, tmp_path, monkeypatch, capsys, command):
        # no episode may run
        monkeypatch.setattr(cli, "run_repeats", None)
        monkeypatch.setattr(cli, "run_grid", None)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        with pytest.raises(SystemExit) as info:
            main([command, "--algo", "lin-ts", "--T", "20", "--repeats", "1",
                  "--out", str(out)])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"banditbench {command}: error: ")
        assert str(out) in err

    def test_a_config_out_is_blamed_and_nothing_created(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_repeats", None)
        (tmp_path / "file").write_text("")
        (tmp_path / "e.cfg").write_text("algo = lin-ts\nT = 20\nrepeats = 1\n"
                                        "out = file/sub\n")
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", "e.cfg"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "banditbench run: error: --config e.cfg: out: --out file/sub: ")
        # finding the line to blame replays the checks with --out's default
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.cfg", "file"]

    def test_the_line_that_gives_the_rejection_is_blamed(self, tmp_path,
                                                         monkeypatch, capsys):
        # without T = 3 the default horizon outruns the 5-row dataset, a
        # different rejection, but T = 3 alone gives none
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        (tmp_path / "r.cfg").write_text("T = 3\nout = file/sub\n")
        with pytest.raises(SystemExit) as info:
            main(["run", *TestZeroRowWarning._dataset(tmp_path),
                  "--config", "r.cfg"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "banditbench run: error: --config r.cfg: out: --out file/sub: ")

    @pytest.mark.parametrize("argv", [["ntk", "--n", "5"],
                                      ["ingest", "--dataset", "mushroom-like"]])
    @pytest.mark.parametrize("name", ["missing/report.json", "a-directory"])
    def test_out_file_that_cannot_be_opened(self, tmp_path, monkeypatch,
                                            capsys, argv, name):
        monkeypatch.setattr(cli, "_ntk_report", None)  # no report may be built
        monkeypatch.setattr(cli.envs, "load_dataset", None)
        (tmp_path / "a-directory").mkdir()
        out_file = tmp_path / name
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out-file", str(out_file)])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditbench {argv[0]}: error: --out-file {out_file}: "
            "not a file in an existing directory")
        assert not (tmp_path / "missing").exists()


class TestIngest:
    def test_csv_manifest(self, tmp_path):
        csv = tmp_path / "toy.csv"
        csv.write_text("size,color,kind\n1.0,red,a\n2.0,blue,b\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("size: numeric\ncolor: categorical\nlabel: kind\n")
        out = tmp_path / "manifest.json"
        args = ["ingest", "--dataset", f"csv:{csv}", "--schema", str(schema),
                "--out-file", str(out)]
        assert main(args) == 0
        manifest = json.loads(out.read_text())
        assert manifest["rows"] == 2
        assert "sha256" in manifest

    def test_csv_path_with_semicolon(self, tmp_path):
        csv = tmp_path / "a;b.csv"
        csv.write_text("size,kind\n1.0,a\n2.0,b\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("size: numeric\nlabel: kind\n")
        out = tmp_path / "manifest.json"
        assert main(["ingest", "--dataset", f"csv:{csv}", "--schema",
                     str(schema), "--out-file", str(out)]) == 0
        manifest = json.loads(out.read_text())
        assert list(manifest["sha256"]) == [str(csv)]
        assert manifest["provenance"] == str(csv)

    def test_mushroom_like_manifest(self, tmp_path):
        out = tmp_path / "manifest.json"
        args = ["ingest", "--dataset", "mushroom-like", "--out-file", str(out)]
        assert main(args) == 0
        manifest = json.loads(out.read_text())
        assert manifest["rows"] == 8124
        assert manifest["n_classes"] == 2

    def test_zero_rows_counted(self, tmp_path):
        csv = tmp_path / "toy.csv"
        csv.write_text("a,b,kind\n1.0,2.0,x\n0,0,y\n0.5,0,x\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("a: numeric\nb: numeric\nlabel: kind\n")
        out = tmp_path / "manifest.json"
        assert main(["ingest", "--dataset", f"csv:{csv}", "--schema",
                     str(schema), "--out-file", str(out)]) == 0
        assert json.loads(out.read_text())["zero_rows"] == 1

    def test_idx_manifest_checksums_the_labels(self, tmp_path):
        images = tmp_path / "images.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 6, 2, 2) + bytes(range(24)))
        labels = tmp_path / "labels.idx"
        manifests = []
        for label_bytes in (bytes([0, 1, 2, 0, 1, 2]), bytes([1, 2, 0, 1, 2, 0])):
            labels.write_bytes(struct.pack(">II", 0x801, 6) + label_bytes)
            out = tmp_path / "manifest.json"
            assert main(["ingest", "--dataset", f"idx:{images},{labels}",
                         "--out-file", str(out)]) == 0
            manifests.append(json.loads(out.read_text()))
        first, second = manifests
        assert first != second
        assert first["sha256"][str(images)] == second["sha256"][str(images)]
        assert first["sha256"][str(labels)] != second["sha256"][str(labels)]
        assert first["provenance"] == f"{images};{labels}"

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--dataset", "nope",
                  "--out-file", str(tmp_path / "m.json")])
        assert info.value.code == 2


class TestReadPairs:
    """read_pairs reads config files (`=`) and schema files (`:`) alike."""

    @pytest.mark.parametrize("sep", ["=", ":"])
    def test_parse(self, tmp_path, sep):
        path = tmp_path / "pairs.txt"
        path.write_text(f"# comment\nalgo {sep} neural-ts\n\n"
                        f"  nu{sep}0.01   # trailing comment\n"
                        f"out {sep} a{sep}b\n")
        assert read_pairs(str(path), sep) == {"algo": "neural-ts",
                                              "nu": "0.01", "out": f"a{sep}b"}

    @pytest.mark.parametrize("sep", ["=", ":"])
    def test_malformed(self, tmp_path, sep):
        path = tmp_path / "pairs.txt"
        path.write_text(f"T {sep} 5\njust words  # no separator\n")
        with pytest.raises(ValueError) as info:
            read_pairs(str(path), sep)
        assert str(info.value) == (
            f"{path}: malformed line 'just words  # no separator'")

    @pytest.mark.parametrize("sep", ["=", ":"])
    def test_repeated_key(self, tmp_path, sep):
        path = tmp_path / "pairs.txt"
        path.write_text(f"T {sep} 5\nnu {sep} 1\nT{sep}6\n")
        with pytest.raises(ValueError) as info:
            read_pairs(str(path), sep)
        assert str(info.value) == f"{path}: repeated key 'T'"

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        # the second line used to win silently
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("T = 5\nT = 6\n")
        with pytest.raises(SystemExit) as info:
            main(run_args(tmp_path, "--config", str(cfg)))
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditbench run: error: --config: {cfg}: repeated key 'T'")


class TestDefaultsTrainStably:
    """The README's commands run with their defaults past the rounds where
    the former defaults (GD x100 at lr 1e-3) raised TrainingDiverged."""

    def test_defaults(self, tmp_path, capsys):
        args = ["run", "--T", "150", "--repeats", "1",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=150)" in capsys.readouterr().out

    def test_readme_run_example(self, tmp_path, capsys):
        args = ["run", "--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                "--T", "450", "--repeats", "1", "--width", "32",
                "--posterior", "diag", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=450)" in capsys.readouterr().out


class TestDefaultsComeFromTheConfigClasses:
    """Each flag that sets a config field with a default parses to that
    default, so run and the library train alike unless told otherwise."""

    @pytest.mark.parametrize("dest,owner,name", [
        ("seed", ExperimentConfig, "base_seed"),
        ("arms", ExperimentConfig, "n_arms"),
        ("raw_dim", ExperimentConfig, "raw_dim"),
        ("repeats", ExperimentConfig, "repeats"),
        ("delay", ExperimentConfig, "delay"),
        ("reg", PolicyConfig, "reg"),
        ("reg", TrainConfig, "reg"),
        ("width", PolicyConfig, "width"),
        ("depth", PolicyConfig, "depth"),
        ("nu", PolicyConfig, "nu"),
        ("eps", PolicyConfig, "eps"),
        ("stop_train", PolicyConfig, "stop_train"),
        ("iters", TrainConfig, "iterations"),
        ("lr", TrainConfig, "step_size"),
        ("train_mode", TrainConfig, "mode"),
        ("batch_size", TrainConfig, "batch_size")])
    def test_run_parses_the_class_default(self, monkeypatch, dest, owner,
                                          name):
        default, = [f.default for f in fields(owner) if f.name == name]
        assert getattr(self.parsed(monkeypatch), dest) == default

    def test_default_run_is_the_default_experiment(self, monkeypatch):
        assert cli.build_experiment(self.parsed(monkeypatch)) == \
            ExperimentConfig("synthetic-nonlinear", PolicyConfig("neural-ts"),
                             horizon=2000)

    @staticmethod
    def parsed(monkeypatch):
        """The namespace that `run` parses with no flags."""
        seen = []
        monkeypatch.setattr(cli, "cmd_run",
                            lambda args, inputs: seen.append(args) or 0)
        assert main(["run"]) == 0
        return seen[0]


class TestConfigKeysAreFlags:
    """Config-file keys are the long flag names and go through the same
    parser as the flags: a key takes effect or the run stops with exit 2."""

    def write(self, tmp_path, *lines):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = uniform\nrepeats = 1\n" + "\n".join(lines) + "\n")
        return ["run", "--config", str(cfg),
                "--out", str(tmp_path / "out")]

    def test_horizon_from_config_without_flag(self, tmp_path, capsys):
        assert main(self.write(tmp_path, "T = 30")) == 0
        assert "(T=30)" in capsys.readouterr().out

    @pytest.mark.parametrize("value,duplicate", [("true", False),
                                                 ("false", True)])
    def test_switch_values(self, tmp_path, monkeypatch, value, duplicate):
        seen = []
        real = cli.run_repeats

        def spy(config):
            seen.append(config)
            return real(config)

        monkeypatch.setattr(cli, "run_repeats", spy)
        assert main(self.write(tmp_path, "T = 5",
                               f"no-duplicate = {value}")) == 0
        assert [config.duplicate for config in seen] == [duplicate]

    @pytest.mark.parametrize("line,error", [
        ("t = 30", "unrecognized arguments: --t=30"),
        ("lamda = 5", "unrecognized arguments: --lamda=5"),
        ("stop_trian = 5", "unrecognized arguments: --stop-trian=5"),
        ("posterior = ful", "argument --posterior: invalid choice: 'ful'"),
        ("horizon = 30", "unrecognized arguments: --horizon=30"),
        ("lambda = 0", "reg must be positive"),
        ("dataset = nope", "unknown dataset 'nope'")])
    def test_bad_key_or_value_exits_2(self, tmp_path, capsys, line, error):
        with pytest.raises(SystemExit) as info:
            main(self.write(tmp_path, "T = 5", line))
        assert info.value.code == 2
        # the error names the file and the key as the file writes it
        key = line.partition("=")[0].strip()
        assert (f"banditbench run: error: --config {tmp_path / 'exp.cfg'}: "
                f"{key}: {error}") in capsys.readouterr().err.splitlines()[-1]

    def test_a_bad_key_after_a_good_dataset_line_is_named(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("dataset = mushroom-like\nT = 5\nlamda = 5\n")
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"banditbench run: error: --config {cfg}: lamda: "
            "unrecognized arguments: --lamda=5")

    # a value for each run and grid option that takes one, none a default
    VALUES = {"dataset": "mushroom-like", "schema": "s.txt", "T": "7",
              "seed": "3", "arms": "3", "raw-dim": "5", "lambda": "0.5",
              "width": "8", "depth": "3", "algo": "lin-ts", "repeats": "2",
              "delay": "1", "nu": "0.3", "eps": "0.2", "iters": "3",
              "lr": "0.005", "train-mode": "gd", "batch-size": "8",
              "stop-train": "4", "posterior": "full", "out": "elsewhere"}

    @staticmethod
    def namespace(monkeypatch, argv):
        """What main parses from argv for run or grid, but for the config
        file's path and the patched subcommand."""
        seen = []
        for name in ("cmd_run", "cmd_grid"):
            monkeypatch.setattr(cli, name,
                                lambda args, inputs: seen.append(args) or 0)
        assert main(argv) == 0
        args, = seen
        return {k: v for k, v in vars(args).items()
                if k not in ("config", "func")}

    def test_every_option_with_a_value_has_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dests = set(self.namespace(monkeypatch, ["run"]))
        assert len(dests - {"command", "no_duplicate"}) == len(self.VALUES)

    @pytest.mark.parametrize("key", sorted(VALUES))
    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_a_line_parses_as_its_flag(self, tmp_path, monkeypatch, command,
                                       key):
        monkeypatch.chdir(tmp_path)
        value = self.VALUES[key]
        (tmp_path / "exp.cfg").write_text(f"{key} = {value}\n")
        from_flag = self.namespace(monkeypatch, [command, f"--{key}", value])
        assert self.namespace(monkeypatch, [command, "--config",
                                            "exp.cfg"]) == from_flag
        assert from_flag != self.namespace(monkeypatch, [command])

    @pytest.mark.parametrize("value,flags", [("true", ["--no-duplicate"]),
                                             ("false", [])])
    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_a_switch_line_parses_as_the_switch(self, tmp_path, monkeypatch,
                                                command, value, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(f"no-duplicate = {value}\n")
        assert self.namespace(monkeypatch, [command, "--config", "exp.cfg"]) \
            == self.namespace(monkeypatch, [command, *flags])

    def test_a_rejected_flag_does_not_name_the_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([*self.write(tmp_path, "T = 5", "lambda = 2"), "--lambda", "0"])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "banditbench run: error: reg must be positive and finite, got 0.0")

    @pytest.mark.parametrize("flags,error", [
        (["--lamda", "5"], "banditbench: error: unrecognized arguments: "
                           "--lamda 5"),
        (["--posterior", "ful"], "banditbench run: error: argument "
                                 "--posterior: invalid choice: 'ful'")])
    def test_command_line_errors_keep_their_text(self, capsys, flags, error):
        with pytest.raises(SystemExit) as info:
            main(["run", *flags])
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(error)


class TestIngestErrors:
    def test_csv_without_schema(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["ingest", "--dataset", "csv:x",
                  "--out-file", str(tmp_path / "m.json")])
        assert info.value.code == 2
        assert "schema" in capsys.readouterr().err

    @staticmethod
    def _rejection(argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err.splitlines()[-1]

    @staticmethod
    def _idx_pair(n_labels=10, cut=0):
        """The bytes of an IDX pair whose headers promise ten random 4x4
        images and ten labels; the labels file holds n_labels of them, and
        the images file loses cut bytes off its end."""
        pixels = np.random.default_rng(0).integers(0, 256, 160, np.uint8)
        images = struct.pack(">IIII", 0x803, 10, 4, 4) + pixels.tobytes()
        labels = struct.pack(">II", 0x801, 10) + bytes(n_labels)
        return images[:len(images) - cut], labels

    def test_gzip_images_cut_short(self, tmp_path, capsys):
        images, labels = self._idx_pair()
        packed = gzip.compress(images)
        (tmp_path / "i.gz").write_bytes(packed[:-30])
        (tmp_path / "l").write_bytes(labels)
        last = self._rejection(
            ["ingest", "--dataset", f"idx:{tmp_path / 'i.gz'},{tmp_path / 'l'}",
             "--out-file", str(tmp_path / "m.json")], capsys)
        assert f"{tmp_path / 'i.gz'}: truncated: expected 160 pixel bytes" \
            in last

    @pytest.mark.parametrize("command", ["ingest", "run", "ntk"])
    def test_plain_images_cut_short(self, tmp_path, capsys, command):
        images, labels = self._idx_pair(cut=20)
        (tmp_path / "i").write_bytes(images)
        (tmp_path / "l").write_bytes(labels)
        argv = [command, "--dataset", f"idx:{tmp_path / 'i'},{tmp_path / 'l'}"]
        if command == "ingest":
            argv += ["--out-file", str(tmp_path / "m.json")]
        last = self._rejection(argv, capsys)
        assert last.endswith(f"{tmp_path / 'i'}: truncated: expected 160 "
                             "pixel bytes, found 140")

    def test_labels_cut_short(self, tmp_path, capsys):
        images, labels = self._idx_pair(n_labels=7)
        (tmp_path / "i").write_bytes(images)
        (tmp_path / "l").write_bytes(labels)
        last = self._rejection(
            ["ingest", "--dataset", f"idx:{tmp_path / 'i'},{tmp_path / 'l'}",
             "--out-file", str(tmp_path / "m.json")], capsys)
        assert last.endswith(f"{tmp_path / 'l'}: truncated: expected 10 "
                             "labels, found 7")

    @pytest.mark.parametrize("case", [
        "unknown type", "malformed schema line", "repeated schema key",
        "image count", "column not in schema", "label not found", "nan",
        "inf", "header names a column the schema lacks", "repeated header",
        "schema names a column the file lacks", "no feature column",
        "headerless rows wider than the schema"])
    def test_rejection_names_the_file_and_the_cause(self, tmp_path, capsys,
                                                    case):
        table, schema = tmp_path / "t.csv", tmp_path / "schema.txt"
        images, labels = tmp_path / "i", tmp_path / "l"
        table.write_text("a,b,y\n1.0,x,p\n2.0,z,q\n")
        schema.write_text("a: numeric\nb: categorical\nlabel: y\n")
        dataset = f"csv:{table}"
        if case == "unknown type":
            schema.write_text("a: numeric\nb: text\nlabel: y\n")
            message = f"{schema}: unknown column type 'text' for 'b'"
        elif case == "malformed schema line":
            schema.write_text("a: numeric\nb categorical\nlabel: y\n")
            message = f"{schema}: malformed line 'b categorical'"
        elif case == "repeated schema key":
            schema.write_text("a: numeric\nb: categorical\na: numeric\n"
                              "label: y\n")
            message = f"{schema}: repeated key 'a'"
        elif case == "image count":
            images.write_bytes(struct.pack(">IIII", 0x803, 3, 2, 2)
                               + bytes(12))
            labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
            dataset = f"idx:{images},{labels}"
            message = f"{images}, {labels}: image count 3 != label count 2"
        elif case == "column not in schema":
            table.write_text("1.0,x,p\n2.0,z,q\n")
            schema.write_text("c0: numeric\nlabel: c2\n")
            message = f"{table}: column 'c1' is not in the schema"
        elif case == "label not found":
            table.write_text("1.0,x,p\n2.0,z,q\n")
            message = (f"{table}: label column 'y' not found (headerless "
                       "file uses c0..)")
        elif case in ("nan", "inf"):
            table.write_text(f"a,b,y\n1.0,x,p\n{case},z,q\n")
            message = (f"{table}: numeric column 'a': non-finite value "
                       f"'{case}'")
        elif case == "header names a column the schema lacks":
            schema.write_text("a: numeric\nlabel: y\n")
            message = f"{table}: column 'b' is not in the schema"
        elif case == "schema names a column the file lacks":
            table.write_text("a,y\n1.0,p\n2.0,q\n")
            schema.write_text("a: numeric\nb: numeric\nlabel: y\n")
            message = f"{table}: schema column 'b' is not in the file"
        elif case == "no feature column":
            table.write_text("y\np\nq\n")
            schema.write_text("label: y\n")
            message = f"{table}: the schema names no feature column"
        elif case == "headerless rows wider than the schema":
            table.write_text("1.0,p,9\n2.0,q,9\n")
            schema.write_text("c0: numeric\nlabel: c1\n")
            message = (f"{table}: zero usable rows after dropping incomplete "
                       "ones (a usable row is 2 cells, none '' or '?')")
        else:
            table.write_text("a,a,y\n1,5,p\n2,6,q\n3,7,p\n")
            message = f"{table}: column 'a' repeats in the header"
        last = self._rejection(["ingest", "--dataset", dataset, "--schema",
                                str(schema), "--out-file",
                                str(tmp_path / "m.json")], capsys)
        assert last == f"banditbench ingest: error: {message}"

    def test_non_numeric_cell_names_file_and_column(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,kind\n1.0,x\nabc,y\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("a: numeric\nlabel: kind\n")
        last = self._rejection(
            ["ingest", "--dataset", f"csv:{csv_path}", "--schema", str(schema),
             "--out-file", str(tmp_path / "m.json")], capsys)
        assert last.endswith(f"{csv_path}: numeric column 'a': could not "
                             "convert string to float: 'abc'")

    @pytest.mark.parametrize("spec,form", [("idx:images.idx",
                                            "idx:<images>,<labels>"),
                                           ("csv:", "csv:<path>")])
    def test_spec_without_a_path_names_the_form(self, tmp_path, monkeypatch,
                                                capsys, spec, form):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "schema.txt").write_text("a: numeric\nlabel: kind\n")
        last = self._rejection(["ingest", "--dataset", spec, "--schema",
                                "schema.txt"], capsys)
        assert last.endswith(f"the form is {form}")
        assert repr(spec) in last

    @pytest.mark.parametrize("command", ["ingest", "run", "ntk"])
    def test_idx_of_zero_images_names_the_file(self, tmp_path, capsys,
                                               command):
        (tmp_path / "i").write_bytes(struct.pack(">IIII", 0x803, 0, 4, 4))
        (tmp_path / "l").write_bytes(struct.pack(">II", 0x801, 0))
        argv = [command, "--dataset", f"idx:{tmp_path / 'i'},{tmp_path / 'l'}"]
        if command == "ingest":
            argv += ["--out-file", str(tmp_path / "m.json")]
        last = self._rejection(argv, capsys)
        assert last.endswith(f"{tmp_path / 'i'}: the header says 0 images")

    def test_one_class_csv_is_no_bandit(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,kind\n1.0,x\n2.0,x\n0.5,x\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("a: numeric\nlabel: kind\n")
        dataset = ["--dataset", f"csv:{csv_path}", "--schema", str(schema)]
        last = self._rejection(["run", "--algo", "lin-ts", "--T", "3",
                                "--out", str(tmp_path / "out"), *dataset],
                               capsys)
        assert last.endswith(f"{csv_path}: 1 class; a bandit needs at least "
                             "2, one arm each")
        assert not (tmp_path / "out").exists()
        # the manifest describes the file, bandit or not
        assert main(["ingest", *dataset,
                     "--out-file", str(tmp_path / "m.json")]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["n_classes"] == 1


class TestZeroRowWarning:
    warning = "2 zero-feature rows replaced by the unit basis vector"

    @staticmethod
    def _dataset(tmp_path):
        """--dataset and --schema of a CSV with 2 all-zero rows among 5."""
        table = tmp_path / "t.csv"
        table.write_text("a,b,kind\n1.0,2.0,x\n0,0,y\n0.5,1,x\n0,0,x\n"
                         "3,1,y\n")
        schema = tmp_path / "schema.txt"
        schema.write_text("a: numeric\nb: numeric\nlabel: kind\n")
        return ["--dataset", f"csv:{table}", "--schema", str(schema)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_printed_once_per_command(self, tmp_path, command, threads):
        # the dataset's count, as its manifest records it, however many
        # episodes play and whichever rows they play
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "banditbench.cli", command,
             *self._dataset(tmp_path), "--algo", "uniform",
             "--T", "3", "--repeats", "2", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src,
                 "BANDITBENCH_THREADS": threads, "OPENBLAS_NUM_THREADS": "1"})
        assert done.stderr.splitlines().count(self.warning) == 1
        assert "zero-feature" not in done.stderr.replace(self.warning, "", 1)

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_printed_once_when_a_config_line_is_blamed(self, tmp_path, caplog,
                                                       capsys, command):
        # main replays the pre-run check over heads of the config file to
        # find the line to blame, and the replays do not warn again
        (tmp_path / "file").write_text("")
        config = tmp_path / "e.cfg"
        config.write_text(f"algo = uniform\nout = {tmp_path / 'file'}/sub\n")
        with pytest.raises(SystemExit) as info:
            main([command, *self._dataset(tmp_path), "--config", str(config),
                  "--T", "3", "--repeats", "2"])
        assert info.value.code == 2
        assert f"--config {config}: out: --out " in capsys.readouterr().err
        assert [r.getMessage() for r in caplog.records] == [self.warning]


class TestDivergenceMessage:
    # the overflow is reported by the error alone, not by numpy warnings,
    # which the test configuration turns into errors
    def test_diverging_run_exits_1_with_round_and_seed(self, tmp_path, capsys):
        args = ["run", "--train-mode", "gd", "--lr", "1e-3", "--T", "300",
                "--repeats", "1", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("banditbench: error: neural-ts on "
                              "synthetic-nonlinear, round ")
        assert "of 300, episode seed 0: training diverged" in err


class TestFailureMessagesQuoteTheSettings:
    """A failure message names a float setting by the shortest text that
    reads back as the same double, the value as typed."""

    @pytest.mark.parametrize("flags,quoted", [
        (["--algo", "neural-ts", "--width", "8", "--lambda", "1e-320",
          "--T", "5"], "reg=1e-320,"),
        (["--algo", "kernel-ts", "--dataset", "mushroom-like", "--lambda",
          "1.23456789e-300", "--T", "300"], "reg=1.23456789e-300,"),
        (["--train-mode", "gd", "--iters", "100", "--lr", "1.2345678e-3",
          "--T", "300"], "step_size=0.0012345678,")])
    def test_exits_1_quoting_the_value(self, tmp_path, capsys, flags, quoted):
        args = ["run", *flags, "--repeats", "1", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        assert quoted in capsys.readouterr().err


class TestDegenerateUpdateMessage:
    def test_lin_ts_exits_1_naming_only_its_remedy(self, tmp_path, capsys):
        # one feature value under two labels: every round's contexts are the
        # same two vectors, and at lambda 1e-20 the third update rounds U to
        # a singular matrix
        table = tmp_path / "same.csv"
        table.write_text("size,kind\n" + "1.0,a\n1.0,b\n" * 4)
        schema = tmp_path / "schema.txt"
        schema.write_text("size: numeric\nlabel: kind\n")
        args = ["run", "--algo", "lin-ts", "--dataset", f"csv:{table}",
                "--schema", str(schema), "--lambda", "1e-20", "--T", "8",
                "--repeats", "1", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"banditbench: error: lin-ts on csv:{table}, "
                              "round 3 of 8, episode seed 0: design matrix "
                              "lost positive definiteness")
        assert err.rstrip().endswith("; raise --lambda")
        assert "--posterior" not in err
        assert "Traceback" not in err


class TestSigmaOverflowMessage:
    def test_neural_ts_exits_1_with_round_seed_and_remedy(self, tmp_path,
                                                         capsys):
        # at lambda 1e-320 the diagonal posterior's g^2 / lambda overflows
        # in round 1
        out = tmp_path / "out"
        args = ["run", "--algo", "neural-ts", "--width", "8", "--lambda",
                "1e-320", "--T", "5", "--repeats", "1", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("banditbench: error: neural-ts on "
                              "synthetic-nonlinear, round 1 of 5, episode "
                              "seed 0: posterior scale is not finite")
        assert err.rstrip().endswith("; raise --lambda")
        assert not list(out.glob("trace_*"))


class TestThreadCap:
    def test_non_integer_exits_2_before_any_episode(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("BANDITBENCH_THREADS", "two")
        with pytest.raises(SystemExit) as info:
            main(run_args(tmp_path, "--T", "5"))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == ("banditbench run: error: "
                                        "BANDITBENCH_THREADS must be an "
                                        "integer, not 'two'")
        assert not (tmp_path / "out").exists()
