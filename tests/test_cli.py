import json
import struct

import pytest

from banditbench import cli
from banditbench.cli import main, read_config_file


def run_args(tmp_path, *extra):
    return ["run", "--dataset", "synthetic-nonlinear", "--algo", "uniform",
            "--T", "20", "--repeats", "2", "--serial",
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
                "--serial", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "neural-ts" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = uniform\nT = 30\nrepeats = 1\n"
                       "dataset = synthetic-nonlinear\n")
        args = ["run", "--config", str(cfg), "--T", "10", "--serial",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=10)" in capsys.readouterr().out

    def test_stop_train_zero_accepted(self, tmp_path, capsys):
        args = ["run", "--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                "--T", "5", "--repeats", "1", "--width", "4", "--iters", "2",
                "--stop-train", "0", "--serial", "--out", str(tmp_path / "out")]
        assert main(args) == 0


class TestGrid:
    def test_grid_table_printed(self, tmp_path, capsys):
        args = ["grid", "--dataset", "synthetic-nonlinear", "--algo", "lin-ts",
                "--T", "15", "--repeats", "1", "--serial",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.count("regret") >= 4  # 3 nu cells + best line
        assert (tmp_path / "out" / "summary.csv").exists()


class TestNtk:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["ntk", "--n", "10", "--raw-dim", "6", "--depth", "2",
                "--T", "100", "--K", "2", "--out-file", str(out)]
        assert main(args) == 0
        report = json.loads(out.read_text())
        for key in ("eff_dim", "spectrum", "H", "B", "nu_theory",
                    "width_condition", "min_eigenvalue"):
            assert key in report
        assert report["n_contexts"] == 10
        assert len(report["spectrum"]) == 10

    def test_subsampling_cap(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["ntk", "--n", "30", "--max-contexts", "12",
                "--out-file", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["n_contexts"] == 12


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

    def test_unknown_dataset(self, tmp_path):
        assert main(["ingest", "--dataset", "nope",
                     "--out-file", str(tmp_path / "m.json")]) == 2


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# comment\nalgo = neural-ts\nnu = 0.01\n")
        assert read_config_file(str(cfg)) == {"algo": "neural-ts", "nu": "0.01"}

    def test_malformed(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ValueError):
            read_config_file(str(cfg))


class TestDefaultsTrainStably:
    """The README's commands run with their defaults past the rounds where
    the former defaults (GD x100 at lr 1e-3) raised TrainingDiverged."""

    def test_defaults(self, tmp_path, capsys):
        args = ["run", "--T", "150", "--repeats", "1", "--serial",
                "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=150)" in capsys.readouterr().out

    def test_readme_run_example(self, tmp_path, capsys):
        args = ["run", "--dataset", "synthetic-nonlinear", "--algo", "neural-ts",
                "--T", "450", "--repeats", "1", "--width", "32",
                "--posterior", "diag", "--serial", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        assert "(T=450)" in capsys.readouterr().out


class TestConfigKeysAreFlags:
    """Config-file keys are the long flag names and go through the same
    parser as the flags: a key takes effect or the run stops with exit 2."""

    def write(self, tmp_path, *lines):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo = uniform\nrepeats = 1\n" + "\n".join(lines) + "\n")
        return ["run", "--config", str(cfg), "--serial",
                "--out", str(tmp_path / "out")]

    def test_horizon_from_config_without_flag(self, tmp_path, capsys):
        assert main(self.write(tmp_path, "T = 30")) == 0
        assert "(T=30)" in capsys.readouterr().out

    @pytest.mark.parametrize("value,duplicate", [("true", False),
                                                 ("false", True)])
    def test_switch_values(self, tmp_path, monkeypatch, value, duplicate):
        seen = []
        real = cli.run_repeats

        def spy(config, parallel=True):
            seen.append(config)
            return real(config, parallel=parallel)

        monkeypatch.setattr(cli, "run_repeats", spy)
        assert main(self.write(tmp_path, "T = 5",
                               f"no-duplicate = {value}")) == 0
        assert [config.duplicate for config in seen] == [duplicate]

    @pytest.mark.parametrize("line,error", [
        ("t = 30", "unrecognized arguments: --t=30"),
        ("lamda = 5", "unrecognized arguments: --lamda=5"),
        ("stop_trian = 5", "unrecognized arguments: --stop-trian=5"),
        ("posterior = ful", "argument --posterior: invalid choice: 'ful'"),
        ("horizon = 30", "unrecognized arguments: --horizon=30")])
    def test_bad_key_or_value_exits_2(self, tmp_path, capsys, line, error):
        with pytest.raises(SystemExit) as info:
            main(self.write(tmp_path, "T = 5", line))
        assert info.value.code == 2
        # the error names the file and the key as the file writes it
        key = line.partition("=")[0].strip()
        assert (f"banditbench run: error: --config {tmp_path / 'exp.cfg'}: "
                f"{key}: {error}") in capsys.readouterr().err.splitlines()[-1]

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
        assert main(["ingest", "--dataset", "csv:x",
                     "--out-file", str(tmp_path / "m.json")]) == 2
        assert "schema" in capsys.readouterr().err


class TestDivergenceMessage:
    # the overflow is reported by the error alone, not by numpy warnings
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_1_with_round_and_seed(self, tmp_path, capsys):
        args = ["run", "--train-mode", "gd", "--lr", "1e-3", "--T", "300",
                "--repeats", "1", "--serial", "--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("banditbench: error: neural-ts on "
                              "synthetic-nonlinear, round ")
        assert "of 300, episode seed 0: training diverged" in err
