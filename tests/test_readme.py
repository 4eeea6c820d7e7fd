"""Every `banditbench` command in the README's CLI block works with its
defaults.  run and grid go as far as the check before round 1 (their
episodes are covered elsewhere); ntk and ingest run to completion, in a
directory that holds the data.csv and schema.txt the ingest example names."""

import json
import pathlib
import re
import shlex

import pytest

from banditbench import cli, data

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", text, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("banditbench ")]


COMMANDS = readme_commands()


def test_the_block_names_every_subcommand():
    assert sorted(argv[0] for argv in COMMANDS) == ["grid", "ingest", "ntk",
                                                    "run"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_works(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(
        "size,color,kind\n1.0,red,a\n2.0,blue,b\n0.5,red,b\n")
    (tmp_path / "schema.txt").write_text(
        "size: numeric\ncolor: categorical\nlabel: kind\n")
    started = []
    for name in ("cmd_run", "cmd_grid"):
        monkeypatch.setattr(cli, name,
                            lambda args, inputs: started.append(inputs) or 0)
    assert cli.main(argv) == 0
    if argv[0] in ("run", "grid"):
        [inputs] = started
        experiment = inputs[0] if argv[0] == "grid" else inputs  # grid: cells
        assert experiment.horizon == int(argv[argv.index("--T") + 1])
    elif argv[0] == "ntk":
        out = tmp_path / argv[argv.index("--out-file") + 1]
        report = json.loads(out.read_text())
        assert report["n_contexts"] > 0
        # the kernel matrix grows with the square of --n; the report holds
        # its spectrum only
        assert "H" not in report
        assert out.stat().st_size < 64 * 1024
    else:
        assert json.loads(capsys.readouterr().out)["rows"] == 3
        assert (tmp_path / "manifest.json").exists()


def parser_options(capsys) -> set[str]:
    """Every --flag that some subcommand's --help lists."""
    options = set()
    for command in ("run", "grid", "ntk", "ingest"):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        options |= set(re.findall(r"--[A-Za-z][\w-]*", text))
    return options


def test_every_backticked_flag_is_an_option(capsys):
    named = set(re.findall(r"`(--[A-Za-z][\w-]*)", README.read_text()))
    assert named - parser_options(capsys) == set()


def test_schema_example_parses(tmp_path):
    block = re.search(r"`--schema` file.*?```text\n(.*?)```", README.read_text(),
                      re.S).group(1)
    path = tmp_path / "schema.txt"
    path.write_text(block)
    assert data.parse_schema(str(path)) == (
        {"size": "numeric", "color": "categorical"}, "kind")
