"""The README's Python examples and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import pytest

from hetnetcode import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
COMMANDS = [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
            for line in block.splitlines() if line.startswith("hetnetcode ")]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {*cli.PRESETS, "gen-topology", "replay-trace"}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_cli_command_runs(tmp_path, argv):
    # a repeated flag takes its last value: one trial per sweep, output under tmp_path
    quick = ["--trials", "1"] if argv[0] in cli.PRESETS else []
    assert cli.main([*argv, *quick, "--out", str(tmp_path / "out")]) == 0
