"""The README's Python examples, CLI commands and JSON configs run or read
as written, its flag table lists the parser's flags, and its table of
refused scenario fields lists each run's fixed fields."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from hetnetcode import cli, presets
from hetnetcode.config import ScenarioConfig, SweepSpec, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
COMMANDS = [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
            for line in block.splitlines() if line.startswith("hetnetcode ")]
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_json_configs_read(tmp_path):
    # each section through the one reader, as a command reads it
    assert JSON_BLOCKS
    classes = {"scenario": ScenarioConfig, "sweep": SweepSpec}
    for index, block in enumerate(JSON_BLOCKS):
        path = tmp_path / f"config{index}.json"
        path.write_text(block)
        sections = cli.load_config(str(path))
        assert sections
        for name, section in sections.items():
            config_from_dict(classes[name], section)


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {*cli.PRESETS, "gen-topology", "replay-trace"}


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_readme_cli_command_runs(tmp_path, argv):
    # a repeated flag takes its last value: one trial per sweep, output under tmp_path
    quick = ["--trials", "1"] if argv[0] in cli.PRESETS else []
    assert cli.main([*argv, *quick, "--out", str(tmp_path / "out")]) == 0


# flags that set no config field, so the flag table leaves them out
UNTABLED = {"--config", "-h", "--help"}
UNTABLED_ON = {"gen-topology": {"--out"},
               "replay-trace": {"--out", "--chain-hops", "--relays", "--link-rate"}}


def flag_table() -> set:
    """(command, flag) of every flag the README's flag table lists, a
    "sweeps" row standing for each preset."""
    text = README.read_text()
    table = text[text.index("| flag "):].split("\n\n", 1)[0].splitlines()[2:]
    pairs = set()
    for row in table:
        flags, _, commands = (cell.strip() for cell in row.strip("|").split("|"))
        names = cli.PRESETS if commands == "sweeps" else commands.split(", ")
        pairs |= {(name, flag) for name in names for flag in re.findall(r"--[a-z-]+", flags)}
    return pairs


def test_readme_flag_table_matches_the_parser():
    (subparsers,) = [a for a in cli.make_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    parsed = {(name, flag) for name, parser in subparsers.choices.items()
              for action in parser._actions for flag in action.option_strings
              if flag not in UNTABLED | UNTABLED_ON.get(name, set())}
    assert flag_table() == parsed


# every run, as the README's table of refused fields names it, and its argv
RUNS = {**{name: [name] for name in cli.PRESETS}, "gen-topology": ["gen-topology"],
        "replay-trace": ["replay-trace"],
        "replay-trace --chain-hops": ["replay-trace", "--chain-hops", "2"],
        "replay-trace --relays": ["replay-trace", "--relays", "2"]}


def refused_table() -> dict:
    """{run: the fields of every row of the README's table of refused fields
    that names it}, an "every sweep" row standing for each preset."""
    text = README.read_text()
    table = text[text.index("| run "):].split("\n\n", 1)[0].splitlines()[2:]
    refused = {run: set() for run in RUNS}
    for row in table:
        runs, fields = (cell.strip() for cell in row.strip("|").split("|"))
        names = cli.PRESETS if runs == "every sweep" else re.findall(r"`([^`]+)`", runs)
        for name in names:
            refused[name] |= set(re.findall(r"`(\w+)`", fields))
    return refused


class _Read(Exception):
    """Stops a command at its presets.scenario_config call."""


def test_readme_refused_fields_table_matches_each_runs_fixed_fields(monkeypatch):
    seen = {}

    def record(section, fixed=(), **defaults):
        seen[run] = fixed
        raise _Read

    monkeypatch.setattr(presets, "scenario_config", record)
    for run, argv in RUNS.items():
        with pytest.raises(_Read):
            cli.main(argv)
        assert len(set(seen[run])) == len(seen[run]), run
    assert refused_table() == {run: set(fixed) for run, fixed in seen.items()}
