"""Every row of tests/rejected_inputs.py that no test in
tests/test_presets_cli.py runs, through cli.main, and every
`raise ConfigError(...)` in src/ matched by a row or named as one that no
CLI input reaches."""

import ast
import re
from pathlib import Path

import pytest

from hetnetcode import cli
from rejected_inputs import IN_CASES, ROWS, broken_through_main

TESTS = Path(__file__).resolve().parent
# (module, enclosing function, longest literal part of the message) of each
# site that no CLI input reaches -> the library test that raises it
LIBRARY_ONLY = {
    ("config", "config_from_dict", " settings must be an object"):
        "test_simengine.py::test_config_from_dict_needs_an_object",
    ("simengine", "__init__", "source and destination must differ"):
        "test_simengine.py::test_session_rejects_its_source_as_destination",
    ("topology", "place", "node_count must be positive"):
        "test_topology.py::test_generate_rejects_bad_params",
    ("topology", "chain_topology", "the chain is too long: hops * spacing must be finite"):
        "test_topology.py::test_chain_topology_refuses_a_last_node_at_infinity",
}


@pytest.mark.parametrize("row_id", [row[0] for row in ROWS if row[0] not in IN_CASES])
def test_rejected_input_exits_2_as_a_config_error(tmp_path, capsys, row_id):
    assert broken_through_main(cli.main, [row_id], tmp_path, capsys) == {}


def config_error_sites() -> dict:
    """{(module, enclosing function, longest literal part of the message):
    pattern} of every `raise ConfigError(message)` in src/; the pattern
    takes each value formatted into the message as any text."""
    sites = {}
    for path in sorted((TESTS.parent / "src" / "hetnetcode").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(func) if isinstance(func, ast.FunctionDef) else ():
                if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and ast.unparse(node.exc.func) == "ConfigError"):
                    continue
                (message,) = node.exc.args
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                texts = [p.value if isinstance(p, ast.Constant) else None for p in parts]
                key = (path.stem, func.name, max(filter(None, texts), key=len))
                sites[key] = "".join(".*" if t is None else re.escape(t) for t in texts)
    return sites


def test_every_config_error_is_a_row_or_library_only():
    assert len({row[0] for row in ROWS}) == len(ROWS)  # unique ids
    assert IN_CASES <= {row[0] for row in ROWS}
    sites = config_error_sites()
    assert set(LIBRARY_ONLY) <= set(sites)
    assert [key for key, pattern in sites.items() if key not in LIBRARY_ONLY
            and not any(re.search(pattern, row[3]) for row in ROWS)] == []
    for test in LIBRARY_ONLY.values():
        path, name = test.split("::")
        assert f"\ndef {name}(" in (TESTS / path).read_text(encoding="utf-8"), test
