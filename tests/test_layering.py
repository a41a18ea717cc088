"""The package's layering: config.py is the one home of every config class,
the JSON reader, the declared-type check and ConfigError, and imports
nothing from the package, so every other module can import it; NoPathError
lives beside its one raiser in simengine.py; routing.py imports nothing from
the package, so topology.py imports it, and no module imports another that
imports it back.  Every config class is frozen and checked when made, by
__init__ and by dataclasses.replace alike, so no module checks a config
again: no validate is defined or called.  In simengine.py the per-slot
credit rule is written once, in _tick.  Every single coded packet is
combined in one place, rlnc._combined, and the numpy kernel
gf256.weighted_row_sum serves the cellular batches (rlnc.coded_packets)
alone.  The reference engine and oracles.py share neither the codec nor the
routes with the program.  Every function, class and method of the package is
read by name in the package or named in README.md: none is there for the
tests alone."""

import ast
import dataclasses
import graphlib
import re
from pathlib import Path

import pytest

from hetnetcode.config import (
    ConfigError,
    ForwardPolicy,
    ScenarioConfig,
    SweepSpec,
    TopologyParams,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "hetnetcode"
README = SRC.parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent
CONFIG_NAMES = ("check_types", "declared_types", "finite_number", "config_from_dict",
                "TopologyParams", "ForwardPolicy", "ScenarioConfig", "SweepSpec", "ConfigError")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _package_imports(tree: ast.Module) -> set[str]:
    """The hetnetcode modules tree imports, by name within the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "hetnetcode":
                    continue
                module = module.removeprefix("hetnetcode").lstrip(".")
            if module:
                found.add(module)
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("hetnetcode.") for alias in node.names
                         if alias.name.startswith("hetnetcode."))
    return found


def _defined(tree: ast.Module) -> set[str]:
    """Every function and class name tree defines, at any depth, and every
    name its module level assigns."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_config_imports_nothing_from_the_package():
    assert _package_imports(_tree(SRC / "config.py")) == set()


def _homes(name: str) -> list[str]:
    return [path.name for path in sorted(SRC.glob("*.py")) if name in _defined(_tree(path))]


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_config_names_are_defined_in_config_only(name):
    assert _homes(name) == ["config.py"]


def test_no_path_error_is_defined_beside_its_raiser_only():
    assert _homes("NoPathError") == ["simengine.py"]


def test_routing_imports_nothing_from_the_package():
    assert _package_imports(_tree(SRC / "routing.py")) == set()


def test_the_package_imports_form_no_cycle():
    graph = {path.stem: _package_imports(_tree(path)) for path in SRC.glob("*.py")}
    # raises graphlib.CycleError, naming the cycle, if there is one
    graphlib.TopologicalSorter(graph).prepare()


def _attribute_uses(tree: ast.Module, attr: str) -> list[tuple[str, str]]:
    """(qualified name of the enclosing function or class, "Load" or
    "Store") of every .attr in tree; module level is ""."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                uses.append((scope, type(child.ctx).__name__))
            visit(child, scope)

    visit(tree, "")
    return uses


def test_the_credit_rule_is_written_once():
    # a credit's limit is read by the per-slot tick and by skip-ahead's
    # k-slot jump alone (the two places ROADMAP item 2 changes), and set
    # only when the credit is made
    tree = _tree(SRC / "simengine.py")
    uses = _attribute_uses(tree, "limit")
    reads = {scope for scope, ctx in uses if ctx == "Load"}
    assert "_tick" in reads and reads <= {"_tick", "_Session._skip_ahead"}
    assert {scope for scope, ctx in uses if ctx != "Load"} == {"_Credit.__init__"}
    credit = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Credit")
    assert "tick" not in {node.name for node in credit.body if isinstance(node, ast.FunctionDef)}


def test_one_combine_per_packet_and_the_numpy_kernel_for_batches_only():
    kernel_callers = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
                      for scope, _ in _attribute_uses(_tree(path), "weighted_row_sum")}
    assert kernel_callers == {("rlnc.py", "coded_packets")}
    combine_callers = {func.name for func in ast.walk(_tree(SRC / "rlnc.py"))
                       if isinstance(func, ast.FunctionDef)
                       for node in ast.walk(func)
                       if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_combined"}
    assert combine_callers == {"encode", "recode"}


# the program's codec and routes, and the tables and route table they keep
SHARED_MODULES = {"gf256", "rlnc", "routing"}
SHARED_NAMES = {"routes", "MUL_TABLE", "INV_TABLE"}


@pytest.mark.parametrize("name", ["reference_engine.py", "oracles.py"])
def test_the_references_share_no_codec_and_no_routes(name):
    """The reference engine, and oracles.py, the one home of the references
    that it and the oracle tests call, import nothing from the program's
    codec or routes and read no route table and no field table of the
    program's, so no fault there moves a reference along with the program."""
    tree = _tree(TESTS / name)
    assert _package_imports(tree) & SHARED_MODULES == set()
    reads = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert reads & (SHARED_MODULES | SHARED_NAMES) == set()


@pytest.mark.parametrize("cls", [TopologyParams, ForwardPolicy, ScenarioConfig, SweepSpec])
def test_config_classes_are_frozen(cls):
    assert dataclasses.is_dataclass(cls)
    config = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, dataclasses.fields(cls)[0].name, None)


@pytest.mark.parametrize("config, change", [
    (ScenarioConfig(), {"block_size": 0}),
    (TopologyParams(), {"backbone_fraction": 2.0}),
])
def test_replace_checks_the_new_config(config, change):
    with pytest.raises(ConfigError):
        dataclasses.replace(config, **change)


def test_no_module_defines_or_calls_validate():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            if defines and node.name == "validate":
                found.append(f"{path.name}:{node.lineno} defines validate")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "validate"):
                found.append(f"{path.name}:{node.lineno} calls .validate")
    assert found == []


def test_no_name_in_the_package_is_there_for_the_tests_alone():
    """Each module-level function and class, and each method of those
    classes but the dunders, is read by name somewhere in the package (a
    call, an attribute read or a decorator) or named in a code span of
    README.md, which documents the public codec and API."""
    trees = [_tree(path) for path in sorted(SRC.glob("*.py"))]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    spans = re.findall(r"`+([^`]+)`+", README.read_text(encoding="utf-8"))
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    surface = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                surface.append(node.name)
            if isinstance(node, ast.ClassDef):
                surface.extend(f"{node.name}.{method.name}" for method in node.body
                               if isinstance(method, ast.FunctionDef)
                               and not re.fullmatch(r"__\w+__", method.name))
    assert [name for name in surface if name.rpartition(".")[2] not in read | named] == []
