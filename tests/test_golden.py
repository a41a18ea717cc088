"""Golden outputs: the exact bytes each preset, trace and topology dump
emits, checked in as tests/golden/<case>.csv beside the paper-scale figures
in tests/paper_scale/.

A refactor that keeps these bytes keeps every RNG draw and every CSV byte.
Re-record only on purpose, by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

It rewrites tests/golden/ and the five tests/paper_scale/ CSVs (default
specs, one worker) and prints each file it changed.  Then
`git diff tests/golden tests/paper_scale` shows the rows that moved; say
which and why in CHANGES.md.
"""

import itertools
import json
import tempfile
from pathlib import Path

import pytest

from hetnetcode import cli
from test_paper_scale import FIGURES

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

SMALL = {"node_count": 250, "cell_radius": 400.0}
CHAIN3 = ["replay-trace", "--chain-hops", "3"]
# random cell with a backbone bus: cellular, radio and bus packets all land
BUS_CELL = dict(SMALL, backbone_fraction=0.2)


def _relays_on(policy, **fields):
    """Chain scenario whose relays also forward on their cellular uplink."""
    return {"link_rate_override": 0.5, "relay_policy": policy, **fields}


# name -> (scenario overrides, argv); infra-sweep reaches k/n = 1.0, so the
# backbone bus carries traffic on every node of that topology
CASES = {
    "rate-sweep": (SMALL, ["rate-sweep", "--values", "0.5", "2.0", "--trials", "2"]),
    # combined sessions at non-dyadic cellular rates
    "rate-sweep-low": (SMALL, ["rate-sweep", "--values", "0.1", "0.3", "--trials", "2"]),
    "load-sweep": (SMALL, ["load-sweep", "--values", "1", "4", "--trials", "2"]),
    "infra-sweep": (SMALL, ["infra-sweep", "--values", "0.1", "1.0", "--trials", "2"]),
    "topo1": ({}, ["topo1", "--values", "0.5", "1.0", "--trials", "2"]),
    "topo2": ({}, ["topo2", "--values", "1", "2", "--trials", "2"]),
    "replay-chain": ({}, CHAIN3),
    "replay-relay-cellular-only": (_relays_on("cellular-only"), CHAIN3),
    "replay-relay-round-robin": (_relays_on("round-robin"), CHAIN3),
    "replay-relay-duplicate": (_relays_on("duplicate"), CHAIN3),
    "replay-relay-probabilistic": (_relays_on("probabilistic", relay_p=0.3), CHAIN3),
    "replay-relays": ({}, ["replay-trace", "--relays", "3"]),
    # the bus carries packets between relays, which forward them to the
    # destination by radio; with the wider range the destination is on the bus
    "replay-cell-bus": (BUS_CELL, ["replay-trace"]),
    "replay-cell-bus-destination": (dict(BUS_CELL, wifi_range=120.0), ["replay-trace"]),
    # relays on the bus also send on cellular, each picking its interfaces
    # before any relay recodes
    "replay-cell-bus-probabilistic": (
        dict(BUS_CELL, relay_policy="probabilistic", relay_p=0.3),
        ["replay-trace"]),
    # relays slower than one wired send per slot: a relay that another relay
    # creates in the middle of the wired loop must not tick in that slot
    "replay-cell-bus-slow-relays": (dict(BUS_CELL, wired_relay_rate=0.3), ["replay-trace"]),
    # the source picks among six wired hops on slow access links
    "replay-relays-6-slow": ({}, ["replay-trace", "--relays", "6", "--link-rate", "12"]),
    "gen-topology": ({"backbone_fraction": 0.2}, ["gen-topology", "--nodes", "40"]),
}
PRESET_CASES = ("rate-sweep", "load-sweep", "infra-sweep", "topo1", "topo2")


def _output(tmp_path, name, *extra) -> bytes:
    scenario, argv = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--seed", "3", "--config", str(cfg),
                     "--out", str(out), *extra]) == 0
    return out.read_bytes()


def first_difference(got: bytes, want: bytes) -> str:
    """The first line at which two different outputs differ, with both
    sides; a line keeps its newline, so a missing last newline shows."""
    pairs = itertools.zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    line, (ours, theirs) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    return f"line {line} differs:\n  got:  {_shown(ours)}\n  want: {_shown(theirs)}"


def _shown(line: bytes | None) -> str:
    return "end of file" if line is None else repr(line)


def _check(name, got: bytes):
    path = GOLDEN / f"{name}.csv"
    want = path.read_bytes()
    if got != want:
        where = path.relative_to(TESTS.parent)
        pytest.fail(f"{where} {first_difference(got, want)}", pytrace=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(tmp_path, name):
    _check(name, _output(tmp_path, name))


@pytest.mark.parametrize("name", PRESET_CASES)
def test_worker_pool_matches_serial(tmp_path, name):
    _check(name, _output(tmp_path, name, "--workers", "2"))


def test_each_store_holds_exactly_its_cases():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(f"{n}.csv" for n in CASES)
    assert sorted(path.name for path in FIGURES.iterdir()) == sorted(
        f"{n}.csv" for n in PRESET_CASES)


WANT = b"x,y\n1,2\n3,4\n"


@pytest.mark.parametrize("got, message", [
    (b"x,y\n1,2\n3,5\n", "line 3 differs:\n  got:  b'3,5\\n'\n  want: b'3,4\\n'"),
    (b"x,y\n1,2\n3,4\n5,6\n", "line 4 differs:\n  got:  b'5,6\\n'\n  want: end of file"),
    (b"x,y\n1,2\n", "line 3 differs:\n  got:  end of file\n  want: b'3,4\\n'"),
    (b"x,y\n1,2\n3,4", "line 3 differs:\n  got:  b'3,4'\n  want: b'3,4\\n'"),
], ids=["changed-row", "extra-last-line", "missing-last-line", "no-trailing-newline"])
def test_a_mismatch_names_its_first_differing_line(got, message):
    assert first_difference(got, WANT) == message


def record() -> list[Path]:
    """Rewrite every golden file and paper-scale figure; returns the paths
    whose bytes changed."""
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {GOLDEN / f"{name}.csv": _output(Path(tmp), name) for name in CASES}
        for name in PRESET_CASES:
            out = Path(tmp) / f"{name}.csv"
            assert cli.main([name, "--workers", "1", "--out", str(out)]) == 0
            outputs[FIGURES / f"{name}.csv"] = out.read_bytes()
    changed = [path for path, data in outputs.items()
               if not path.exists() or path.read_bytes() != data]
    for path in changed:
        path.write_bytes(outputs[path])
    return changed


if __name__ == "__main__":
    changed = record()
    for path in changed:
        print(path.relative_to(TESTS.parent))
    print(f"{len(changed)} files changed")
