"""Golden digests: the exact bytes each preset, trace and topology dump emits.

A refactor that keeps these digests keeps every RNG draw and every CSV
byte.  Re-record a digest only on purpose, and say which bytes changed and
why in CHANGES.md.
"""

import hashlib
import json

import pytest

from hetnetcode import cli

SMALL = {"node_count": 250, "cell_radius": 400.0}

# name -> (scenario overrides, argv); infra-sweep reaches k/n = 1.0, so the
# backbone bus carries traffic on every node of that topology
CASES = {
    "rate-sweep": (SMALL, ["rate-sweep", "--values", "0.5", "2.0", "--trials", "2"]),
    "load-sweep": (SMALL, ["load-sweep", "--values", "1", "4", "--trials", "2"]),
    "infra-sweep": (SMALL, ["infra-sweep", "--values", "0.1", "1.0", "--trials", "2"]),
    "topo1": ({}, ["topo1", "--values", "0.5", "1.0", "--trials", "2"]),
    "topo2": ({}, ["topo2", "--values", "1", "2", "--trials", "2"]),
    "replay-chain": ({}, ["replay-trace", "--chain-hops", "3"]),
    "replay-relays": ({}, ["replay-trace", "--relays", "3"]),
    "gen-topology": ({"backbone_fraction": 0.2}, ["gen-topology", "--nodes", "40"]),
}
PRESET_CASES = ("rate-sweep", "load-sweep", "infra-sweep", "topo1", "topo2")

GOLDEN = {
    "rate-sweep": "2f6c36875ef41b6925c00ae20b104c57f7a134fcbc402f4e894df230c1c942e5",
    "load-sweep": "c312103890335ffad032621c230296c5d188c47d197edf3fdfef2a8e0f6451b9",
    "infra-sweep": "48747341ffee72a7239973526ca3557584543be99f6c721d0712805ec20daaa1",
    "topo1": "a68e7028256eaecc4b434c7349babdd0b3e6c2addfc368ba8af0ff8d9a849edf",
    "topo2": "ffe528a964cb979f74cd1d9b114dbd0e75e598f102088ac693064c91243972a6",
    "replay-chain": "a825f099b5306c9c188087322eb95e842eb1ea4c02d64d782087b7e9fa3094c3",
    "replay-relays": "b48f093e85b5d1e26286db74c6182d2593383ce8b1b19fed8dab44bae4bac909",
    "gen-topology": "e77c49851d1b5bf3e4f32312ca54960ab981c970a9cdc6cf744c7cca059cdacc",
}


def _digest(tmp_path, name, *extra):
    scenario, argv = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--seed", "3", "--config", str(cfg),
                     "--out", str(out), *extra]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(tmp_path, name):
    assert _digest(tmp_path, name) == GOLDEN[name]


@pytest.mark.parametrize("name", PRESET_CASES)
def test_worker_pool_matches_serial(tmp_path, name):
    assert _digest(tmp_path, name, "--workers", "2") == GOLDEN[name]
