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

GOLDEN = {
    "rate-sweep": "2f6c36875ef41b6925c00ae20b104c57f7a134fcbc402f4e894df230c1c942e5",
    "rate-sweep-low": "8521cdabf222329a6fe8e4061e70eeff6aedef44e7a14f0e90497a60480138b4",
    "load-sweep": "c312103890335ffad032621c230296c5d188c47d197edf3fdfef2a8e0f6451b9",
    "infra-sweep": "48747341ffee72a7239973526ca3557584543be99f6c721d0712805ec20daaa1",
    "topo1": "a68e7028256eaecc4b434c7349babdd0b3e6c2addfc368ba8af0ff8d9a849edf",
    "topo2": "ffe528a964cb979f74cd1d9b114dbd0e75e598f102088ac693064c91243972a6",
    "replay-chain": "a825f099b5306c9c188087322eb95e842eb1ea4c02d64d782087b7e9fa3094c3",
    "replay-relay-cellular-only":
        "ca616eceedc31ea20c262ed33ac032bbf10b23264a3c89a0b7f908b0b11c8c86",
    "replay-relay-round-robin": "1041e59e517c051c40f41319739127a197a9a24acd778727e9106dca280efe0c",
    "replay-relay-duplicate": "3973fcd7ad12f2ed66d3c8916a005d6f33482fae945c8c5eeee081dbd66d8e9d",
    "replay-relay-probabilistic":
        "c490e7b071892e318110997b106d0d8bd2117b548c98417a931593360f4a8f96",
    "replay-relays": "b48f093e85b5d1e26286db74c6182d2593383ce8b1b19fed8dab44bae4bac909",
    "replay-cell-bus": "c099eb3c39a536029dff6d2482fe56a0dc834ccff0d65be96b691433539dfb8b",
    "replay-cell-bus-destination":
        "85582b55c9ccc0a878db2a44a178bf99041fab59d716018854e7ad933fe1e2de",
    "replay-cell-bus-probabilistic":
        "0b751cc888ce05ac2c0b96ed07635a46b6885f8bdad507e6291099c293414c01",
    "replay-cell-bus-slow-relays":
        "edb0e36d91dcca8839060a2ba0c993a3c19b19ce977fb597b72ced67114c2606",
    "replay-relays-6-slow": "8eee18b0585f5ff6e4eb358369ecd66a1f5db79994866c1f4a3be11806bf2394",
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
