"""Every input the CLI rejects as a config error, and a runner of them all
through the installed console script: `python tests/rejected_inputs.py`
prints each row that breaks the contract and exits 1 if any does.

A row is (id, argv, config, fragment); config is None, a JSON value for the
--config file, or the file's bytes.  Every row must exit 2 with nothing on
stdout and stderr that starts with "config error: ", contains the fragment
and names no Python type.  pytest does not collect this file; tier-1 runs
every row through cli.main, in tests/test_rejected_inputs.py or as a case
of a rejection test in tests/test_presets_cli.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOO_LARGE = ("cell_radius / wifi_range is too large: the cells must span fewer than 2**31 "
             "WiFi ranges, and their squared span be finite")
TOO_SMALL = ("cell_radius is too small: it must be at least 2**-510, so that squared "
             "distances in the cells are normal floats")
TIERS = ("rate_tiers must be a non-empty list of [bound, fraction] pairs of finite numbers, "
         "with positive fractions")
NOT_JSON = ".json is not a readable UTF-8 JSON file: "
POSITIVE = "cell_radius and wifi_range must be positive"
RATIO, SEED = "rate ratios must be positive", "seed must be >= 0"
TRIALS, VALUES = "trials must lie in [1, 1000003]", "sweep values must be finite numbers"
ONE = {"values": [0.5], "trials": 1}
SWEEP, SWEEP1 = "rate-sweep", "rate-sweep --values 0.5 --trials 1"
CHAIN, STAR = "replay-trace --chain-hops 2", "replay-trace --relays 2"
REFUSED = "the scenario section may not set {}, which this run sets itself or never reads"
# the fields a run refuses, and a valid value of each
RATE_SET = ("link_rate_override", "r_cell")
CHAIN_SET = ("node_count", "min_hops", "backbone_fraction", "backbone_rate", "wired_relay_rate",
             "cell_radius", "rate_tiers", "wifi_range")
STAR_SET = (*CHAIN_SET, "cellular_enabled", "delta", "r_cell", "link_rate_override",
            "users_per_cell", "loading_mode")
SIZE = "node_count must be a 64-bit integer"
REFUSABLE = {"seed": 1, "link_rate_override": 0.3, "r_cell": 0.3, "users_per_cell": 4,
             "backbone_fraction": 0.5, "node_count": 40, "min_hops": 3, "backbone_rate": 3.0,
             "wired_relay_rate": 0.2, "cell_radius": 300.0, "rate_tiers": [[1.0, 0.5]],
             "cellular_enabled": False, "wifi_range": 50.0, "delta": 0.5,
             "loading_mode": "equal-time"}

ROWS = [
    # flags, each checked like the config field it sets
    *((name, argv, None, fragment) for name, argv, fragment in (
        ("users-1.5", "load-sweep --values 1.5 --trials 1",
         "users_per_cell values must be whole numbers >= 1"),
        ("relays-2.5", "topo2 --values 2.5 --trials 1", "relay counts must be whole numbers >= 1"),
        ("value-nan", "rate-sweep --values nan --trials 1", VALUES),
        ("ratio-nan", "load-sweep --values 1 --ratio nan --trials 1", RATIO),
        ("ratio-inf", "infra-sweep --values 0.5 --ratio inf --trials 1",
         "r_cell must be a finite number"),
        ("load-sweep-ratio-0", "load-sweep --ratio 0 --trials 1", RATIO),
        ("infra-sweep-ratio--1", "infra-sweep --ratio -1 --trials 1", RATIO),
        ("rate-sweep-value-0", "rate-sweep --values 0 --trials 1", RATIO),
        ("topo1-value-0", "topo1 --values 0 --trials 1", RATIO),
        ("k-over-n-1.5", "infra-sweep --values 1.5 --trials 1", "k/n values must lie in (0, 1]"),
        ("trials-1000004", "rate-sweep --trials 1000004", TRIALS),
        ("workers-0", "rate-sweep --workers 0 --trials 1", "workers must be >= 1"),
        ("proc-delay--1", "topo1 --proc-delay -1 --trials 1", "delays must be >= 0"),
        ("nodes-1", "gen-topology --nodes 1", "need at least a source and a destination"),
        ("link-rate-inf", f"{STAR} --link-rate inf", "link capacity must be positive and finite"),
        ("chain-and-star", f"{CHAIN} --relays 2",
         "--chain-hops and --relays are mutually exclusive"),
        ("link-rate-without-relays", f"{CHAIN} --link-rate 12",
         "--link-rate sets the access links of --relays, so it needs --relays"),
        ("chain-hops-0", "replay-trace --chain-hops 0", "need at least one hop"),
        ("relays-0", "replay-trace --relays 0", "need at least one relay"),
        # a testbed's node_count is sized before any node is built
        ("chain-hops-10**400", f"replay-trace --chain-hops {10**400}", SIZE),
        ("relays-10**400", f"replay-trace --relays {10**400}", SIZE),
        ("topo2-relays-1e300", "topo2 --values 1e300 --trials 1", SIZE),
        ("rate-sweep-seed--1", f"{SWEEP1} --seed -1", SEED),
        ("topo2-seed--2", "topo2 --values 1 --trials 1 --seed -2", SEED),
        ("replay-trace-seed--3", "replay-trace --seed -3 --chain-hops 2", SEED),
        ("gen-topology-seed--1", "gen-topology --seed -1 --nodes 5", SEED))),
    # files that hold no config; the last two have an int longer than Python
    # reads and lists nested deeper than its recursion limit
    ("not-json", SWEEP, b'{"sweep": {trials: 1}}', NOT_JSON + "Expecting property name"),
    ("not-utf-8", SWEEP, b'{"scenario": {"loading_mode": "\xe9qual-rate"}}',
     NOT_JSON + "'utf-8' codec can't decode"),
    ("r_cell-10**5000", SWEEP, b'{"scenario": {"r_cell": 1' + b"0" * 5000 + b"}}",
     NOT_JSON + "Exceeds the limit"),
    ("nested-too-deep", SWEEP, b'{"sweep": ' + b"[" * 100000 + b"]" * 100000 + b"}",
     NOT_JSON + "maximum recursion depth exceeded"),
    ("file-a-list", SWEEP, [1], "config file must contain a JSON object"),
    ("section-bogus", SWEEP, {"bogus": {}}, "unknown config sections: ['bogus']"),
    ("sweep-a-list", SWEEP, {"sweep": [1]}, "the sweep section must be an object"),
    ("scenario-5", SWEEP, {"scenario": 5, "sweep": ONE}, "the scenario section must be an object"),
    ("scenario-in-sweep", SWEEP, {"sweep": dict(ONE, scenario={})},
     "the scenario is a section of its own, not a sweep field"),
    # sweep sections; an int of 401 digits has no finite float value and no
    # int64 one, and 2**62 trials would build as many tasks before a session
    ("sweep-seed--4", SWEEP1, {"sweep": {"seed": -4}}, SEED),
    ("sweep-bogus", SWEEP, {"sweep": dict(ONE, bogus=1)}, "unknown SweepSpec field 'bogus'"),
    ("trials-0", SWEEP, {"sweep": {"trials": 0}}, TRIALS),
    ("trials-x", SWEEP, {"sweep": {"trials": "x"}}, "trials must be an integer, not 'x'"),
    ("file-trials-1000004", SWEEP, {"sweep": {"trials": 1000004}}, TRIALS),
    ("trials-2**62", SWEEP, {"sweep": {"trials": 2**62}}, TRIALS),
    ("values-ab", SWEEP, {"sweep": {"values": "ab"}}, "values must be a list or null, not 'ab'"),
    ("values-empty", SWEEP, {"sweep": {"values": []}}, "explicit sweep values must be non-empty"),
    ("values-true", SWEEP, {"sweep": {"values": [0.5, True], "trials": 1}}, VALUES),
    ("values-nan", SWEEP, {"sweep": {"values": [0.5, float("nan")], "trials": 1}}, VALUES),
    ("values-nested", SWEEP, {"sweep": {"values": [[0.5]], "trials": 1}}, VALUES),
    ("values-10**400", SWEEP, {"sweep": {"values": [10**400], "trials": 1}}, VALUES),
    ("workers-1.5", SWEEP, {"sweep": dict(ONE, workers=1.5)},
     "workers must be an integer, not 1.5"),
    # a file that names a former sweep-range key fails loudly, never ignored
    ("param_step-unknown", SWEEP, {"sweep": dict(ONE, param_step=0.1)},
     "unknown SweepSpec field 'param_step'"),
    ("out-3", SWEEP, {"sweep": dict(ONE, out=3)}, "out must be a string or null, not 3"),
    # a sweep seeds its trials from the sweep section, and the cellular-only
    # baseline needs the cellular interface
    ("sweep-scenario-seed", SWEEP1, {"scenario": {"seed": 12345}}, REFUSED.format("seed")),
    ("sweep-cellular-disabled", SWEEP1, {"scenario": {"cellular_enabled": False}},
     "compare_modes compares against the cellular interface, which is disabled"),
    # scenario sections; every rate is in packets per slot and a session
    # keeps no byte count, so r_wifi and payload_bytes name no field
    *((f"field-{key}", SWEEP, {"scenario": {key: value}}, f"unknown ScenarioConfig field {key!r}")
      for key, value in (("definitely_not_a_field", 1), ("r_wifi", 2.0), ("payload_bytes", 1400))),
    *((f"{key}-{name}", SWEEP, {"scenario": {key: value}, "sweep": ONE}, fragment)
      for key, name, value, fragment in (
          ("r_cell", "10**400", 10**400, "r_cell must be a finite number"),
          ("block_size", "10**400", 10**400, "block_size must be a 64-bit integer"),
          ("buffer_capacity", "2**63", 2**63, "buffer_capacity must be a 64-bit integer"))),
    ("rate-sweep-cell_radius-1e308", SWEEP, {"scenario": {"cell_radius": 1e308}}, TOO_LARGE),
    ("scenario-seed--4", CHAIN, {"scenario": {"seed": -4}}, SEED),
    *((f"{key}-{value}", CHAIN, {"scenario": {key: value}}, fragment) for key, value, fragment in (
        ("loading_mode", "bogus", "unknown loading mode 'bogus'"),
        ("r_cell", 0, "rates must be positive"), ("delta", -1, "delta must be non-negative"),
        ("block_size", 0, "block_size must be >= 1"),
        ("buffer_capacity", 0, "buffer_capacity must be >= 1"),
        ("link_rate_override", -1, "link_rate_override must be >= 0"),
        ("users_per_cell", 0, "users_per_cell must be >= 1"),
        ("slot_budget", 0, "slot_budget must be >= 1"),
        ("block_target", 0, "block_target must be >= 1"),
        ("wired_relay_rate", 0, "wired_relay_rate must be positive"))),
    *((f"policy-{name}", CHAIN, {"scenario": scenario}, fragment)
      for name, scenario, fragment in (
          ("mode-bogus", {"relay_policy": "bogus"}, "unknown relay policy 'bogus'"),
          ("p-1.5", {"relay_policy": "probabilistic", "relay_p": 1.5},
           "relay_p must lie in [0, 1]"))),
    # the nested policy object of older config files, and its mode "both",
    # name no relay policy, so such a file exits 2 rather than run a default
    ("relay_policy-both", CHAIN, {"scenario": {"relay_policy": "both"}},
     "unknown relay policy 'both'"),
    ("relay_policy-object", CHAIN,
     {"scenario": {"relay_policy": {"mode": "wifi-only", "both_mode": "duplicate", "p": 0.9}}},
     "relay_policy must be a string, not {'mode': 'wifi-only', 'both_mode': 'duplicate', "
     "'p': 0.9}"),
    # every field a run sets itself or never reads, which its scenario section
    # may not set, named in the run's order
    *((f"refuses-{run}", argv, {"scenario": {name: REFUSABLE[name] for name in fields}},
       REFUSED.format(", ".join(fields)))
      for run, argv, fields in (
          ("rate-sweep", SWEEP1, ("seed", *RATE_SET)),
          ("load-sweep", "load-sweep --values 1 --trials 1", ("seed", "users_per_cell")),
          ("infra-sweep", "infra-sweep --values 0.5 --trials 1", ("seed", "backbone_fraction")),
          ("topo1", "topo1 --values 0.5 --trials 1", ("seed", *RATE_SET, *CHAIN_SET)),
          ("topo2", "topo2 --values 1 --trials 1", ("seed", *STAR_SET)),
          ("chain", CHAIN, CHAIN_SET), ("star", STAR, STAR_SET))),
    # the relay star refuses every geometry field, but checks it first
    ("star-wifi_range--1", STAR, {"scenario": {"wifi_range": -1}}, POSITIVE),
    ("star-cell_radius-0", STAR, {"scenario": {"delta": -1, "cell_radius": 0}}, POSITIVE),
    ("star-backbone_fraction-2", STAR, {"scenario": {"backbone_fraction": 2.0}},
     "backbone_fraction must be in [0, 1]"),
    # the chain reads the same at every WiFi range, so it refuses one, even
    # one at which its last node would lie at an infinite x
    ("chain-wifi_range-1e308", CHAIN, {"scenario": {"wifi_range": 1e308}},
     REFUSED.format("wifi_range")),
    # cells whose bounding box overflows numpy's uniform draw or its squared
    # distances, that span too many WiFi ranges for int64 bucket codes, or
    # whose squared distances underflow
    *((f"cells-{name}", "gen-topology --nodes 50", {"scenario": scenario}, fragment)
      for name, scenario, fragment in (
          ("1e308", {"cell_radius": 1e308}, TOO_LARGE),
          ("1e200", {"cell_radius": 1e200}, TOO_LARGE),
          ("wifi_range-1e-300", {"wifi_range": 1e-300}, TOO_LARGE),
          ("1e-200", {"cell_radius": 1e-200, "wifi_range": 1e-201}, TOO_SMALL))),
    # bad scenario values through a chain replay and a one-point rate sweep; a
    # min_hops of 0 would let a session pick its source as its destination
    *((f"{form}-{name}", argv, {"scenario": scenario}, fragment)
      for form, argv in (("chain", "replay-trace --chain-hops 3"), ("sweep", SWEEP1))
      for name, scenario, fragment in (
          ("duplicate-without-cellular",
           {"relay_policy": "duplicate", "cellular_enabled": False},
           "relay policy 'duplicate' needs the cellular interface, which is disabled"),
          ("node_count-x", {"node_count": "x"}, "node_count must be an integer, not 'x'"),
          ("block_size-2.5", {"block_size": 2.5}, "block_size must be an integer, not 2.5"),
          ("cellular_enabled-1", {"cellular_enabled": 1},
           "cellular_enabled must be true or false, not 1"),
          ("relay_p-half", {"relay_policy": "probabilistic", "relay_p": "half"},
           "relay_p must be a number, not 'half'"),
          ("relay_policy-null", {"relay_policy": None}, "relay_policy must be a string, not None"),
          ("tier-of-one", {"rate_tiers": [[0.5, 1.0], [1.0]]}, TIERS),
          ("tier-nan", {"rate_tiers": [[0.5, float("nan")], [1.0, 0.5]]}, TIERS),
          ("link_rate_override-nan", {"link_rate_override": float("nan")},
           "link_rate_override must be a finite number"),
          ("link_rate_override-x", {"link_rate_override": "x"},
           "link_rate_override must be a number or null, not 'x'"),
          ("delta-inf", {"delta": float("inf")}, "delta must be a finite number"),
          ("min_hops-0", {"min_hops": 0}, "min_hops must be >= 1"))),
]

BY_ID = {row[0]: row for row in ROWS}
# tests/test_presets_cli.py runs these rows as the cases of three of its
# rejection tests, one tuple of row ids per case, so that those cases keep
# their names; a scenario case runs through a chain replay and a one-point
# rate sweep.  tests/test_rejected_inputs.py runs every other row.
FLAG_CASES = [(row_id,) for row_id in (
    "users-1.5", "relays-2.5", "value-nan", "ratio-nan", "ratio-inf", "link-rate-inf", "nodes-1")]
SECTION_CASES = [(row_id,) for row_id in (
    "trials-x", "values-ab", "values-true", "workers-1.5", "param_step-unknown", "out-3",
    "sweep-a-list", "scenario-5", "values-nan", "values-nested", "scenario-in-sweep", "sweep-bogus",
    "values-10**400", "r_cell-10**400", "block_size-10**400", "buffer_capacity-2**63")]
SCENARIO_CASES = [(f"chain-{name}", f"sweep-{name}") for name in (
    "duplicate-without-cellular", "node_count-x", "block_size-2.5", "cellular_enabled-1",
    "relay_p-half", "relay_policy-null", "tier-of-one", "link_rate_override-nan", "delta-inf",
    "tier-nan", "link_rate_override-x", "min_hops-0")]
IN_CASES = {row_id for cases in (FLAG_CASES, SECTION_CASES, SCENARIO_CASES)
            for case in cases for row_id in case}


def argv_with_config(row, directory: Path) -> list[str]:
    """row's argv, with --config naming its config written to directory."""
    row_id, argv, config, _ = row
    if config is None:
        return argv.split()
    path = directory / f"{row_id}.json"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    return [*argv.split(), "--config", str(path)]


def mismatches(row, status: int, out: str, err: str) -> list[str]:
    """The clauses of the contract that a run of row breaks, which exited
    with status and printed out and err."""
    return [clause for clause, kept in (
        ("exit 2", status == 2), ("empty stdout", out == ""),
        ("stderr starting 'config error: '", err.startswith("config error: ")),
        (f"stderr containing {row[3]!r}", row[3] in err),
        ("no Python type in stderr", "NoneType" not in err and "<class" not in err)) if not kept]


def broken_through_main(main, row_ids, directory: Path, capsys) -> dict:
    """{row id: the clauses it breaks} for each of row_ids that breaks the
    contract when run through main (cli.main), read with pytest's capsys."""
    broken = {}
    for row_id in row_ids:
        status = main(argv_with_config(BY_ID[row_id], directory))
        captured = capsys.readouterr()
        clauses = mismatches(BY_ID[row_id], status, captured.out, captured.err)
        if clauses:
            broken[row_id] = clauses
    return broken


def main() -> int:
    script, failed = shutil.which("hetnetcode"), 0
    if script is None:
        sys.exit("no hetnetcode console script on PATH")
    with tempfile.TemporaryDirectory(prefix="hetnetcode-rejected-") as tmp:
        for row in ROWS:
            run = subprocess.run([script, *argv_with_config(row, Path(tmp))], cwd=tmp,
                                 capture_output=True, text=True, timeout=300)
            broken = mismatches(row, run.returncode, run.stdout, run.stderr)
            if broken:
                failed += 1
                print(f"{row[0]}: not {', '.join(broken)}: exit {run.returncode}, "
                      f"stdout {run.stdout[:200]!r}, stderr {run.stderr[:200]!r}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rejected inputs exit 2 as a config error")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
