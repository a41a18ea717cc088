"""Command-line front end: presets, sweeps, topology dumps, trace replay.

Config files are JSON with two optional sections mirroring the dataclasses
field-for-field:

    {
      "scenario": { ... ScenarioConfig fields ... },
      "sweep":    { "trials": 50, "seed": 0, "values": [...],
                    "workers": 1, "out": "rows.csv" }
    }

A command-line flag that sets a config field has an argparse dest named
after that field and overrides the file's value (see merged_sections); every
command reads the scenario section through presets.scenario_config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import presets
from .config import ConfigError, ScenarioConfig, SweepSpec, config_from_dict
from .presets import PRESETS, format_rows
from .simengine import NoPathError, run_session

_SWEEP_FIELDS = {f.name for f in dataclasses.fields(SweepSpec)} - {"scenario"}
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    # not JSON, not UTF-8, an int over Python's digit limit, or nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path} is not a readable UTF-8 JSON file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(cfg) - {"scenario", "sweep"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"the {name} section must be an object")
    if "scenario" in cfg.get("sweep", {}):
        raise ConfigError("the scenario is a section of its own, not a sweep field")
    return cfg


def merged_sections(args) -> SweepSpec:
    """The config file's sweep section, with the file's scenario section as
    its scenario, after every flag given is written over the field it sets
    (each flag's dest names its field).  config_from_dict(SweepSpec, ...)
    reads the sweep fields; the scenario stays a dict, for the caller to read
    with presets.scenario_config.

    --seed seeds a sweep's trials on a sweep command and the session
    elsewhere; --ratio sets both fields of presets.rate_fields.
    """
    cfg = load_config(args.config)
    scenario, sweep = dict(cfg.get("scenario", {})), dict(cfg.get("sweep", {}))
    sweep_flags = _SWEEP_FIELDS if args.command in PRESETS else set()
    for key, value in vars(args).items():
        if value is None:
            continue
        if key in sweep_flags:
            sweep[key] = value
        elif key in _SCENARIO_FIELDS:
            scenario[key] = value
    if getattr(args, "ratio", None) is not None:
        scenario.update(presets.rate_fields(args.ratio))
    return config_from_dict(SweepSpec, {**sweep, "scenario": scenario})


def _emit(write, out: str | None):
    """write(fh) to the file at out, or to stdout."""
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w") as fh:
            write(fh)


def cmd_sweep(args) -> int:
    spec = merged_sections(args)
    header, rows = PRESETS[args.command](spec)
    _emit(lambda fh: fh.write(format_rows(header, rows)), spec.out)
    return 0


def cmd_gen_topology(args) -> int:
    sc = presets.scenario_config(merged_sections(args).scenario)
    _emit(presets.cell_topology(sc, sc.seed).dump, args.out)
    return 0


def cmd_replay_trace(args) -> int:
    fixed = (presets.CHAIN_FIELDS if args.chain_hops is not None
             else presets.RELAY_STAR_FIELDS if args.relays is not None else ())
    sc = presets.scenario_config(merged_sections(args).scenario, fixed)
    if args.chain_hops is not None and args.relays is not None:
        raise ConfigError("--chain-hops and --relays are mutually exclusive")
    if args.link_rate is not None and args.relays is None:
        raise ConfigError("--link-rate sets the access links of --relays, so it needs --relays")
    if args.chain_hops is not None:
        sc, topo, pair = presets.chain_scenario(sc, args.chain_hops)
    elif args.relays is not None:
        link_rate = presets.TOPO2_REFERENCE_RATE if args.link_rate is None else args.link_rate
        sc, topo, pair = presets.relay_star_scenario(sc, args.relays, link_rate)
    else:
        topo, pair = presets.cell_topology(sc, sc.seed), None
    _, trace = run_session(sc, topo, pair=pair)
    _emit(trace.write_csv, args.out)
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--out", help="output path (default: stdout)")


def _add_sweep_flags(p):
    _add_common(p)
    p.add_argument("--trials", type=int, help="trials per sweep point")
    p.add_argument("--workers", type=int, help="process pool size")
    p.add_argument("--values", type=float, nargs="+", help="sweep points (default: the preset's)")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hetnetcode",
        description="Coded multi-path session simulator: sweeps and traces as CSV.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for preset in PRESETS:
        p = sub.add_parser(preset, help=f"run the {preset} preset")
        p.set_defaults(run=cmd_sweep)
        _add_sweep_flags(p)
        if preset == "topo1":
            p.add_argument("--proc-delay", type=int, dest="processing_delay",
                           help="per-hop processing delay in slots")
        if preset in ("load-sweep", "infra-sweep"):
            p.add_argument("--ratio", type=float,
                           help="cellular/WiFi link rate ratio for the session")

    p = sub.add_parser("gen-topology", help="generate and dump a topology")
    p.set_defaults(run=cmd_gen_topology)
    _add_common(p)
    p.add_argument("--nodes", type=int, dest="node_count", help="node count")

    p = sub.add_parser("replay-trace", help="run one session and dump its event trace")
    p.set_defaults(run=cmd_replay_trace)
    _add_common(p)
    p.add_argument("--chain-hops", type=int, help="use a WiFi chain of this many hops")
    p.add_argument("--relays", type=int, help="use the dual-interface relay topology")
    p.add_argument("--link-rate", type=float,
                   help="access link rate for --relays (default 54)")

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoPathError, OSError, ValueError, MemoryError) as exc:
        # an exception may carry no message, as MemoryError() does
        reason = str(exc) or ("out of memory" if isinstance(exc, MemoryError)
                              else type(exc).__name__)
        print(f"error: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
