"""Command-line front end: presets, sweeps, topology dumps, trace replay.

Config files are JSON with two optional sections mirroring the dataclasses
field-for-field:

    {
      "scenario": { ... ScenarioConfig fields ... },
      "sweep":    { "trials": 50, "seed": 0, "values": [...],
                    "param_min": ..., "param_max": ..., "param_step": ...,
                    "workers": 1, "out": "rows.csv" }
    }

A command-line flag that sets a config field has an argparse dest named
after that field and overrides the file's value (see merged_sections).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import presets
from .errors import ConfigError, NoPathError
from .presets import PRESETS, SweepSpec, format_rows
from .routing import build_routes
from .simengine import ScenarioConfig, _type_ok, run_session

_SWEEP_FIELDS = {f.name for f in dataclasses.fields(SweepSpec)} - {"scenario"}
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def _check_sweep(sweep: dict):
    bad = set(sweep) - _SWEEP_FIELDS
    if bad:
        raise ConfigError(f"unknown sweep fields: {sorted(bad)}")
    for key, value in sweep.items():
        if key == "out":
            ok = value is None or isinstance(value, str)
        elif key == "values":
            ok = value is None or (isinstance(value, list)
                                   and all(_type_ok(x, 0.0) for x in value))
        else:  # a number of the type of the SweepSpec default
            ok = _type_ok(value, getattr(SweepSpec, key))
        if not ok:
            raise ConfigError(f"sweep {key} has the wrong type: {value!r}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(cfg) - {"scenario", "sweep"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"the {name} section must be an object")
    return cfg


def merged_sections(args) -> tuple[dict, dict]:
    """The config file's scenario and sweep sections with every flag given
    written over the field it sets (each flag's dest names its field); the
    sweep section is checked, the scenario is left to ScenarioConfig.from_dict.

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
    _check_sweep(sweep)
    return scenario, sweep


def _emit(write, out: str | None):
    """write(fh) to the file at out, or to stdout."""
    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w") as fh:
            write(fh)


def cmd_sweep(args) -> int:
    scenario, sweep = merged_sections(args)
    if sweep.get("values") is not None:
        sweep["values"] = tuple(sweep["values"])
    spec = SweepSpec(scenario=scenario, **sweep)
    spec.validate()
    header, rows = PRESETS[args.command](spec)
    _emit(lambda fh: fh.write(format_rows(header, rows)), spec.out)
    return 0


def cmd_gen_topology(args) -> int:
    sc = ScenarioConfig.from_dict(merged_sections(args)[0])
    _emit(presets.cell_topology(sc, sc.seed).dump, args.out)
    return 0


def cmd_replay_trace(args) -> int:
    sc = ScenarioConfig.from_dict(merged_sections(args)[0])
    if args.chain_hops is not None and args.relays is not None:
        raise ConfigError("--chain-hops and --relays are mutually exclusive")
    if args.chain_hops is not None:
        sc, topo, pair = presets.chain_scenario(sc, args.chain_hops)
    elif args.relays is not None:
        sc, topo, pair = presets.relay_star_scenario(sc, args.relays, args.link_rate)
    else:
        topo, pair = presets.cell_topology(sc, sc.seed), None
    _, trace = run_session(sc, topo, build_routes(topo), pair=pair)
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
    p.add_argument("--min", type=float, dest="param_min", help="sweep minimum")
    p.add_argument("--max", type=float, dest="param_max", help="sweep maximum")
    p.add_argument("--step", type=float, dest="param_step", help="sweep step")
    p.add_argument("--values", type=float, nargs="+", help="explicit sweep points")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hetnetcode",
        description="Coded multi-path session simulator: sweeps and traces as CSV.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for preset in ("rate-sweep", "load-sweep", "infra-sweep", "topo1", "topo2"):
        p = sub.add_parser(preset, help=f"run the {preset} preset")
        _add_sweep_flags(p)
        if preset == "topo1":
            p.add_argument("--proc-delay", type=int, dest="processing_delay",
                           help="per-hop processing delay in slots")
        if preset in ("load-sweep", "infra-sweep"):
            p.add_argument("--ratio", type=float,
                           help="cellular/WiFi link rate ratio for the session")

    p = sub.add_parser("gen-topology", help="generate and dump a topology")
    _add_common(p)
    p.add_argument("--nodes", type=int, dest="node_count", help="node count")

    p = sub.add_parser("replay-trace", help="run one session and dump its event trace")
    _add_common(p)
    p.add_argument("--chain-hops", type=int, help="use a WiFi chain of this many hops")
    p.add_argument("--relays", type=int, help="use the dual-interface relay topology")
    p.add_argument("--link-rate", type=float, default=54.0,
                   help="access link rate for --relays (default 54)")

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        if args.command in PRESETS:
            return cmd_sweep(args)
        if args.command == "gen-topology":
            return cmd_gen_topology(args)
        if args.command == "replay-trace":
            return cmd_replay_trace(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoPathError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
