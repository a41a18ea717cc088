"""Command-line front end: presets, sweeps, topology dumps, trace replay.

Config files are JSON with two optional sections mirroring the dataclasses
field-for-field:

    {
      "scenario": { ... ScenarioConfig fields ... },
      "sweep":    { "trials": 50, "seed": 0, "values": [...],
                    "param_min": ..., "param_max": ..., "param_step": ...,
                    "workers": 1, "out": "rows.csv" }
    }

Command-line flags override config file values.
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

_SWEEP_FIELDS = {"trials", "seed", "out", "values", "param_min", "param_max",
                 "param_step", "workers"}


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
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(cfg) - {"scenario", "sweep"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"the {name} section must be an object")
    _check_sweep(cfg.get("sweep", {}))
    return cfg


def build_spec(preset: str, args, cfg: dict) -> SweepSpec:
    sweep = dict(cfg.get("sweep", {}))
    if getattr(args, "values", None):
        sweep["values"] = tuple(args.values)
    for attr, key in (("min", "param_min"), ("max", "param_max"), ("step", "param_step"),
                      ("trials", "trials"), ("seed", "seed"), ("out", "out"),
                      ("workers", "workers")):
        v = getattr(args, attr, None)
        if v is not None:
            sweep[key] = v
    if "values" in sweep and sweep["values"] is not None:
        sweep["values"] = tuple(sweep["values"])
    spec = SweepSpec(preset=preset, scenario=dict(cfg.get("scenario", {})), **sweep)
    spec.validate()
    return spec


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _scenario_from(cfg: dict, seed: int | None) -> ScenarioConfig:
    sc = ScenarioConfig.from_dict(cfg.get("scenario", {}))
    if seed is not None:
        # replace skips validation
        sc = dataclasses.replace(sc, seed=seed)
        sc.validate()
    return sc


def cmd_sweep(preset: str, args) -> int:
    cfg = load_config(args.config)
    spec = build_spec(preset, args, cfg)
    fn = PRESETS[preset]
    kwargs = {}
    if preset == "topo1" and args.proc_delay is not None:
        kwargs["processing_delay"] = args.proc_delay
    if preset in ("load-sweep", "infra-sweep") and args.ratio is not None:
        kwargs["ratio"] = args.ratio
    header, rows = fn(spec, **kwargs)
    _emit(format_rows(header, rows), spec.out)
    return 0


def cmd_gen_topology(args) -> int:
    cfg = load_config(args.config)
    sc = _scenario_from(cfg, args.seed)
    if args.nodes is not None:
        sc = dataclasses.replace(sc, node_count=args.nodes)
    topo = presets.cell_topology(sc, sc.seed)
    if args.out is None:
        topo.dump(sys.stdout)
    else:
        with open(args.out, "w") as fh:
            topo.dump(fh)
    return 0


def cmd_replay_trace(args) -> int:
    cfg = load_config(args.config)
    sc = _scenario_from(cfg, args.seed)
    if args.chain_hops is not None and args.relays is not None:
        raise ConfigError("--chain-hops and --relays are mutually exclusive")
    if args.chain_hops is not None:
        sc, topo, pair = presets.chain_scenario(sc, args.chain_hops)
    elif args.relays is not None:
        sc, topo, pair = presets.relay_star_scenario(sc, args.relays, args.link_rate)
    else:
        topo, pair = presets.cell_topology(sc, sc.seed), None
    _, trace = run_session(sc, topo, build_routes(topo), pair=pair)
    if args.out is None:
        trace.write_csv(sys.stdout)
    else:
        with open(args.out, "w") as fh:
            trace.write_csv(fh)
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--out", help="output path (default: stdout)")


def _add_sweep_flags(p):
    _add_common(p)
    p.add_argument("--trials", type=int, help="trials per sweep point")
    p.add_argument("--workers", type=int, help="process pool size")
    p.add_argument("--min", type=float, help="sweep minimum")
    p.add_argument("--max", type=float, help="sweep maximum")
    p.add_argument("--step", type=float, help="sweep step")
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
            p.add_argument("--proc-delay", type=int,
                           help="per-hop processing delay in slots")
        if preset in ("load-sweep", "infra-sweep"):
            p.add_argument("--ratio", type=float,
                           help="cellular/WiFi link rate ratio for the session")

    p = sub.add_parser("gen-topology", help="generate and dump a topology")
    _add_common(p)
    p.add_argument("--nodes", type=int, help="node count")

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
            return cmd_sweep(args.command, args)
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
