"""Scenario presets and parameter sweeps.

Every preset is a pure function of (spec, seed): trial t of a sweep always
sees the same topology, S-D pair, and coefficient draws, no matter which
sweep point is being evaluated or how many workers run.  Sweep points are
dispatched to a process pool when workers > 1; rows are always emitted in
sweep-parameter order.  Every run reads its scenario section through
scenario_config, which refuses each field the run sets itself or never reads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import topology as topo_mod
from .config import TRIAL_SEED_STRIDE, ConfigError, ScenarioConfig, SweepSpec, config_from_dict
from .simengine import compare_modes, pick_session_pair, run_session

TOPO2_RATES = (12, 18, 24, 36, 48, 54)
TOPO2_REFERENCE_RATE = 54.0  # access link rate that maps to 1 packet/slot
TOPO2_RELAY_RATE = 0.125  # processing-limited relay forwards per slot
TOPO2_INTERFACES = 2


def trial_config(base: ScenarioConfig, spec_seed: int, trial: int, **overrides) -> ScenarioConfig:
    """Per-trial engine config; the seed mix keeps trials independent."""
    return replace(base, seed=spec_seed * TRIAL_SEED_STRIDE + trial, **overrides)


def cell_topology(config: ScenarioConfig, seed: int, trial: int = 0):
    """Random 7-cell topology of config's node count and topology fields;
    trial t of a sweep with this seed sees the same one at every point."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
    return topo_mod.generate(config.node_count, rng, config.topology_params())


# fields a run's scenario section may not set, as the run sets them or never
# reads them (scenario_config): a rate point sets both RATE_FIELDS, the chain
# has no wired link, bus or cells, nor a byte that moves with its WiFi range,
# and the relay star takes TopologyParams()
RATE_FIELDS = ("link_rate_override", "r_cell")
CHAIN_FIELDS = ("node_count", "min_hops", "backbone_fraction", "backbone_rate",
                "wired_relay_rate", "cell_radius", "rate_tiers", "wifi_range")
RELAY_STAR_FIELDS = (*CHAIN_FIELDS, "cellular_enabled", "delta", "r_cell",
                     "link_rate_override", "users_per_cell", "loading_mode")


def chain_scenario(config: ScenarioConfig, hops: int):
    """(config, topology, pair) of a WiFi chain of `hops` hops, end to end;
    the config, whose node_count must fit an int64, is sized first."""
    if hops < 1:
        raise ConfigError("need at least one hop")
    config = replace(config, node_count=hops + 1, min_hops=hops)
    return config, topo_mod.chain_topology(hops, config.topology_params()), (0, hops)


def relay_star_scenario(config: ScenarioConfig, n_relays: int, link_rate: float):
    """(config, topology, pair) of the dual-interface relay testbed: wired
    only, access links at link_rate (Mbit/s) and relays processing-limited;
    the config is sized first, as the chain's is."""
    if n_relays < 1:
        raise ConfigError("need at least one relay")
    config = replace(config, node_count=n_relays + 2, min_hops=2, cellular_enabled=False,
                     wired_relay_rate=TOPO2_RELAY_RATE)
    topo = topo_mod.relay_star_topology(n_relays,
                                        link_capacity=link_rate / TOPO2_REFERENCE_RATE,
                                        interfaces_per_node=TOPO2_INTERFACES)
    return config, topo, (0, n_relays + 1)


def rate_fields(ratio: float) -> dict:
    """Scenario fields that pin the S-D cellular link and the cell maximum at
    this cellular/WiFi link-rate ratio, which must be positive."""
    if not ratio > 0:
        raise ConfigError("rate ratios must be positive")
    return dict.fromkeys(RATE_FIELDS, float(ratio))


def scenario_config(section: dict, fixed: tuple = (), **defaults) -> ScenarioConfig:
    """The scenario section over a run's defaults, checked; a ConfigError
    if it names a field of fixed, which the run would otherwise drop."""
    config = config_from_dict(ScenarioConfig, {**defaults, **section})
    if named := [name for name in fixed if name in section]:
        raise ConfigError(f"the scenario section may not set {', '.join(named)}, "
                          "which this run sets itself or never reads")
    return config


def _pool_map(fn, args_list, workers: int):
    workers = min(workers, len(args_list), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _per_point(fn, tasks, workers: int) -> list:
    """Run fn on every trial's task, each returning one result per sweep
    point; returns, per point, that point's results in trial order."""
    return list(zip(*_pool_map(fn, tasks, workers)))


def _counts(values, what: str) -> list[int]:
    """Sweep values that count things: whole numbers >= 1, as ints."""
    if any(v != int(v) or v < 1 for v in values):
        raise ConfigError(f"{what} must be whole numbers >= 1")
    return [int(v) for v in values]


def _mean(xs):
    return sum(xs) / len(xs)


def _stderr(xs):
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))


# --- cellular-only vs combined at each sweep point --------------------------


def _compare_trial(args):
    """(cellular-only, combined) relative throughput of one trial at each
    point's config overrides, on the trial's random topology between the
    pair its sessions would pick, picked once, or, given a hop count, on
    that chain."""
    spec_seed, trial, points, base, chain_hops = args
    if chain_hops is None:
        cfg = trial_config(base, spec_seed, trial)
        topo = cell_topology(base, spec_seed, trial)
        pair = pick_session_pair(topo, cfg)
    else:
        base, topo, pair = chain_scenario(base, chain_hops)
    out = []
    for overrides in points:
        cell, comb = compare_modes(trial_config(base, spec_seed, trial, **overrides),
                                   topo, pair)
        out.append((cell.relative_throughput, comb.relative_throughput))
    return out


def _compare_sweep(spec: SweepSpec, base: ScenarioConfig, points, chain_hops=None):
    """Per point: the trial means of cellular-only and combined throughput
    and the standard error of the combined mean."""
    tasks = [(spec.seed, t, points, base, chain_hops) for t in range(spec.trials)]
    for results in _per_point(_compare_trial, tasks, spec.workers):
        cell, comb = zip(*results)
        yield _mean(cell), _mean(comb), _stderr(comb)


# --- Case 1: ad-hoc WiFi, rate and load sweeps -----------------------------


DEFAULT_RATE_RATIOS = tuple(round(0.1 * i, 2) for i in range(1, 21))


def preset_rate_sweep(spec: SweepSpec):
    """Relative throughput vs cellular/WiFi link-rate ratio (single session)."""
    ratios = spec.sweep_values(DEFAULT_RATE_RATIOS)
    points = [rate_fields(r) for r in ratios]
    base = scenario_config(spec.scenario, ("seed", *RATE_FIELDS), block_target=3, slot_budget=4000)
    rows = [(float(r), *means) for r, means in zip(ratios, _compare_sweep(spec, base, points))]
    return ["rate_ratio", "rel_tput_cellular", "rel_tput_combined", "stderr"], rows


DEFAULT_LOAD_USERS = (1, 2, 4, 8, 16, 32)
DEFAULT_LOAD_RATIO = 0.5


def preset_load_sweep(spec: SweepSpec):
    """Cell loading: per-user throughput vs the number of users per cell."""
    users = _counts(spec.sweep_values(DEFAULT_LOAD_USERS), "users_per_cell values")
    base = scenario_config(spec.scenario, ("seed", "users_per_cell"), block_target=2,
                           slot_budget=8000, **rate_fields(DEFAULT_LOAD_RATIO))
    points = [{"users_per_cell": u} for u in users]
    rows = [(u, cell, comb)
            for u, (cell, comb, _) in zip(users, _compare_sweep(spec, base, points))]
    return ["users_per_cell", "rel_tput_cellular", "rel_tput_combined"], rows


# --- Case 2: infrastructure WiFi -------------------------------------------


def _infra_trial(args):
    """One trial's relative throughput at each k/n, on its base topology's
    pair; each k/n point is a backbone variant of that one placement."""
    spec_seed, trial, fracs, base = args
    cfg = trial_config(base, spec_seed, trial)
    base_topo = cell_topology(cfg, spec_seed, trial)
    pair = pick_session_pair(base_topo, cfg)
    out = []
    for frac in fracs:
        stats, _ = run_session(cfg, topo_mod.with_backbone(base_topo, float(frac)), pair=pair)
        out.append(stats.relative_throughput)
    return out


DEFAULT_INFRA_FRACS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
DEFAULT_INFRA_RATIO = 0.1


def preset_infra_sweep(spec: SweepSpec):
    """Combined throughput vs the fraction k/n of backbone-connected nodes."""
    fracs = spec.sweep_values(DEFAULT_INFRA_FRACS)
    if any(not 0 < f <= 1 for f in fracs):
        raise ConfigError("k/n values must lie in (0, 1]")
    base = scenario_config(spec.scenario, ("seed", "backbone_fraction"), block_target=3,
                           slot_budget=4000, **rate_fields(DEFAULT_INFRA_RATIO))
    tasks = [(spec.seed, t, fracs, base) for t in range(spec.trials)]
    rows = [(float(frac), _mean(vals))
            for frac, vals in zip(fracs, _per_point(_infra_trial, tasks, spec.workers))]
    return ["k_over_n", "rel_tput"], rows


# --- testbed topology presets ----------------------------------------------


DEFAULT_TOPO1_RATIOS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
TOPO1_HOPS = 7


def preset_topo1(spec: SweepSpec):
    """Seven-hop chain in parallel with a constant-rate WiMAX-style pipe."""
    ratios = spec.sweep_values(DEFAULT_TOPO1_RATIOS)
    points = [rate_fields(r) for r in ratios]
    base = scenario_config(spec.scenario, ("seed", *RATE_FIELDS, *CHAIN_FIELDS),
                           block_target=3, slot_budget=6000)
    rows = [(float(r), wimax, comb) for r, (wimax, comb, _)
            in zip(ratios, _compare_sweep(spec, base, points, chain_hops=TOPO1_HOPS))]
    return ["rate_ratio", "rel_tput_wimax", "rel_tput_combined"], rows


def _topo2_trial(args):
    spec_seed, trial, points, base = args
    base = trial_config(base, spec_seed, trial)
    out = []
    for rate, n in points:
        cfg, topo, pair = relay_star_scenario(base, n, rate)
        stats, _ = run_session(cfg, topo, pair=pair)
        out.append(stats.relative_throughput)
    return out


DEFAULT_TOPO2_RELAYS = (1, 2, 3, 4, 5, 6)


def preset_topo2(spec: SweepSpec):
    """Dual-interface access-point topology: throughput vs relay count N at
    each of TOPO2_RATES."""
    relay_counts = _counts(spec.sweep_values(DEFAULT_TOPO2_RELAYS), "relay counts")
    base = scenario_config(spec.scenario, ("seed", *RELAY_STAR_FIELDS), block_target=4,
                           slot_budget=60000)
    points = [(rate, n) for rate in TOPO2_RATES for n in relay_counts]
    tasks = [(spec.seed, t, points, base) for t in range(spec.trials)]
    rows = [(float(rate), n, _mean(vals))
            for (rate, n), vals in zip(points, _per_point(_topo2_trial, tasks, spec.workers))]
    return ["link_rate", "n_relays", "throughput"], rows


# --- CSV emission -----------------------------------------------------------


def format_rows(header, rows) -> str:
    """Stable CSV text: 6-decimal floats, plain ints, newline-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


PRESETS = {
    "rate-sweep": preset_rate_sweep,
    "load-sweep": preset_load_sweep,
    "infra-sweep": preset_infra_sweep,
    "topo1": preset_topo1,
    "topo2": preset_topo2,
}
