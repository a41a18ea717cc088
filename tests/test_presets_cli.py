import json
from collections import Counter

import numpy as np
import pytest

from hetnetcode import cli, presets
from hetnetcode.errors import ConfigError
from hetnetcode.routing import ForwardPolicy
from hetnetcode.simengine import ScenarioConfig
from hetnetcode.presets import (
    SweepSpec,
    format_rows,
    preset_infra_sweep,
    preset_load_sweep,
    preset_rate_sweep,
    preset_topo1,
    preset_topo2,
)

SMALL = {"node_count": 250, "cell_radius": 400.0}


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(trials=0).validate()
    with pytest.raises(ConfigError):
        SweepSpec(param_min=2.0, param_max=1.0, param_step=0.1).validate()
    with pytest.raises(ConfigError):
        SweepSpec(param_min=0.1, param_max=1.0, param_step=0.0).validate()
    with pytest.raises(ConfigError):
        SweepSpec(param_min=0.1, param_max=1.0).validate()
    with pytest.raises(ConfigError):
        SweepSpec(values=()).validate()
    with pytest.raises(ConfigError):
        SweepSpec(values=(0.5, float("nan"))).validate()
    with pytest.raises(ConfigError):
        SweepSpec(param_min=0.1, param_max=float("inf"), param_step=0.1).validate()
    assert SweepSpec(param_min=0.5, param_max=1.0,
                     param_step=0.25).sweep_values(()) == [0.5, 0.75, 1.0]
    assert SweepSpec().sweep_values((1, 2)) == [1, 2]


def test_rate_sweep_gain_trend_and_dominance():
    spec = SweepSpec(values=(0.1, 2.0), trials=6, seed=1, scenario=SMALL)
    header, rows = preset_rate_sweep(spec)
    assert header == ["rate_ratio", "rel_tput_cellular", "rel_tput_combined", "stderr"]
    by_ratio = {r[0]: r for r in rows}
    for ratio, (_, cell, comb, err) in by_ratio.items():
        assert comb >= cell
        assert err >= 0
    gain_low = by_ratio[0.1][2] / by_ratio[0.1][1]
    gain_high = by_ratio[2.0][2] / by_ratio[2.0][1]
    assert gain_low > 2 * gain_high


def test_rate_sweep_deterministic():
    spec = SweepSpec(values=(0.5,), trials=3, seed=7, scenario=SMALL)
    assert preset_rate_sweep(spec) == preset_rate_sweep(spec)


def test_rate_sweep_degenerate_wifi_disabled():
    scenario = dict(SMALL, wifi_enabled=False)
    spec = SweepSpec(values=(0.5,), trials=3, seed=2, scenario=scenario)
    _, rows = preset_rate_sweep(spec)
    (_, cell, comb, _) = rows[0]
    assert comb == cell


def test_rate_sweep_worker_pool_matches_serial():
    serial = SweepSpec(values=(0.5,), trials=2, seed=3, scenario=SMALL)
    pooled = SweepSpec(values=(0.5,), trials=2, seed=3, workers=2, scenario=SMALL)
    assert preset_rate_sweep(serial)[1] == preset_rate_sweep(pooled)[1]


@pytest.mark.parametrize("policy", [{"mode": "wifi-only"},
                                    {"mode": "both", "both_mode": "duplicate"}],
                         ids=["wifi-only", "both-duplicate"])
def test_load_sweep_consistent_with_rate_sweep_at_single_user(policy):
    # rate-sweep builds its topology at the default r_cell and load-sweep at
    # its ratio; relays that send on cellular must see the same rates in both
    trials, seed, scenario = 4, 5, dict(SMALL, relay_policy=policy)
    rate_spec = SweepSpec(values=(presets.DEFAULT_LOAD_RATIO,), trials=trials, seed=seed,
                          scenario=dict(scenario, block_target=2, slot_budget=8000))
    _, rate_rows = preset_rate_sweep(rate_spec)
    load_spec = SweepSpec(values=(1,), trials=trials, seed=seed, scenario=scenario)
    _, load_rows = preset_load_sweep(load_spec)
    assert load_rows[0][1] == pytest.approx(rate_rows[0][1], abs=1e-12)
    assert load_rows[0][2] == pytest.approx(rate_rows[0][2], abs=1e-12)


def test_load_sweep_hyperbola_and_plateau():
    spec = SweepSpec(values=(1, 4, 16), trials=5, seed=4, scenario=SMALL)
    header, rows = preset_load_sweep(spec)
    assert header == ["users_per_cell", "rel_tput_cellular", "rel_tput_combined"]
    cell = {u: c for u, c, _ in rows}
    comb = {u: w for u, _, w in rows}
    # equal-rate loading with the pinned link: exactly c/U
    assert cell[4] == pytest.approx(cell[1] / 4, rel=0.02)
    assert cell[16] == pytest.approx(cell[1] / 16, rel=0.02)
    # combined stays useful under load
    assert comb[16] > 3 * cell[16]


def test_infra_sweep_monotone_smoke():
    spec = SweepSpec(values=(0.002, 0.2, 1.0), trials=4, seed=6, scenario=SMALL)
    header, rows = preset_infra_sweep(spec)
    assert header == ["k_over_n", "rel_tput"]
    vals = [v for _, v in rows]
    assert vals[0] <= vals[1] <= vals[2]
    with pytest.raises(ConfigError):
        preset_infra_sweep(SweepSpec(values=(0.0, 0.5), trials=1))


def test_infra_knee_shifts_left_with_density():
    fracs = (0.01, 0.08, 0.2, 0.5, 1.0)

    def knee(rows):
        plateau = rows[0][1]
        for f, v in rows:
            if v >= 2 * plateau:
                return f
        return rows[-1][0]

    knees = {}
    for nodes in (400, 900):
        spec = SweepSpec(values=fracs, trials=6, seed=0, scenario={"node_count": nodes})
        _, rows = preset_infra_sweep(spec)
        knees[nodes] = knee(rows)
    assert knees[900] < knees[400]


def test_topo1_zero_delay_matches_engine_and_delay_hurts():
    spec = SweepSpec(values=(0.25, 1.0), trials=3, seed=8)
    _, rows = preset_topo1(spec)
    _, rows_again = preset_topo1(spec)
    assert rows == rows_again
    _, slow_rows = preset_topo1(SweepSpec(values=(0.25, 1.0), trials=3, seed=8,
                                          scenario={"processing_delay": 3}))
    for fast, slow in zip(rows, slow_rows):
        assert slow[2] < fast[2]  # combined uniformly lower with processing delay
        assert slow[1] == pytest.approx(fast[1])  # pure WiMAX path unaffected


def test_topo1_rows_match_direct_engine_run():
    # the preset is the plain engine on a 7-hop chain, nothing more
    from hetnetcode import routing, simengine, topology

    spec = SweepSpec(values=(0.5,), trials=2, seed=8)
    _, rows = preset_topo1(spec)
    base = presets._base_config(spec, node_count=8, min_hops=7,
                                block_target=3, slot_budget=6000)
    topo = topology.chain_topology(7, base.topology_params())
    routes = routing.build_routes(topo)
    cell_vals, comb_vals = [], []
    for trial in range(2):
        cfg = presets.trial_config(base, 8, trial, link_rate_override=0.5, r_cell=0.5)
        cell, comb = simengine.compare_modes(cfg, topo, routes, pair=(0, 7))
        cell_vals.append(cell.relative_throughput)
        comb_vals.append(comb.relative_throughput)
    assert rows[0][1] == pytest.approx(sum(cell_vals) / 2, abs=1e-12)
    assert rows[0][2] == pytest.approx(sum(comb_vals) / 2, abs=1e-12)


def test_topo2_linear_scaling_quick():
    spec = SweepSpec(values=(2, 4), trials=2, seed=9)
    header, rows = preset_topo2(spec, rates=(54,))
    assert header == ["link_rate", "n_relays", "throughput"]
    n2 = next(r[2] for r in rows if r[1] == 2)
    n4 = next(r[2] for r in rows if r[1] == 4)
    assert 1.7 <= n4 / n2 <= 2.3


def test_format_rows_stable():
    text = format_rows(["a", "b"], [(1, 0.5), (2, 1.0 / 3.0)])
    assert text == "a,b\n1,0.500000\n2,0.333333\n"


# --- CLI ----------------------------------------------------------------------


def run_cli(args):
    return cli.main(args)


def test_cli_rate_sweep_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": SMALL}))
    argv = ["rate-sweep", "--config", str(cfg), "--values", "0.5",
            "--trials", "2", "--seed", "3"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"rate_ratio,rel_tput_cellular,rel_tput_combined,stderr\n")


def test_cli_gen_topology_round_trip(tmp_path):
    out = tmp_path / "topo.txt"
    assert run_cli(["gen-topology", "--nodes", "40", "--seed", "5",
                    "--out", str(out)]) == 0
    from hetnetcode import topology

    with open(out) as fh:
        topo = topology.load(fh)
    assert len(topo) == 40
    again = tmp_path / "topo2.txt"
    assert run_cli(["gen-topology", "--nodes", "40", "--seed", "5",
                    "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_cli_replay_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(["replay-trace", "--chain-hops", "2", "--seed", "0",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,node_id,interface,block_id,innovative"
    assert len(lines) > 10
    again = tmp_path / "trace2.csv"
    run_cli(["replay-trace", "--chain-hops", "2", "--seed", "0", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_cli_replay_trace_relay_star(tmp_path):
    out = tmp_path / "trace.csv"
    assert run_cli(["replay-trace", "--relays", "2", "--seed", "1",
                    "--out", str(out)]) == 0
    body = out.read_text().splitlines()[1:]
    assert all(line.split(",")[2] == "wired" for line in body)


def test_cli_replay_trace_caps_a_fast_cellular_pipe(tmp_path):
    # a pipe of 1e6 packets per slot releases at most one block's worth per
    # slot, so the run stays small and still decodes every block it targets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"link_rate_override": 1e6, "r_cell": 1e6}}))
    out = tmp_path / "trace.csv"
    assert run_cli(["replay-trace", "--chain-hops", "2", "--config", str(cfg),
                    "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    m, target = ScenarioConfig.block_size, ScenarioConfig.block_target
    per_slot = Counter(slot for slot, _, iface, _, _ in rows if iface == "cellular")
    assert max(per_slot.values()) == m
    innovative = Counter(int(block) for _, _, _, block, new in rows if new == "1")
    assert innovative == {b: m for b in range(target)}


def test_cli_error_exits(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"scenario": {"definitely_not_a_field": 1}}))
    assert run_cli(["rate-sweep", "--config", str(bad_cfg)]) == 2
    bad_sweep = tmp_path / "sweep.json"
    bad_sweep.write_text(json.dumps({"sweep": {"trials": 0}}))
    assert run_cli(["rate-sweep", "--config", str(bad_sweep)]) == 2
    # min/max/step must come as a trio
    assert run_cli(["rate-sweep", "--min", "0.1"]) == 2


@pytest.mark.parametrize("argv", [
    # counts must be whole numbers
    ["load-sweep", "--values", "1.5", "--trials", "1"],
    ["topo2", "--values", "2.5", "--trials", "1"],
    # and every number finite
    ["rate-sweep", "--values", "nan", "--trials", "1"],
    ["rate-sweep", "--min", "0.1", "--max", "inf", "--step", "0.1", "--trials", "1"],
    ["load-sweep", "--values", "1", "--ratio", "nan", "--trials", "1"],
    ["infra-sweep", "--values", "0.5", "--ratio", "inf", "--trials", "1"],
    ["replay-trace", "--relays", "2", "--link-rate", "inf"],
    # a flag is checked like the config field it sets
    ["gen-topology", "--nodes", "1"],
])
def test_cli_rejects_bad_flag_values(argv):
    assert run_cli(argv) == 2


ONE_POINT = {"values": [0.5], "trials": 1}


@pytest.mark.parametrize("section", [
    {"sweep": {"trials": "x"}},
    {"sweep": {"values": "ab"}},
    {"sweep": {"values": [0.5, True], "trials": 1}},
    {"sweep": dict(ONE_POINT, workers=1.5)},
    {"sweep": dict(ONE_POINT, param_step="0.1")},
    {"sweep": dict(ONE_POINT, out=3)},
    {"sweep": [1]},
    {"scenario": 5, "sweep": ONE_POINT},
    {"sweep": {"values": [0.5, float("nan")], "trials": 1}},
])
def test_cli_rejects_bad_config_sections(tmp_path, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section))
    assert run_cli(["rate-sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("raw", [
    b'{"sweep": {trials: 1}}',  # not JSON
    b'{"scenario": {"loading_mode": "\xe9qual-rate"}}',  # not UTF-8
])
def test_cli_rejects_a_malformed_config_file(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    assert run_cli(["rate-sweep", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("scenario", [
    {"wifi_range": -1}, {"delta": -1, "cell_radius": 0}, {"backbone_fraction": 2.0}])
def test_cli_rejects_bad_topology_fields_on_relay_star(tmp_path, scenario):
    # the relay star takes no geometry from the scenario; the fields are
    # still checked when the config is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    assert run_cli(["replay-trace", "--relays", "2", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("scenario", [
    # relays would need the disabled cellular interface
    {"relay_policy": {"mode": "both", "both_mode": "duplicate"}, "cellular_enabled": False},
    {"node_count": "x"},
    {"block_size": 2.5},
    {"cellular_enabled": 1},
    {"relay_policy": {"mode": "both", "p": "half"}},
    {"relay_policy": None},
    {"rate_tiers": [[0.5, 1.0], [1.0]]},
    {"link_rate_override": float("nan")},
    {"delta": float("inf")},
    {"rate_tiers": [[0.5, float("nan")], [1.0, 0.5]]},
    {"link_rate_override": "x"},
])
def test_cli_rejects_bad_scenario_values(tmp_path, capsys, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    assert run_cli(["replay-trace", "--chain-hops", "3", "--config", str(cfg)]) == 2
    assert run_cli(["rate-sweep", "--values", "0.5", "--trials", "1",
                    "--config", str(cfg)]) == 2
    # errors name the JSON types a field accepts, not a Python type
    assert "NoneType" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, section", [
    (["rate-sweep", "--values", "0.5", "--trials", "1", "--seed", "-1"], None),
    (["topo2", "--values", "1", "--trials", "1", "--seed", "-2"], None),
    (["replay-trace", "--seed", "-3", "--chain-hops", "2"], None),
    (["gen-topology", "--seed", "-1", "--nodes", "5"], None),
    (["rate-sweep", "--values", "0.5", "--trials", "1"], {"sweep": {"seed": -4}}),
    (["replay-trace", "--chain-hops", "2"], {"scenario": {"seed": -4}}),
])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, argv, section):
    if section is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        argv = [*argv, "--config", str(cfg)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err
    assert captured.out == ""


def test_config_coercion_keeps_json_values():
    sc = presets._base_config(SweepSpec(scenario={
        "relay_policy": {"mode": "both", "p": 1}, "rate_tiers": [[0.5, 1], [1.0, 0.5]],
        "link_rate_override": 2}))
    assert sc.relay_policy == ForwardPolicy(mode="both", p=1)
    assert sc.rate_tiers == ((0.5, 1), (1.0, 0.5))
    assert sc.link_rate_override == 2


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


@pytest.mark.parametrize("cpus, tasks, workers, size", [
    (4, 3, 1000, 3), (2, 5, 1000, 2), (None, 5, 8, None), (4, 1, 8, None), (4, 5, 1, None)])
def test_pool_size_is_clamped(monkeypatch, cpus, tasks, workers, size):
    monkeypatch.setattr(presets, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(presets.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    assert presets._pool_map(abs, [-t for t in range(tasks)], workers) == list(range(tasks))
    assert _RecordingPool.sizes == ([] if size is None else [size])


def test_cli_config_file_scenario_honored(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": dict(SMALL, block_target=1, slot_budget=1500),
        "sweep": {"trials": 2, "seed": 11, "values": [0.5]},
    }))
    out = tmp_path / "r.csv"
    assert run_cli(["rate-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # header + one point


# --- flags over config files ---------------------------------------------------


def _cli_output(tmp_path, argv, scenario=None):
    """Bytes the CLI writes for argv, with scenario as the config file's
    scenario section when given."""
    out = tmp_path / "out"
    if scenario is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario}))
        argv = [*argv, "--config", str(cfg)]
    assert run_cli([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["infra-sweep", "--values", "0.01", "--trials", "1"],
    ["load-sweep", "--values", "1", "--trials", "1"],
])
def test_cli_ratio_flag_beats_the_file(tmp_path, argv):
    fast = dict(SMALL, link_rate_override=2.0, r_cell=2.0)
    from_file = _cli_output(tmp_path, argv, fast)
    flag_over_file = _cli_output(tmp_path, [*argv, "--ratio", "0.3"], fast)
    assert flag_over_file == _cli_output(tmp_path, [*argv, "--ratio", "0.3"], SMALL)
    assert flag_over_file != from_file


def test_cli_load_sweep_honours_the_files_link_rate(tmp_path):
    # equal-time loading takes the pinned link rate alone, with no cell cap
    scenario = dict(SMALL, link_rate_override=2.0, loading_mode="equal-time")
    csv = _cli_output(tmp_path, ["load-sweep", "--values", "1", "--trials", "1"], scenario)
    _, cellular, combined = csv.decode().splitlines()[1].split(",")
    assert float(cellular) > 1.5 and float(combined) >= float(cellular)


def test_cli_proc_delay_flag_beats_the_file(tmp_path):
    argv = ["topo1", "--values", "0.5", "--trials", "1"]
    no_delay = {"processing_delay": 0}
    delayed = _cli_output(tmp_path, [*argv, "--proc-delay", "3"], no_delay)
    assert delayed == _cli_output(tmp_path, [*argv, "--proc-delay", "3"])
    assert delayed != _cli_output(tmp_path, argv, no_delay)


def test_cli_nodes_and_seed_flags_beat_the_file_on_gen_topology(tmp_path):
    argv = ["gen-topology", "--nodes", "40", "--seed", "5"]
    flags = _cli_output(tmp_path, argv)
    # the file's one node fails validation unless --nodes replaces it
    assert _cli_output(tmp_path, argv, {"node_count": 1, "seed": 9}) == flags
    assert _cli_output(tmp_path, argv[:3], {"seed": 9}) != flags


def test_cli_seed_flag_beats_the_file_on_replay_trace(tmp_path):
    flags = _cli_output(tmp_path, ["replay-trace", "--seed", "5"], SMALL)
    assert _cli_output(tmp_path, ["replay-trace", "--seed", "5"], dict(SMALL, seed=9)) == flags
    assert _cli_output(tmp_path, ["replay-trace"], dict(SMALL, seed=9)) != flags
