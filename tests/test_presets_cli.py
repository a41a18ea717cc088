import json
import math
import statistics
from collections import Counter

import numpy as np
import pytest

from hetnetcode import cli, presets, simengine
from hetnetcode.config import (
    TRIAL_SEED_STRIDE,
    ConfigError,
    ScenarioConfig,
    SweepSpec,
)
from hetnetcode.presets import (
    format_rows,
    preset_infra_sweep,
    preset_load_sweep,
    preset_rate_sweep,
    preset_topo1,
    preset_topo2,
)
from hetnetcode.simengine import compare_modes
from oracles import load
from rejected_inputs import FLAG_CASES, SCENARIO_CASES, SECTION_CASES, broken_through_main

SMALL = {"node_count": 250, "cell_radius": 400.0}


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(trials=0)
    with pytest.raises(ConfigError):
        SweepSpec(values=())
    with pytest.raises(ConfigError):
        SweepSpec(values=(0.5, float("nan")))
    # sweep values built in Python get the checks a config file's do
    for values in (("a",), (True,), (0.5, float("inf")), "ab"):
        with pytest.raises(ConfigError):
            SweepSpec(values=values)
    # explicit values, else the preset's defaults
    assert SweepSpec(values=(0.5, 0.75, 1.0)).sweep_values((1, 2)) == [0.5, 0.75, 1.0]
    assert SweepSpec().sweep_values((1, 2)) == [1, 2]


def test_cli_has_no_sweep_range_flags(capsys):
    # argparse rejects a flag it does not know, so --min is never silently ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate-sweep", "--min", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --min 0.1" in capsys.readouterr().err


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


def test_rate_sweep_stderr_is_the_combined_trials_standard_error():
    # each row rebuilt from its trials through public calls: the trial means
    # and the sample standard error of the combined values, which differ
    # between trials here while the pinned cellular-only values do not
    trials, seed, ratios = 4, 0, (0.1, 0.5)
    scenario = dict(SMALL, block_target=3, slot_budget=4000)
    _, rows = preset_rate_sweep(SweepSpec(values=ratios, trials=trials, seed=seed,
                                          scenario=scenario))
    base = ScenarioConfig(**scenario)
    topos = [presets.cell_topology(base, seed, t) for t in range(trials)]
    for ratio, row in zip(ratios, rows, strict=True):
        cell, comb = [], []
        for t in range(trials):
            cfg = presets.trial_config(base, seed, t, **presets.rate_fields(ratio))
            cell_stats, comb_stats = compare_modes(cfg, topos[t], None)
            cell.append(cell_stats.relative_throughput)
            comb.append(comb_stats.relative_throughput)
        stderr = statistics.stdev(comb) / math.sqrt(trials)
        assert row == pytest.approx((ratio, statistics.mean(cell), statistics.mean(comb),
                                     stderr), rel=1e-12, abs=1e-15)
    assert all(row[3] > 0.01 for row in rows)


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


@pytest.mark.parametrize("preset", [preset_rate_sweep, preset_load_sweep])
def test_a_comparison_sweep_picks_one_pair_per_trial(monkeypatch, preset):
    """Every session of a trial runs between one pair, picked once: not by
    each of the 2 x points sessions again."""
    picks = []
    pick = simengine.pick_session_pair

    def counted(*args):
        picks.append(args)
        return pick(*args)

    monkeypatch.setattr(simengine, "pick_session_pair", counted)
    monkeypatch.setattr(presets, "pick_session_pair", counted)
    preset(SweepSpec(values=(1, 2, 4), trials=3, seed=6, scenario=SMALL))
    assert len(picks) == 3


def test_a_comparison_trial_runs_the_sessions_that_pick_their_own_pair(monkeypatch):
    """Each compare_modes call of a rate sweep gives the stats, source and
    destination included, of the same call with no pair given, whose
    sessions pick the pair from their own first stream."""
    calls = []

    def recorded(cfg, topo, pair):
        calls.append((cfg, topo, compare_modes(cfg, topo, pair)))
        return calls[-1][2]

    monkeypatch.setattr(presets, "compare_modes", recorded)
    preset_rate_sweep(SweepSpec(values=(0.5, 2.0), trials=3, seed=2, scenario=SMALL))
    assert len(calls) == 6
    for cfg, topo, stats in calls:
        assert stats == compare_modes(cfg, topo, None)


@pytest.mark.parametrize("policy", ["wifi-only", "duplicate"], ids=["wifi-only", "both-duplicate"])
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
    from hetnetcode import simengine, topology

    spec = SweepSpec(values=(0.5,), trials=2, seed=8)
    _, rows = preset_topo1(spec)
    base = presets.scenario_config(spec.scenario, node_count=8, min_hops=7,
                                   block_target=3, slot_budget=6000)
    topo = topology.chain_topology(7, base.topology_params())
    cell_vals, comb_vals = [], []
    for trial in range(2):
        cfg = presets.trial_config(base, 8, trial, link_rate_override=0.5, r_cell=0.5)
        cell, comb = simengine.compare_modes(cfg, topo, pair=(0, 7))
        cell_vals.append(cell.relative_throughput)
        comb_vals.append(comb.relative_throughput)
    assert rows[0][1] == pytest.approx(sum(cell_vals) / 2, abs=1e-12)
    assert rows[0][2] == pytest.approx(sum(comb_vals) / 2, abs=1e-12)


def test_topo2_linear_scaling_quick(monkeypatch):
    monkeypatch.setattr(presets, "TOPO2_RATES", (54,))
    spec = SweepSpec(values=(2, 4), trials=2, seed=9)
    header, rows = preset_topo2(spec)
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
    with open(out) as fh:
        topo = load(fh)
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


@pytest.mark.parametrize("argv", [
    ["rate-sweep", "--values", "0.5", "--trials", "1"],
    ["replay-trace", "--chain-hops", "2"],
])
def test_cli_prints_to_stdout_the_bytes_out_writes(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


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


# each case is a tuple of row ids of tests/rejected_inputs.py, and pytest
# names it by the argument and its index
@pytest.mark.parametrize("argv", FLAG_CASES)
def test_cli_rejects_bad_flag_values(tmp_path, capsys, argv):
    assert broken_through_main(cli.main, argv, tmp_path, capsys) == {}


@pytest.mark.parametrize("section", SECTION_CASES)
def test_cli_rejects_bad_config_sections(tmp_path, capsys, section):
    assert broken_through_main(cli.main, section, tmp_path, capsys) == {}


@pytest.mark.parametrize("scenario", SCENARIO_CASES)
def test_cli_rejects_bad_scenario_values(tmp_path, capsys, scenario):
    assert broken_through_main(cli.main, scenario, tmp_path, capsys) == {}


def test_out_of_memory_is_a_runtime_error(monkeypatch, capsys):
    # as numpy raises it for --nodes 10000000000 or a block_size of 1e10
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(presets, "cell_topology", exhausted)
    assert run_cli(["gen-topology", "--nodes", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 149. GiB for an array\n"


@pytest.mark.parametrize("exc, reason", [(MemoryError(), "out of memory"),
                                         (ValueError(), "ValueError")])
def test_a_runtime_error_without_a_message_still_names_the_failure(monkeypatch, capsys,
                                                                   exc, reason):
    """A sweep that runs out of memory before numpy can say how much, as a
    topology built node by node does, exits 1 with a reason on stderr."""
    def exhausted(spec):
        raise exc

    monkeypatch.setitem(presets.PRESETS, "rate-sweep", exhausted)
    assert run_cli(["rate-sweep", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"


def test_config_coercion_keeps_json_values():
    sc = presets.scenario_config({
        "relay_policy": "probabilistic", "relay_p": 1, "rate_tiers": [[0.5, 1], [1.0, 0.5]],
        "link_rate_override": 2})
    assert (sc.relay_policy, sc.relay_p) == ("probabilistic", 1)
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


def test_trials_are_bounded_by_the_trial_seed_stride():
    # past the stride, sweep seed s would run the trial seeds of s + 1
    SweepSpec(trials=TRIAL_SEED_STRIDE)
    with pytest.raises(ConfigError, match=str(TRIAL_SEED_STRIDE)):
        SweepSpec(trials=TRIAL_SEED_STRIDE + 1)
