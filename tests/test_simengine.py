import io
import json
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hetnetcode import gf256, presets, rlnc, routing, simengine, topology
from hetnetcode.config import (
    LOADING_MODES,
    RELAY_POLICIES,
    ConfigError,
    ScenarioConfig,
    SweepSpec,
    TopologyParams,
    config_from_dict,
    declared_types,
)
from hetnetcode.simengine import (
    EventTrace,
    NoPathError,
    TraceEvent,
    compare_modes,
    loaded_cellular_rate,
    pick_session_pair,
    run_session,
    schedule_wifi_slot,
)
from oracles import assert_next_draws_agree, brute_force_guard_ok, session_pair, session_rngs
from reference_engine import ReferenceSession


def chain_session(hops, seed=0, **overrides):
    topo = topology.chain_topology(hops)
    overrides.setdefault("min_hops", hops)
    cfg = ScenarioConfig(node_count=hops + 1, seed=seed, **overrides)
    return cfg, topo


# --- config and loading -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(block_size=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(slot_budget=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(loading_mode="fair-ish")
    with pytest.raises(ConfigError, match="min_hops"):
        ScenarioConfig(min_hops=0)
    ScenarioConfig()


def test_config_keys_are_pinned():
    # the field names are the JSON keys of a config file's scenario section
    assert {f.name for f in fields(ScenarioConfig)} == {
        "cell_radius", "wifi_range", "delta", "r_cell", "rate_tiers", "backbone_fraction",
        "backbone_rate", "node_count", "block_size", "buffer_capacity",
        "link_rate_override", "users_per_cell", "loading_mode", "ack_delay",
        "processing_delay", "min_hops", "slot_budget", "block_target", "relay_policy",
        "relay_p", "wifi_enabled", "cellular_enabled", "wired_relay_rate", "seed"}
    assert config_from_dict(ScenarioConfig, asdict(ScenarioConfig())) == ScenarioConfig()
    # the topology fields are inherited, never declared again
    inherited = {f.name for f in fields(TopologyParams)}
    assert not set(ScenarioConfig.__annotations__) & inherited


@pytest.mark.parametrize("cls", [ScenarioConfig, SweepSpec])
def test_config_reader_knows_every_declared_type(cls):
    # a field whose annotation the reader cannot map to JSON types would
    # fail only when a config file names it; the table raises KeyError on one
    declared = declared_types(cls)
    assert list(declared) == [f.name for f in fields(cls)]
    # and every default survives a JSON round trip through the reader
    assert config_from_dict(cls, json.loads(json.dumps(asdict(cls())))) == cls()


def test_config_from_dict_needs_an_object():
    # a config file's sections are checked to be objects before this reader
    with pytest.raises(ConfigError, match="ScenarioConfig settings must be an object"):
        config_from_dict(ScenarioConfig, [])


def test_session_rejects_its_source_as_destination():
    cfg, topo = chain_session(2)
    with pytest.raises(ConfigError, match="source and destination must differ"):
        run_session(cfg, topo, pair=(0, 0))


@pytest.mark.parametrize("make", [
    lambda: SweepSpec(trials="x"),
    lambda: SweepSpec(values="ab"),
    lambda: ScenarioConfig(block_size="x"),
    lambda: ScenarioConfig(seed=True),
    lambda: ScenarioConfig(relay_policy={"mode": "both"}),
    lambda: ScenarioConfig(wifi_enabled="no"),
    lambda: ScenarioConfig(link_rate_override="x"),
    lambda: ScenarioConfig(delta=float("nan")),
    lambda: ScenarioConfig(relay_p="x"),
    lambda: TopologyParams(rate_tiers="x"),
    lambda: ScenarioConfig(r_cell=10**400),  # an int with no finite float value
    lambda: SweepSpec(values=(0.5, 10**400)),
    lambda: ScenarioConfig(block_size=10**400),  # an int with no int64 value
    lambda: SweepSpec(trials=2**63),
])
def test_mistyped_config_built_in_python_is_a_config_error(make):
    # construction checks each field's declared type, as the JSON reader does
    with pytest.raises(ConfigError):
        make()


def test_int_field_takes_the_int64_range():
    ScenarioConfig(slot_budget=2**63 - 1)
    SweepSpec(workers=2**63 - 1)
    with pytest.raises(ConfigError, match="64-bit"):
        ScenarioConfig(slot_budget=2**63)
    # a seed of any size seeds a SeedSequence, and a sweep's trial seeds
    # (seed * TRIAL_SEED_STRIDE + trial) outgrow an int64 from seed
    # 2**63 // TRIAL_SEED_STRIDE
    ScenarioConfig(seed=10**30)
    presets.trial_config(ScenarioConfig(), 10**13, 1)


def cell_load(users: int, mode: str, cell_rate: float) -> ScenarioConfig:
    """A config whose cell of maximum rate cell_rate serves users users."""
    return ScenarioConfig(users_per_cell=users, loading_mode=mode, r_cell=cell_rate)


def test_loaded_cellular_rate_examples():
    for mode in ("equal-rate", "equal-time"):
        assert loaded_cellular_rate(4.0, cell_load(1, mode, 4.0)) == 4.0
    assert loaded_cellular_rate(4.0, cell_load(4, "equal-time", 4.0)) == 1.0
    # equal-rate is capped by the node's own supported rate
    assert loaded_cellular_rate(1.0, cell_load(2, "equal-rate", 4.0)) == 1.0
    assert loaded_cellular_rate(4.0, cell_load(8, "equal-rate", 4.0)) == 0.5


def test_loaded_cellular_rate_conservation_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cell_rate = float(rng.uniform(1, 8))
        users = int(rng.integers(1, 30))
        rates = rng.uniform(0.1, cell_rate, size=users)
        config = cell_load(users, "equal-rate", cell_rate)
        total = sum(loaded_cellular_rate(r, config) for r in rates)
        assert total <= cell_rate + 1e-9
    for mode in ("equal-rate", "equal-time"):
        vals = [loaded_cellular_rate(2.0, cell_load(u, mode, 4.0)) for u in range(1, 20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


# --- the WiFi slot scheduler -------------------------------------------------


def test_schedule_far_apart_both_admitted():
    topo = topology.chain_topology(1)
    # two parallel links 10 km apart never interfere
    params = TopologyParams()
    topo = topology.HetNetTopology(params, [(0, 0), (100, 0), (10000, 0), (10100, 0)])
    rng = np.random.default_rng(0)
    admitted = schedule_wifi_slot([(0, 1), (2, 3)], topo, rng, [0, 0])
    assert sorted(admitted) == [(0, 1), (2, 3)]


def test_schedule_adjacent_chain_exactly_one():
    topo = topology.chain_topology(3)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        admitted = schedule_wifi_slot([(0, 1), (1, 2)], topo, rng, [0, 0])
        assert len(admitted) == 1
        admitted = schedule_wifi_slot([(0, 1), (2, 3)], topo, rng, [0, 0])
        assert len(admitted) == 1  # 100 m guard: d(1,2)=100 < 120


def test_schedule_empty():
    topo = topology.chain_topology(1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert schedule_wifi_slot([], topo, rng, []) == []
    assert rng.bit_generator.state == state  # no jitter drawn


def test_schedule_admitted_sets_pass_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(60):
        pts = rng.uniform(0, 500, size=(10, 2))
        params = TopologyParams()
        topo = topology.HetNetTopology(params, pts)
        pending = [(i, j) for i in range(10) for j in topo.neighbors[i]]
        if not pending:
            continue
        admitted = schedule_wifi_slot(pending, topo, rng, [0] * len(pending))
        assert brute_force_guard_ok(topo, admitted)
        assert len(admitted) >= 1


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0, 300), st.floats(0, 300)), min_size=2,
                       max_size=12),
       delta=st.floats(0, 1), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_schedule_is_feasible_and_maximal(points, delta, seed, data):
    params = TopologyParams(delta=delta)
    topo = topology.HetNetTopology(params, points)
    links = [(i, j) for i in range(len(topo)) for j in topo.neighbors[i]]
    assume(links)
    pending = data.draw(st.lists(st.sampled_from(links), min_size=1, unique=True))
    priorities = data.draw(st.lists(st.integers(0, 3), min_size=len(pending),
                                    max_size=len(pending)))
    admitted = schedule_wifi_slot(pending, topo, np.random.default_rng(seed), priorities)
    assert set(admitted) <= set(pending)
    assert brute_force_guard_ok(topo, admitted)
    # maximal: every pair left out shares a radio with the admitted set or
    # breaks the guard in one direction or the other
    busy = {node for pair in admitted for node in pair}
    for tx, rx in set(pending) - set(admitted):
        assert tx in busy or rx in busy or not brute_force_guard_ok(topo, admitted + [(tx, rx)])


# --- single-path sanity checks (hand-derived schedules) ----------------------


def test_single_wifi_hop_saturates():
    cfg, topo = chain_session(1, cellular_enabled=False, ack_delay=0,
                              block_target=3, slot_budget=400)
    stats, trace = run_session(cfg, topo, pair=(0, 1))
    assert stats.decode_slots == [20, 40, 60]
    assert stats.relative_throughput == 1.0
    assert stats.cellular_sent == 0


def test_cellular_pipe_half_rate():
    cfg, topo = chain_session(1, wifi_enabled=False, link_rate_override=0.5,
                              block_target=3, slot_budget=600, min_hops=1)
    stats, trace = run_session(cfg, topo, pair=(0, 1))
    assert stats.decode_slots == [40, 80, 120]
    assert stats.relative_throughput == 0.5
    assert stats.wifi_sent == 0
    assert all(ev.interface == "cellular" for ev in trace)


def test_subnormal_cellular_rate_runs_out_the_budget():
    # 1 / 1e-320 overflows to inf: the wait to the first packet is cut to
    # the slot budget before its ceiling is taken
    cfg, topo = chain_session(1, wifi_enabled=False, link_rate_override=1e-320,
                              slot_budget=500, min_hops=1)
    session = simengine._Session(cfg, topo, (0, 1), None)
    stats, trace = session.run()
    assert session.slot == cfg.slot_budget
    assert stats.blocks_delivered == 0 and stats.cellular_sent == 0
    assert stats.slots_elapsed == cfg.slot_budget
    assert len(trace) == 0


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: simengine._tick clips value + rate at _Credit.limit = max(1, rate) "
    "before the slot's take, so a busy pipe below rate 1 releases one packet per "
    "ceil(1/rate) slots"))
@pytest.mark.parametrize("link_rate", [0.6, 0.75, 0.9])
def test_cellular_pipe_keeps_its_fractional_credit(link_rate):
    cfg, topo = chain_session(1, wifi_enabled=False, link_rate_override=link_rate,
                              block_target=3, slot_budget=600, min_hops=1)
    stats, _ = run_session(cfg, topo, pair=(0, 1))
    assert stats.relative_throughput > 0.5


@pytest.mark.parametrize("link_rate", [
    0.37,
    pytest.param(0.1, marks=pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md: ten slot-by-slot ticks of 0.1 sum to 0.9999999999999999 < 1, "
        "so the slot loop sends each packet one slot after the skip-ahead path does"))),
])
def test_fast_path_matches_slot_by_slot(link_rate):
    cfg, topo = chain_session(1, wifi_enabled=False, link_rate_override=link_rate,
                              block_target=2, slot_budget=800, min_hops=1)
    fast, ftrace = run_session(cfg, topo, pair=(0, 1))
    slow, strace, _ = ReferenceSession(cfg, topo, (0, 1)).run()
    assert fast == slow
    assert [(e.slot, e.block_id, e.innovative) for e in ftrace] == \
        [(e.slot, e.block_id, e.innovative) for e in strace]


@settings(max_examples=300, deadline=None)
@given(link=st.integers(1, 128), cell=st.integers(1, 128), users=st.sampled_from([1, 2, 4, 8]),
       loading=st.sampled_from(LOADING_MODES), ack_delay=st.integers(0, 4),
       block_size=st.integers(1, 8))
def test_fast_path_matches_slot_by_slot_on_dyadic_rates(link, cell, users, loading,
                                                        ack_delay, block_size):
    """Every cellular-only CSV value comes from _skip_ahead.  Rates of k/64,
    loaded by a power-of-two user count, are dyadic, so each credit sum is
    exact and skipping must agree with the reference engine's slot loop to
    the slot."""
    cfg, topo = chain_session(1, wifi_enabled=False, link_rate_override=link / 64,
                              r_cell=cell / 64, users_per_cell=users, loading_mode=loading,
                              ack_delay=ack_delay, block_size=block_size, block_target=3,
                              slot_budget=1500, min_hops=1)
    fast, ftrace = run_session(cfg, topo, pair=(0, 1))
    slow, strace, _ = ReferenceSession(cfg, topo, (0, 1)).run()
    assert fast == slow
    assert ftrace.events == strace.events


def two_hop_decode_oracle(block_size, blocks):
    """Hand-rolled 2-hop schedule: the relay alternates receive/transmit,
    so the destination banks one packet every 2 slots and each block
    completes 2*block_size slots after the previous one (zero delays)."""
    return [2 * block_size * b for b in range(1, blocks + 1)]


def test_two_hop_relay_alternation():
    cfg, topo = chain_session(2, cellular_enabled=False, ack_delay=0,
                              block_target=2, slot_budget=400)
    stats, trace = run_session(cfg, topo, pair=(0, 2))
    assert stats.decode_slots == two_hop_decode_oracle(20, 2)
    assert stats.relative_throughput == 0.5


def test_long_chain_saturates_near_one_third():
    log = []
    cfg, topo = chain_session(7, cellular_enabled=False, block_target=5, slot_budget=2000)
    stats, trace = run_session(cfg, topo, pair=(0, 7), schedule_log=log)
    assert 0.25 <= stats.relative_throughput <= 0.35
    # spatial reuse: concurrent transmissions happen constantly
    multi = sum(1 for _, adm in log if len(adm) >= 2)
    assert multi > len(log) * 0.8
    for _, admitted in log:
        assert brute_force_guard_ok(topo, admitted)


def test_processing_delay_slows_chain():
    base_cfg, topo = chain_session(7, cellular_enabled=False, block_target=3, slot_budget=3000)
    base, _ = run_session(base_cfg, topo, pair=(0, 7))
    slow_cfg, _ = chain_session(7, cellular_enabled=False, block_target=3,
                                slot_budget=3000, processing_delay=3)
    slow, _ = run_session(slow_cfg, topo, pair=(0, 7))
    assert slow.relative_throughput < base.relative_throughput


# --- transport: ACKs, stale blocks, traces -----------------------------------


def test_ack_gating_and_stale_discards():
    cfg, topo = chain_session(2, cellular_enabled=False, ack_delay=1,
                              block_target=3, slot_budget=500)
    stats, trace = run_session(cfg, topo, pair=(0, 2))
    events = list(trace)
    # the source never leaks block b+1 before the ACK for b could have arrived
    for b, decode_slot in enumerate(stats.decode_slots):
        later = [ev for ev in events if ev.block_id == b + 1]
        if later:
            assert min(ev.slot for ev in later) > decode_slot + cfg.ack_delay
    # stale forwarding: relays keep sending block b after it was decoded
    stale = [ev for ev in events if not ev.innovative]
    for b, decode_slot in enumerate(stats.decode_slots[:-1]):
        assert any(ev.block_id == b and ev.slot > decode_slot for ev in stale)
    # exactly block_size innovative arrivals per delivered block
    for b in range(stats.blocks_delivered):
        n = sum(1 for ev in events if ev.block_id == b and ev.innovative)
        assert n == cfg.block_size


def test_trace_slots_non_decreasing_and_destination_only():
    cfg, topo = chain_session(3, cellular_enabled=False, block_target=2, slot_budget=500)
    stats, trace = run_session(cfg, topo, pair=(0, 3))
    slots = [ev.slot for ev in trace]
    assert slots == sorted(slots)
    assert {ev.node for ev in trace} == {3}


def test_event_trace_rejects_time_travel():
    tr = EventTrace()
    tr.append(TraceEvent(5, 0, "wifi", 0, True))
    with pytest.raises(ValueError):
        tr.append(TraceEvent(4, 0, "wifi", 0, True))


def test_run_session_deterministic():
    cfg, topo = chain_session(4, block_target=2, slot_budget=800, link_rate_override=0.3)
    a_stats, a_trace = run_session(cfg, topo, pair=(0, 4))
    b_stats, b_trace = run_session(cfg, topo, pair=(0, 4))
    assert a_stats == b_stats
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a_trace.write_csv(buf_a)
    b_trace.write_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_no_path_error():
    params = TopologyParams()
    topo = topology.HetNetTopology(params, [(0, 0), (5000, 0)])
    cfg = ScenarioConfig(node_count=2, cellular_enabled=False, min_hops=1)
    with pytest.raises(NoPathError):
        run_session(cfg, topo, pair=(0, 1))


def test_pick_session_pair_min_hops_and_determinism():
    rng = np.random.default_rng(11)
    topo = topology.generate(300, rng, TopologyParams(cell_radius=400.0))
    for seed in range(5):
        cfg = ScenarioConfig(node_count=300, cell_radius=400.0, seed=seed, min_hops=2)
        a = pick_session_pair(topo, cfg)
        b = pick_session_pair(topo, cfg)
        assert a == b
        assert topo.routes.distances_to(a[1])[a[0]] >= 2
    with pytest.raises(NoPathError):
        pick_session_pair(topo, replace(cfg, min_hops=10_000))


# one topology for every example, so that its route table is built once
_PICK_TOPOLOGY = topology.generate(120, np.random.default_rng(11), TopologyParams(cell_radius=400.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), min_hops=st.integers(1, 4))
def test_the_pair_is_drawn_from_the_first_session_stream(seed, min_hops):
    """pick_session_pair, which both the sessions and the presets call, picks
    what the oracle's pick gives on oracles.session_rngs(seed)[0], the pair
    stream."""
    topo = _PICK_TOPOLOGY
    cfg = ScenarioConfig(node_count=len(topo), cell_radius=400.0, seed=seed, min_hops=min_hops)
    want = session_pair(topo, min_hops, session_rngs(seed)[0])
    if want is None:
        with pytest.raises(NoPathError):
            pick_session_pair(topo, cfg)
    else:
        assert pick_session_pair(topo, cfg) == want


# --- mode comparison ----------------------------------------------------------


def test_compare_modes_superset_dominance():
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence((9, seed)))
        cfg = ScenarioConfig(node_count=250, cell_radius=400.0, seed=seed,
                             link_rate_override=0.2, r_cell=0.2,
                             block_target=2, slot_budget=2500)
        topo = topology.generate(cfg.node_count, rng, cfg.topology_params())
        cell, comb = compare_modes(cfg, topo)
        assert comb.relative_throughput >= cell.relative_throughput
        assert cell.source == comb.source
        assert cell.destination == comb.destination
        assert cell.wifi_sent == 0


def test_compare_modes_blocks_dominance_under_budget():
    # budget-bound runs: the combined path set can only add delivered blocks
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence((13, seed)))
        cfg = ScenarioConfig(node_count=250, cell_radius=400.0, seed=seed,
                             link_rate_override=0.15, r_cell=0.15,
                             block_target=1000, slot_budget=700)
        topo = topology.generate(cfg.node_count, rng, cfg.topology_params())
        cell, comb = compare_modes(cfg, topo)
        assert comb.blocks_delivered >= cell.blocks_delivered


def test_sessions_on_one_topology_build_its_routes_once(monkeypatch):
    built = []
    real_build_routes = routing.build_routes

    def counted(topo):
        built.append(topo)
        return real_build_routes(topo)

    monkeypatch.setattr(routing, "build_routes", counted)
    cfg = ScenarioConfig(node_count=250, cell_radius=400.0, seed=1, link_rate_override=0.2,
                         r_cell=0.2, block_target=1, slot_budget=1500)
    cell = presets.cell_topology(cfg, cfg.seed)
    compare_modes(cfg, cell)  # two sessions, each picking its pair on the routes
    assert built == [cell]
    cfg, chain = chain_session(3, block_target=1, slot_budget=500)
    run_session(cfg, chain, pair=(0, 3))
    run_session(cfg, chain)
    assert built == [cell, chain]
    assert cell.routes.topology is cell and chain.routes.topology is chain


# --- backbone and relay policies ----------------------------------------------


def test_backbone_shortcut_speeds_up_session():
    cfg = ScenarioConfig(node_count=250, cell_radius=400.0, seed=3,
                         link_rate_override=0.1, r_cell=0.1,
                         block_target=2, slot_budget=3000)
    rng = np.random.default_rng(np.random.SeedSequence((21, 3)))
    topo = topology.generate(cfg.node_count, rng, cfg.topology_params())
    pair = pick_session_pair(topo, cfg)
    adhoc, _ = run_session(cfg, topo, pair=pair)

    cfg_bb = ScenarioConfig(node_count=250, cell_radius=400.0, seed=3,
                            link_rate_override=0.1, r_cell=0.1,
                            backbone_fraction=1.0, block_target=2, slot_budget=3000)
    rng = np.random.default_rng(np.random.SeedSequence((21, 3)))
    topo_bb = topology.generate(cfg_bb.node_count, rng, cfg_bb.topology_params())
    infra, _ = run_session(cfg_bb, topo_bb, pair=pair)
    assert infra.wired_sent > 0
    assert infra.relative_throughput >= adhoc.relative_throughput


def test_relay_cellular_policies_run():
    for policy in ("cellular-only", "round-robin", "duplicate"):
        cfg, topo = chain_session(2, link_rate_override=1.0,
                                  relay_policy=policy,
                                  block_target=2, slot_budget=500)
        log = []
        stats, trace = run_session(cfg, topo, pair=(0, 2), schedule_log=log)
        assert stats.blocks_delivered == 2
        # every admitted radio transmission sends one packet, duplicates included
        assert stats.wifi_sent == sum(len(admitted) for _, admitted in log)
        again, _ = run_session(cfg, topo, pair=(0, 2))
        assert again == stats


def test_policy_validation():
    with pytest.raises(ConfigError, match="unknown relay policy 'carrier-pigeon'"):
        ScenarioConfig(relay_policy="carrier-pigeon")
    # a mode of the nested policy object in older config files, not a policy
    with pytest.raises(ConfigError, match="unknown relay policy 'both'"):
        ScenarioConfig(relay_policy="both")
    for p in (1.5, -0.1):
        with pytest.raises(ConfigError, match=r"relay_p must lie in \[0, 1\]"):
            ScenarioConfig(relay_policy="probabilistic", relay_p=p)
    for p in (0, 1):
        ScenarioConfig(relay_policy="probabilistic", relay_p=p)


def policy_session(seed=0, **policy):
    """A fresh session on a 2-hop chain under the relay_policy and relay_p
    fields of policy, and its relay."""
    cfg, topo, pair = presets.chain_scenario(ScenarioConfig(seed=seed, **policy), 2)
    session = simengine._Session(cfg, topo, pair, None)
    return session, session._relay(1)


def test_interfaces_fixed_modes():
    session, relay = policy_session(relay_policy="wifi-only")
    for _ in range(5):
        assert session._interfaces(relay) == (False, True)
    session, relay = policy_session(relay_policy="duplicate")
    assert session._interfaces(relay) == (True, True)
    session, relay = policy_session(relay_policy="cellular-only")
    assert session._interfaces(relay) == (True, False)


def test_interfaces_round_robin_even_split():
    session, relay = policy_session(relay_policy="round-robin")
    picks = [session._interfaces(relay) for _ in range(100)]
    assert picks[0] == (False, True)  # WiFi first
    assert picks.count((False, True)) == 50
    assert picks.count((True, False)) == 50
    assert picks[0] != picks[1]


def test_interfaces_probabilistic():
    session, relay = policy_session(relay_policy="probabilistic", relay_p=1.0)
    assert session._interfaces(relay) == (True, False)
    session, relay = policy_session(seed=1, relay_policy="probabilistic", relay_p=0.25)
    picks = [session._interfaces(relay) for _ in range(2000)]
    assert 0.2 < picks.count((True, False)) / 2000 < 0.3


@pytest.mark.parametrize("policy", [{"relay_policy": name} for name in RELAY_POLICIES])
def test_only_the_probabilistic_schedule_draws_from_the_relay_stream(policy):
    """One double per choice, so each later recode draws where it did."""
    session, relay = policy_session(seed=7, **policy)
    for _ in range(25):
        session._interfaces(relay)
    want = session_rngs(7)[3]
    want.random(25 if policy["relay_policy"] == "probabilistic" else 0)
    assert_next_draws_agree(session.rng_relay, want)


def _with_relay_budgets(topo, n_relays, link_capacity):
    """topo with each relay's out and in budget put back at its access
    links' capacity, as relay_star_topology once stated them."""
    relays = dict.fromkeys(range(1, n_relays + 1), link_capacity)
    wired = topology.WiredSpec(edges=topo.wired.edges, edge_capacity=topo.wired.edge_capacity,
                               node_out={**topo.wired.node_out, **relays},
                               node_in={**topo.wired.node_in, **relays})
    return topology.HetNetTopology(topo.params, topo.positions, wired=wired)


@pytest.mark.parametrize("interfaces", [1, 2, 3])
def test_relay_budgets_never_bind_before_their_links(interfaces):
    """A relay's node budget would be a second credit at its one link's
    rate, spent in the same sends, so dropping it moves nothing."""
    base = ScenarioConfig(block_target=2)
    for n in range(1, 7):
        for rate in presets.TOPO2_RATES:
            cfg, _, pair = presets.relay_star_scenario(base, n, rate)
            link = rate / presets.TOPO2_REFERENCE_RATE
            topo = topology.relay_star_topology(n, link, interfaces_per_node=interfaces)
            stats, trace = run_session(cfg, topo, pair=pair)
            want_stats, want_trace = run_session(cfg, _with_relay_budgets(topo, n, link),
                                                 pair=pair)
            assert stats == want_stats and stats.blocks_delivered == 2, (n, rate)
            assert trace.events == want_trace.events, (n, rate)


def test_relay_star_wired_flow():
    topo = topology.relay_star_topology(3, link_capacity=1.0)
    cfg = ScenarioConfig(node_count=5, cellular_enabled=False, min_hops=2,
                         wired_relay_rate=0.125, block_target=2, slot_budget=5000)
    stats, trace = run_session(cfg, topo, pair=(0, 4))
    assert stats.blocks_delivered == 2
    assert stats.wifi_sent == 0 and stats.cellular_sent == 0
    assert stats.wired_sent > 0
    assert all(ev.interface == "wired" for ev in trace)


def test_wifi_disabled_turns_off_every_non_cellular_interface():
    # wifi_enabled=False leaves the cellular pipe alone: no WiFi, wired access
    # link or backbone bus sends, as compare_modes' cellular-only half needs
    cfg, topo, pair = presets.relay_star_scenario(ScenarioConfig(seed=3), 4, 54.0)
    stats, _ = run_session(replace(cfg, wifi_enabled=False, cellular_enabled=True), topo,
                           pair=pair)
    assert stats.wired_sent == stats.wifi_sent == 0
    assert stats.cellular_sent > 0 and stats.blocks_delivered == cfg.block_target
    cfg = ScenarioConfig(node_count=250, cell_radius=400.0, backbone_fraction=0.2, seed=3,
                         link_rate_override=0.2, r_cell=0.2, block_target=2, slot_budget=2500)
    topo = presets.cell_topology(cfg, cfg.seed)
    assert len(topo.backbone) > 1
    cellular_only, combined = compare_modes(cfg, topo)
    assert cellular_only.wired_sent == cellular_only.wifi_sent == 0
    assert cellular_only.cellular_sent > 0
    assert combined.wired_sent > 0 and combined.wifi_sent > 0


def _route_test_session(name):
    """(config, topology, pair) of one of the route-cache test scenarios."""
    if name == "relay-star":
        return presets.relay_star_scenario(ScenarioConfig(seed=3), 6, 54.0)
    if name == "chain-round-robin":
        return presets.chain_scenario(
            ScenarioConfig(seed=3, link_rate_override=0.5, relay_policy="round-robin"), 3)
    cfg = ScenarioConfig(node_count=250, cell_radius=400.0, backbone_fraction=0.2, seed=3)
    return cfg, presets.cell_topology(cfg, cfg.seed), None


@pytest.mark.parametrize("name", ["relay-star", "chain-round-robin", "bus-cell"])
def test_session_looks_up_each_route_once(monkeypatch, name):
    cfg, topo, pair = _route_test_session(name)
    calls = Counter()
    real_next_hops = routing.RouteTable.next_hops

    def counted(self, node, dst, interface):
        calls[node, interface] += 1
        return real_next_hops(self, node, dst, interface)

    monkeypatch.setattr(routing.RouteTable, "next_hops", counted)
    session = simengine._Session(cfg, topo, pair, None)
    stats, _ = session.run()
    assert stats.blocks_delivered == cfg.block_target
    assert calls and max(calls.values()) == 1
    assert session.relays
    assert session.relay_order == tuple(sorted(session.relays))


def test_session_check_catches_payload_that_disagrees_with_coefficients(monkeypatch):
    """Relays whose payload combines the buffer with other weights than the
    coefficients they send: only the session's 8-byte check payload can tell."""
    cfg, topo = chain_session(3, cellular_enabled=False, block_target=2, slot_budget=1000)
    stats, _ = run_session(cfg, topo, pair=(0, 3))
    assert stats.blocks_delivered == 2
    real_recode = rlnc.recode
    other = np.random.default_rng(99)

    def mismatched_recode(buffer, rng):
        pkt = real_recode(buffer, rng)
        weights = other.integers(1, 256, size=(1, len(buffer)), dtype=np.uint8)
        payloads = np.stack([p.payload for p in buffer.packets])
        return rlnc.CodedPacket(pkt.block_id, pkt.m, pkt.coefficients.tobytes()
                                + gf256.weighted_row_sum(weights, payloads)[0].tobytes())

    monkeypatch.setattr(rlnc, "recode", mismatched_recode)
    with pytest.raises(AssertionError, match="does not match the source block"):
        run_session(cfg, topo, pair=(0, 3))


def test_numpy_kernel_serves_only_the_encodes(monkeypatch):
    """Over a chain session, WiFi and wired encodes, relay recodes and
    destination receives run on bytes rows: gf256.weighted_row_sum is called
    only by rlnc.coded_packets, once per batch of cellular packets, with a
    weight matrix, and never from encode, recode or receive."""
    cfg, topo = chain_session(4, block_target=3, slot_budget=2000)
    calls = Counter()
    active = []  # the counted calls under way, outermost first

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            if name == "weighted_row_sum":
                calls["weighted_row_sum", np.ndim(args[0]), tuple(active)] += 1
            active.append(name)
            try:
                return real(*args)
            finally:
                active.pop()
        monkeypatch.setattr(owner, name, counted)

    counting(gf256, "weighted_row_sum")
    counting(rlnc, "encode")
    counting(rlnc, "coded_packets")
    counting(rlnc, "recode")
    counting(rlnc.DecoderState, "receive")
    stats, _ = run_session(cfg, topo, pair=(0, 4))
    assert stats.blocks_delivered == 3
    assert all(calls[name] > 0 for name in ("encode", "coded_packets", "recode", "receive"))
    assert stats.cellular_sent > calls["coded_packets"]
    assert calls["weighted_row_sum"] == calls["coded_packets"]
    assert calls["weighted_row_sum", 2, ("coded_packets",)] == calls["coded_packets"]


@settings(max_examples=60, deadline=None)
@given(block_size=st.integers(1, 6), ack_delay=st.integers(0, 3),
       pipe=st.sampled_from([0.05, 0.3, 0.7, 1.0, 1.5, 2.5, 4.0]), hops=st.integers(1, 4),
       wifi=st.booleans(), block_target=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
@example(block_size=4, ack_delay=0, pipe=0.7, hops=2, wifi=True, block_target=3, seed=1)
@example(block_size=6, ack_delay=3, pipe=2.5, hops=1, wifi=True, block_target=2, seed=2)
@example(block_size=3, ack_delay=2, pipe=1.5, hops=3, wifi=False, block_target=4, seed=3)
def test_cellular_packets_are_the_encodes_of_the_cellular_stream(
        block_size, ack_delay, pipe, hops, wifi, block_target, seed):
    """The source's cellular packets, combined a block's worth at a time and
    recombined when the source advances a block, are byte for byte the
    packets per-packet encodes of oracles.session_rngs(seed)[1] give from
    the block the source holds at each send."""
    cfg, topo = chain_session(hops, seed=seed, block_size=block_size, ack_delay=ack_delay,
                              r_cell=4.0, link_rate_override=pipe, wifi_enabled=wifi,
                              block_target=block_target, slot_budget=400)
    sends = []
    real_emit = simengine._Session._emit

    def recording_emit(session, node, interface):
        pkt = real_emit(session, node, interface)
        if interface == "cellular":
            sends.append((session.block, pkt))
        return pkt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine._Session, "_emit", recording_emit)
        stats, _ = run_session(cfg, topo, pair=(0, hops))
    assert len(sends) == stats.cellular_sent
    rng = session_rngs(seed)[1]
    for block, pkt in sends:
        assert pkt == rlnc.encode(block, rng)
