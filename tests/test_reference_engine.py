"""The session engine against the reference engine of reference_engine.py,
on generated chains, relay stars and random cells with a backbone."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from hetnetcode import presets, topology
from hetnetcode.config import LOADING_MODES, RELAY_POLICIES, ScenarioConfig
from hetnetcode.simengine import NoPathError, run_session
from oracles import within_cut
from reference_engine import ReferenceSession


@st.composite
def configs(draw) -> ScenarioConfig:
    cellular = draw(st.booleans())
    # a session needs at least one interface
    wifi = draw(st.booleans()) if cellular else True
    if wifi:
        rates = {"r_cell": draw(st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0])),
                 "link_rate_override": draw(st.none() | st.floats(0.05, 1.5)),
                 "users_per_cell": draw(st.integers(1, 4))}
    else:
        # a cellular-only session skips ahead, and its k-slot jump sums
        # exactly as the slot loop's ticks only at dyadic rates (ROADMAP item 2)
        rates = {"r_cell": draw(st.integers(1, 128)) / 64,
                 "link_rate_override": draw(st.integers(1, 128)) / 64,
                 "users_per_cell": draw(st.sampled_from([1, 2, 4]))}
    return ScenarioConfig(
        block_size=draw(st.integers(1, 6)),
        buffer_capacity=draw(st.integers(1, 8)),
        **rates,
        loading_mode=draw(st.sampled_from(LOADING_MODES)),
        ack_delay=draw(st.integers(0, 3)),
        processing_delay=draw(st.integers(0, 3)),
        slot_budget=draw(st.integers(20, 300)),
        block_target=draw(st.integers(1, 3)),
        # a relay policy other than wifi-only needs the cellular interface
        relay_policy=draw(st.sampled_from(RELAY_POLICIES)) if cellular else "wifi-only",
        relay_p=draw(st.floats(0, 1)),
        cellular_enabled=cellular,
        wifi_enabled=wifi,
        wired_relay_rate=draw(st.floats(0.05, 3.0)),
        backbone_rate=draw(st.floats(0.5, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def scenarios(draw, kind: str):
    """(config, topology, pair or None): a WiFi chain, a wired relay star,
    or a random cell of at most 40 nodes with a backbone bus."""
    cfg = draw(configs())
    if kind == "chain":
        return presets.chain_scenario(cfg, draw(st.integers(1, 6)))
    if kind == "relay-star":
        n = draw(st.integers(1, 6))
        topo = topology.relay_star_topology(n, link_capacity=draw(st.floats(0.1, 2.0)),
                                            interfaces_per_node=draw(st.integers(1, 3)))
        return replace(cfg, node_count=n + 2, min_hops=2), topo, (0, n + 1)
    cfg = replace(cfg, node_count=draw(st.integers(8, 40)),
                  cell_radius=draw(st.floats(60.0, 250.0)),
                  backbone_fraction=draw(st.floats(0.05, 0.5)), min_hops=draw(st.integers(1, 2)))
    return cfg, presets.cell_topology(cfg, cfg.seed), None


@pytest.mark.parametrize("kind", ["chain", "relay-star", "cell"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_engine_matches_the_reference_engine(kind, data):
    """Equal stats, destination traces and radio schedules, slot by slot, and
    no more packets delivered than the session's cut carries; a cellular-only
    session skips ahead in the engine, and every session steps each slot in
    the reference engine."""
    cfg, topo, pair = data.draw(scenarios(kind))
    schedule_log = []
    try:
        stats, trace = run_session(cfg, topo, pair, schedule_log=schedule_log)
    except NoPathError:
        assume(False)
    want_stats, want_trace, want_log = ReferenceSession(cfg, topo, pair).run()
    assert stats == want_stats
    assert trace.events == want_trace.events
    assert schedule_log == want_log
    assert within_cut(cfg, topo, stats)


def _assert_matches_the_reference_engine(cfg, topo, pair):
    """Equal stats, traces and radio schedules from the engine and the
    reference engine."""
    schedule_log = []
    stats, trace = run_session(cfg, topo, pair, schedule_log=schedule_log)
    want_stats, want_trace, want_log = ReferenceSession(cfg, topo, pair).run()
    assert stats == want_stats
    assert trace.events == want_trace.events
    assert schedule_log == want_log


@pytest.mark.parametrize("seed", [3, 0, 1])
def test_probabilistic_relays_match_the_reference_engine(seed):
    """A fixed 3-hop chain whose relays choose cellular with p = 0.3, one
    relay-stream double per choice."""
    config = ScenarioConfig(link_rate_override=0.5, seed=seed,
                            relay_policy="probabilistic", relay_p=0.3)
    _assert_matches_the_reference_engine(*presets.chain_scenario(config, 3))


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("buffer_capacity", [1, 2])
def test_relay_send_credit_cap_matches_the_reference_engine(buffer_capacity, seed):
    """The topo2 testbed with 3 relays at 12 Mbit/s, whose relays receive
    faster than they forward, so each relay's send credit reaches its cap of
    buffer_capacity sends.  No generated chain shows the cap."""
    config = ScenarioConfig(buffer_capacity=buffer_capacity, seed=seed)
    _assert_matches_the_reference_engine(*presets.relay_star_scenario(config, 3, 12))
