"""Metamorphic relations over the session engine: pairs of runs whose
outputs must relate in a known way, with no oracle for either run (Chen,
Cheung & Yiu, HKUST-CS98-01, 1998), on the reference-engine scenarios."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hetnetcode import presets, simengine
from hetnetcode.config import ForwardPolicy
from hetnetcode.simengine import NoPathError, pick_session_pair, run_session
from hetnetcode.topology import HetNetTopology
from test_reference_engine import scenarios

KINDS = ["chain", "relay-star", "cell"]


def _run(cfg, topo, pair):
    """(stats, trace events) of one session."""
    try:
        stats, trace = run_session(cfg, topo, pair)
    except NoPathError:
        assume(False)
    return stats, trace.events


def _with_pair(cfg, topo, pair):
    """pair, or the one the session would pick when it is None."""
    if pair is None:
        try:
            pair = pick_session_pair(topo, cfg)
        except NoPathError:
            assume(False)
    return pair


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_lower_block_target_gives_a_prefix(kind, data):
    """block_target t gives the first t decode slots of a run at a larger
    target, and its trace up to the t-th decode."""
    cfg, topo, pair = data.draw(scenarios(kind))
    t = cfg.block_target
    stats, trace = _run(cfg, topo, pair)
    more, more_trace = _run(replace(cfg, block_target=t + data.draw(st.integers(1, 3))), topo,
                            pair)
    assert stats.decode_slots == more.decode_slots[:t]
    assert stats.blocks_delivered == min(t, more.blocks_delivered)
    # a run short of its target ran its whole budget
    last = stats.decode_slots[-1] if stats.blocks_delivered == t else cfg.slot_budget
    assert trace == [ev for ev in more_trace if ev.slot <= last]


def _with_isolated_node(topo: HetNetTopology) -> HetNetTopology:
    """topo and one more node, out of every node's WiFi range and with no
    wired edge."""
    far = np.abs(topo.positions).max() + 2 * topo.params.wifi_range
    return HetNetTopology(topo.params, np.vstack([topo.positions, [far, far]]),
                          np.append(topo.cell_ids, topo.cell_ids[0]),
                          np.append(topo.cellular_rates, topo.params.r_cell),
                          topo.backbone, topo.wired)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_an_isolated_node_changes_nothing(kind, data):
    """A node that no link reaches changes no stat and no trace event of a
    session between the same pair."""
    cfg, topo, pair = data.draw(scenarios(kind))
    pair = _with_pair(cfg, topo, pair)
    bigger = _with_isolated_node(topo)
    assert not bigger.links[-1] and not any(len(topo) in links for links in bigger.links)
    assert _run(replace(cfg, node_count=len(bigger)), bigger, pair) == _run(cfg, topo, pair)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_payload_stream_changes_nothing(kind, data):
    """A session whose block payloads come from another generator has the
    same stats and trace: no decision depends on a payload byte."""
    cfg, topo, pair = data.draw(scenarios(kind))
    if cfg.cellular_enabled and data.draw(st.booleans()):
        cfg = replace(cfg, relay_policy=ForwardPolicy(mode="both", both_mode="probabilistic",
                                                      p=data.draw(st.floats(0.05, 0.95))))
    other = data.draw(st.integers(0, 2**32 - 1))
    session_draws = simengine.session_draws

    def other_payloads(seed):
        draws = session_draws(seed)
        draws[4] = simengine.Draws(np.random.default_rng(other))
        return draws

    def first_block():
        return simengine._Session(cfg, topo, pair, None).block.packets

    want = _run(cfg, topo, pair)
    block = first_block()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "session_draws", other_payloads)
        assert _run(cfg, topo, pair) == want
        assert not np.array_equal(first_block(), block)


def _cellular_only(cfg, topo, pair):
    """compare_modes' cellular-only half: its stats with the pair left out,
    and its trace as (slot, interface, block id, innovative) rows."""
    traces = []
    run_session = simengine.run_session

    def recorded(*args, **kwargs):
        stats, trace = run_session(*args, **kwargs)
        traces.append(trace)
        return stats, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simengine, "run_session", recorded)
        try:
            stats, _ = simengine.compare_modes(cfg, topo, pair)
        except NoPathError:
            assume(False)
    rows = [(ev.slot, ev.interface, ev.block_id, ev.innovative) for ev in traces[0]]
    return replace(stats, source=None, destination=None), rows


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_cellular_only_baseline_ignores_the_topology(data):
    """At a pinned S-D link rate, compare_modes' cellular-only half gives
    the same stats and trace on a generated scenario and on an unrelated
    random cell with every node on the backbone bus; only the pair may
    differ.  On that cell a wired interface left on would flood the bus."""
    cfg, topo, pair = data.draw(scenarios(data.draw(st.sampled_from(KINDS))))
    cfg = replace(cfg, link_rate_override=data.draw(st.floats(0.1, 1.7)))
    bus_cfg = replace(cfg, node_count=data.draw(st.integers(8, 40)),
                      cell_radius=data.draw(st.floats(60.0, 250.0)),
                      backbone_fraction=1.0, min_hops=1)
    bus = presets.cell_topology(bus_cfg, data.draw(st.integers(0, 2**32 - 1)))
    assert len(bus.backbone) == len(bus)
    assert _cellular_only(bus_cfg, bus, None) == _cellular_only(cfg, topo, pair)
