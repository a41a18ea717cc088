"""Sessions against closed-form capacity bounds that share no code with the
engine: each bound is computed here from the preset constants alone.

- A WiFi-only chain moves at most 1/3 packet per slot: under the protocol
  model with spacing equal to the WiFi range, a transmission blocks the two
  links next to it, so at most one link in three fires per slot (Gupta &
  Kumar, The Capacity of Wireless Networks, IEEE Trans. IT 2000).
- The relay star cannot beat its min-cut, and network coding reaches the
  min-cut but nothing exceeds it (Ahlswede, Cai, Li & Yeung, Network
  Information Flow, IEEE Trans. IT 2000).
- No session beats the cut around its source or its destination
  (oracles.cut_bound, from the same paper).
- The cellular-only stop-and-wait pipe follows its closed form, given which
  arrivals the decoder found innovative (cellular_pipe), on the engine's
  skip-ahead path and on the reference engine's slot loop.
- The non-innovative arrivals of a cellular-only pipe follow their exact law
  for uniform nonzero coefficient vectors.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from hetnetcode import cli, presets
from hetnetcode.config import ScenarioConfig
from hetnetcode.presets import (
    TOPO2_INTERFACES,
    TOPO2_RATES,
    TOPO2_REFERENCE_RATE,
    TOPO2_RELAY_RATE,
)
from hetnetcode.simengine import run_session
from oracles import cut_bound, within_cut
from reference_engine import ReferenceSession
from test_golden import CASES

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("hops", [3, 4, 6, 10])
def test_wifi_chain_stays_under_one_in_three_reuse(hops):
    for seed in SEEDS:
        cfg, topo, pair = presets.chain_scenario(
            ScenarioConfig(cellular_enabled=False, seed=seed), hops)
        stats, _ = run_session(cfg, topo, pair=pair)
        # at most 1/3, and a saturated chain comes close to it
        assert 0.25 <= stats.relative_throughput <= 1 / 3, (hops, seed)


def relay_star_cut(n_relays: int, rate: float, slots: int) -> float:
    """Packets the relay star can deliver in `slots` slots: the source's two
    access interfaces, or the relays, each held to the lesser of its access
    link and its processing credit, which starts at relay i's phase
    (i * TOPO2_RELAY_RATE) % 1."""
    link = rate / TOPO2_REFERENCE_RATE
    relays = sum(min((i * TOPO2_RELAY_RATE) % 1.0 + TOPO2_RELAY_RATE * slots, link * slots)
                 for i in range(1, n_relays + 1))
    return min(TOPO2_INTERFACES * link * slots, relays)


@pytest.mark.parametrize("rate", TOPO2_RATES)
def test_relay_star_never_beats_its_min_cut(rate):
    base = ScenarioConfig(block_target=4, slot_budget=60000)
    for seed in SEEDS:
        for n in range(1, 7):
            cfg, topo, pair = presets.relay_star_scenario(replace(base, seed=seed), n, rate)
            stats, _ = run_session(cfg, topo, pair=pair)
            delivered = stats.blocks_delivered * stats.block_size
            assert delivered <= relay_star_cut(n, rate, stats.slots_elapsed) + 1e-9, (n, seed)


def test_one_hop_wifi_chain_comes_close_to_its_cut():
    # one WiFi link carries one packet per slot, and a one-hop chain wastes
    # only the slots around each ACK
    cfg, topo, pair = presets.chain_scenario(ScenarioConfig(cellular_enabled=False), 1)
    stats, _ = run_session(cfg, topo, pair=pair)
    assert cut_bound(cfg, topo, *pair) == 1.0
    assert 0.9 < stats.relative_throughput and within_cut(cfg, topo, stats)


@pytest.mark.parametrize("name", [name for name in sorted(CASES) if name.startswith("replay-")])
def test_replay_sessions_stay_within_their_cut(tmp_path, monkeypatch, name):
    """The golden chain, relay-star and bus-cell replay scenarios, each run
    through the CLI at several seeds."""
    sessions = []

    def recorded(config, topo, pair=None):
        stats, trace = run_session(config, topo, pair=pair)
        sessions.append((config, topo, stats))
        return stats, trace

    monkeypatch.setattr(cli, "run_session", recorded)
    scenario, argv = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario}))
    for seed in SEEDS + (3,):  # 3 is the golden digests' seed
        assert cli.main([*argv, "--seed", str(seed), "--config", str(cfg),
                         "--out", str(tmp_path / "out.csv")]) == 0
    assert len(sessions) == len(SEEDS) + 1
    for config, topo, stats in sessions:
        assert stats.blocks_delivered > 0 and within_cut(config, topo, stats), config.seed


def cellular_pipe(rate: float, m: int, ack_delay: int, innovative, budget: int, target: int):
    """(slot, block id, innovative) of every arrival, and the decode slots,
    of a cellular-only stop-and-wait session over a pipe of `rate` packets
    per slot.  Arrival n (counting from 1) lands at slot ceil(n / rate); a
    block decodes at its m-th innovative arrival; the source moves to the
    next block at decode + 1 + ack_delay, so arrivals before then carry the
    old block id and are stale.  innovative[n - 1] says whether arrival n,
    if it carries the decoder's block, is innovative.  The session ends at
    its target-th decode slot or at the budget."""
    events, decode_slots = [], []
    source = decoder = rank = 0
    advance_at = None
    for n in range(1, budget * math.ceil(rate) + 1):
        slot = math.ceil(n / rate)
        if slot > budget or (len(decode_slots) == target and slot > decode_slots[-1]):
            break
        if advance_at is not None and slot >= advance_at:
            source, advance_at = source + 1, None
        new = source == decoder and innovative[n - 1]
        events.append((slot, source, new))
        rank += new
        if rank == m:
            decode_slots.append(slot)
            decoder, rank, advance_at = decoder + 1, 0, slot + 1 + ack_delay
    return events, decode_slots


# the rates at which every credit sum is exact and no credit is clipped
# (ROADMAP item 2 names both defects): dyadic rates below 1, and whole rates
# up to the block size, the most the pipe releases in one slot
@pytest.mark.parametrize("m, rate", [
    (m, rate) for m in (1, 2, 4, 20)
    for rate in (1 / 8, 1 / 4, 1 / 2, 1, 2, 3, 4, 5, 20) if rate <= m])
def test_cellular_only_pipe_follows_its_closed_form(m, rate):
    # budgets off a multiple of 1 / rate, so that a skip-ahead past the budget
    # would show
    for ack_delay, budget in ((0, 400), (1, 403), (3, 397)):
        for seed in range(4):
            cfg, topo, pair = presets.chain_scenario(ScenarioConfig(
                wifi_enabled=False, block_size=m, ack_delay=ack_delay, block_target=3,
                slot_budget=budget, seed=seed, **presets.rate_fields(rate)), 1)
            # the engine skips ahead; the reference engine steps every slot
            for stats, trace, *_ in (run_session(cfg, topo, pair=pair),
                                     ReferenceSession(cfg, topo, pair).run()):
                events, decode_slots = cellular_pipe(
                    rate, m, ack_delay, [ev.innovative for ev in trace], cfg.slot_budget,
                    cfg.block_target)
                assert [(ev.slot, ev.block_id, ev.innovative) for ev in trace] == events
                assert stats.decode_slots == decode_slots
                assert stats.cellular_sent == len(events)


def non_innovative_moments(m: int, q: int = 256) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the non-innovative arrivals a block of m
    packets takes when each arrival carries a uniform nonzero vector of
    GF(q)^m: at rank i an arrival is innovative with probability p_i =
    (q^m - q^i) / (q^m - 1) (Ho et al., A Random Linear Network Coding
    Approach to Multicast, IEEE Trans. IT 2006), so the misses before it are
    geometric, with mean (1 - p_i) / p_i and variance (1 - p_i) / p_i^2."""
    ps = [Fraction(q**m - q**i, q**m - 1) for i in range(m)]
    return sum((1 - p) / p for p in ps), sum((1 - p) / p**2 for p in ps)


@pytest.mark.parametrize("m, rate", [(2, 1.0), (3, 0.5)])
def test_non_innovative_arrivals_match_their_exact_mean(m, rate):
    # the flags are the engine's, but the prediction shares no draw with it:
    # the tolerance is 4 standard deviations of the exact law, fixed before the run
    blocks = 10_000
    mean, var = (blocks * x for x in non_innovative_moments(m))
    cfg, topo, pair = presets.chain_scenario(ScenarioConfig(
        wifi_enabled=False, block_size=m, block_target=blocks, slot_budget=20 * m * blocks,
        seed=0, **presets.rate_fields(rate)), 1)
    stats, trace = run_session(cfg, topo, pair=pair)
    assert stats.blocks_delivered == blocks
    misses, rank, decoded = 0, 0, None
    for ev in trace:
        if ev.block_id == decoded:  # stale: its block decoded before it landed
            continue
        if not ev.innovative:
            misses += 1
        elif (rank := rank + 1) == m:
            rank, decoded = 0, ev.block_id
    assert abs(misses - mean) <= 4 * math.sqrt(var), (misses, float(mean), math.sqrt(var))
