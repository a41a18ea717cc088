"""Sessions against closed-form capacity bounds that share no code with the
engine: each bound is computed here from the preset constants alone.

- A WiFi-only chain moves at most 1/3 packet per slot: under the protocol
  model with spacing equal to the WiFi range, a transmission blocks the two
  links next to it, so at most one link in three fires per slot (Gupta &
  Kumar, The Capacity of Wireless Networks, IEEE Trans. IT 2000).
- The relay star cannot beat its min-cut, and network coding reaches the
  min-cut but nothing exceeds it (Ahlswede, Cai, Li & Yeung, Network
  Information Flow, IEEE Trans. IT 2000).
"""

from dataclasses import replace

import pytest

from hetnetcode import presets
from hetnetcode.presets import (
    TOPO2_INTERFACES,
    TOPO2_RATES,
    TOPO2_REFERENCE_RATE,
    TOPO2_RELAY_RATE,
)
from hetnetcode.routing import build_routes
from hetnetcode.simengine import ScenarioConfig, run_session

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("hops", [3, 4, 6, 10])
def test_wifi_chain_stays_under_one_in_three_reuse(hops):
    for seed in SEEDS:
        cfg, topo, pair = presets.chain_scenario(
            ScenarioConfig(cellular_enabled=False, seed=seed), hops)
        stats, _ = run_session(cfg, topo, build_routes(topo), pair=pair)
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
            stats, _ = run_session(cfg, topo, build_routes(topo), pair=pair)
            delivered = stats.blocks_delivered * stats.block_size
            assert delivered <= relay_star_cut(n, rate, stats.slots_elapsed) + 1e-9, (n, seed)
