"""Per-node reference implementations that the tests compare the program with."""

from __future__ import annotations

import math

import numpy as np

from hetnetcode.routing import UNREACHABLE


def hop_distance(routes, src: int, dst: int) -> float:
    return float(routes.distances_to(dst)[src])


def on_route(node: int, src: int, dst: int, routes) -> bool:
    """True iff node lies on some shortest src->dst path."""
    total = hop_distance(routes, src, dst)
    if total == UNREACHABLE:
        return False
    return hop_distance(routes, src, node) + hop_distance(routes, node, dst) == total


def rate_for_distance(dist: float, radius: float, tiers, cell_rate: float) -> float:
    dnorm = dist / radius
    for bound, frac in tiers[:-1]:
        if dnorm < bound:
            return frac * cell_rate
    return tiers[-1][1] * cell_rate


def node_rates(topo) -> list[float]:
    """Each node's cellular rate from its distance to its own base station,
    one node at a time."""
    p = topo.params
    rates = []
    for (x, y), cell in zip(topo.positions.tolist(), topo.cell_ids.tolist()):
        cx, cy = topo.cells[cell].tolist()
        dist = math.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        rates.append(rate_for_distance(dist, p.cell_radius, p.rate_tiers, p.cell_rate))
    return rates


def backbone_draw(cell_ids, fraction: float, rng: np.random.Generator) -> frozenset:
    """round(fraction * members) backbone nodes per cell, each cell's members
    found by a scan over every node."""
    chosen = set()
    if fraction > 0:
        for cell in range(7):
            members = [i for i, c in enumerate(cell_ids) if c == cell]
            k = round(fraction * len(members))
            if k > 0:
                chosen.update(int(i) for i in rng.choice(np.array(members), size=k,
                                                         replace=False))
    return frozenset(chosen)
