"""Hop-count routing over the WiFi graph and interface forwarding policies.

A converged routing protocol is assumed: every node knows its hop distance
to every other node.  A wired access link is one hop; the backbone is one
bus on which any two members are one virtual hop apart, kept as its member
list rather than as a clique.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .topology import HetNetTopology, check_types

UNREACHABLE = float("inf")

POLICY_MODES = ("cellular-only", "wifi-only", "both")
BOTH_MODES = ("round-robin", "duplicate", "probabilistic")


@dataclass(frozen=True)
class ForwardPolicy:
    mode: str = "wifi-only"
    both_mode: str = "round-robin"
    p: float = 0.5  # probability of picking cellular in probabilistic mode

    def validate(self):
        check_types(self)
        if self.mode not in POLICY_MODES:
            raise ConfigError(f"unknown policy mode {self.mode!r}")
        if self.both_mode not in BOTH_MODES:
            raise ConfigError(f"unknown both-mode schedule {self.both_mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("probabilistic p must lie in [0, 1]")


class InterfaceSelector:
    """Single-owner per-node state for repeated interface choices."""

    def __init__(self, policy: ForwardPolicy, rng: np.random.Generator | None = None):
        policy.validate()
        self.policy = policy
        self.rng = rng
        self._count = 0


def select_interfaces(selector: InterfaceSelector):
    """Interfaces the next packet goes out on, per the node's policy."""
    policy = selector.policy
    if policy.mode == "cellular-only":
        wanted = {"cellular"}
    elif policy.mode == "wifi-only":
        wanted = {"wifi"}
    elif policy.both_mode == "duplicate":
        wanted = {"wifi", "cellular"}
    elif policy.both_mode == "round-robin":
        wanted = {"wifi"} if selector._count % 2 == 0 else {"cellular"}
        selector._count += 1
    else:  # probabilistic
        if selector.rng is None:
            raise ConfigError("probabilistic policy needs an rng")
        wanted = {"cellular"} if selector.rng.random() < policy.p else {"wifi"}
    return frozenset(wanted)


class RouteTable:
    """Hop distances and next-hop candidates toward each destination.

    Distances to a destination are computed on its first use (single-threaded
    access only).
    """

    def __init__(self, topo: HetNetTopology):
        self.topology = topo
        self._bus = np.array(sorted(topo.backbone), dtype=np.int64)
        self._dist: dict[int, np.ndarray] = {}

    def _bfs(self, src: int) -> np.ndarray:
        links = self.topology.links
        dist = np.full(len(links), UNREACHABLE)
        dist[src] = 0.0
        q = deque([src])
        bus_pending = self._bus.size > 0
        while q:
            u = q.popleft()
            nxt = dist[u] + 1
            for v in links[u]:
                if dist[v] == UNREACHABLE:
                    dist[v] = nxt
                    q.append(v)
            if bus_pending and u in self.topology.backbone:
                # BFS reaches the bus first at its nearest member, so every
                # member not yet reached is exactly one hop further
                bus_pending = False
                fresh = self._bus[dist[self._bus] == UNREACHABLE]
                dist[fresh] = nxt
                q.extend(fresh.tolist())
        return dist

    def distances_to(self, dst: int) -> np.ndarray:
        if dst not in self._dist:
            self._dist[dst] = self._bfs(dst)
        return self._dist[dst]

    def next_hops(self, node: int, dst: int, interface: str | None = None) -> list[int]:
        """Ascending neighbors exactly one hop closer to dst (may be empty) over
        one interface, "wifi" or "wired" (which includes the bus), or both."""
        dist = self.distances_to(dst)
        if dist[node] == UNREACHABLE:
            return []
        want = dist[node] - 1
        topo = self.topology
        hops = []
        if interface != "wired":
            hops += [v for v in topo.neighbors[node] if dist[v] == want]
        if interface != "wifi":
            hops += [v for v in topo.wired_peers(node) if dist[v] == want]
            if node in topo.backbone:
                hops += self._bus[dist[self._bus] == want].tolist()
        return sorted(set(hops))


def build_routes(topo: HetNetTopology) -> RouteTable:
    return RouteTable(topo)

