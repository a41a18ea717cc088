"""Hop-count routing over the WiFi graph, wired links and the backbone bus.

A converged routing protocol is assumed: every node knows its hop distance
to every other node.  A wired access link is one hop; the backbone is one
bus on which any two members are one virtual hop apart, kept as its member
list rather than as a clique.
"""

from __future__ import annotations

import weakref
from collections import deque

import numpy as np

UNREACHABLE = float("inf")


class RouteTable:
    """Hop distances and next-hop candidates toward each destination of a
    topology.HetNetTopology, which builds its own table (its `routes`).

    Distances to a destination are computed on its first use (single-threaded
    access only).  The table refers to its topology weakly: the topology
    caches the table, and a strong reference back would make the pair a
    cycle that only the cyclic garbage collector frees.
    """

    def __init__(self, topo):
        self._topology = weakref.ref(topo)
        self._bus = np.array(sorted(topo.backbone), dtype=np.int64)
        self._dist: dict[int, np.ndarray] = {}

    @property
    def topology(self):
        """The topology this table routes over, or None once it is freed."""
        return self._topology()

    def _bfs(self, src: int) -> np.ndarray:
        topo = self.topology
        links = topo.links
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
            if bus_pending and u in topo.backbone:
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

    def next_hops(self, node: int, dst: int, interface: str) -> list[int]:
        """Ascending neighbors exactly one hop closer to dst (may be empty) over
        one interface, "wifi" or "wired" (which includes the bus)."""
        dist = self.distances_to(dst)
        if dist[node] == UNREACHABLE:
            return []
        want = dist[node] - 1
        topo = self.topology
        if interface == "wifi":
            # neighbor lists are ascending and unique
            return [v for v in topo.neighbors[node] if dist[v] == want]
        hops = [v for v in topo.wired_peers(node) if dist[v] == want]
        if node in topo.backbone:
            hops += self._bus[dist[self._bus] == want].tolist()
        return sorted(set(hops))


def build_routes(topo) -> RouteTable:
    return RouteTable(topo)

