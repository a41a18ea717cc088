from itertools import permutations

import numpy as np
import pytest

from hetnetcode import routing, topology
from hetnetcode.config import TopologyParams
from oracles import adjacency, bfs, hop_distance, links, on_route


def graph_topology(n, edges, wifi_range=100.0):
    """Place nodes so that exactly the requested edges are within range."""
    # trick: park nodes far apart, then shorten listed pairs via explicit positions
    # simpler: build positions on a line only for chain-like cases; general case
    # uses the wired edge list, which routing treats identically.
    params = TopologyParams(wifi_range=wifi_range)
    gap = 50 * wifi_range
    positions = [(i * gap, 0.0) for i in range(n)]
    wired = topology.WiredSpec(edges=list(edges), edge_capacity=1.0, node_out={}, node_in={})
    return topology.HetNetTopology(params, positions, wired=wired)


def oracle_distance(n, edges, src, dst):
    """Brute force: minimum length over all simple paths, by enumeration."""
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if src == dst:
        return 0
    best = routing.UNREACHABLE
    mids = [i for i in range(n) if i not in (src, dst)]
    for k in range(len(mids) + 1):
        for mid in permutations(mids, k):
            path = (src, *mid, dst)
            if all(path[i + 1] in adj[path[i]] for i in range(len(path) - 1)):
                best = min(best, len(path) - 1)
        if best == k + 1:
            break
    return best


def test_line_graph_distances():
    params = TopologyParams()
    topo = topology.HetNetTopology(params, [(100.0 * i, 0.0) for i in range(3)])
    assert topo.routes.distances_to(2)[0] == hop_distance(topo, 0, 2) == 2
    assert topo.routes.next_hops(0, 2, "wifi") == [1]
    assert topo.routes.next_hops(1, 2, "wifi") == [2]


def test_isolated_destination_unreachable():
    topo = graph_topology(4, [(0, 1), (1, 2)])
    assert topo.routes.distances_to(3)[0] == hop_distance(topo, 0, 3) == routing.UNREACHABLE
    # graph_topology's edges are wired
    assert topo.routes.next_hops(0, 3, "wired") == []


def test_distances_match_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        topo = graph_topology(n, edges)
        for src in range(n):
            for dst in range(src, n):
                want = oracle_distance(n, edges, src, dst)
                assert topo.routes.distances_to(dst)[src] == hop_distance(topo, src, dst) == want
                assert topo.routes.distances_to(src)[dst] == want


def test_on_route_examples():
    # line 0-1-2 plus a detour node 3 hanging off node 1
    topo = graph_topology(4, [(0, 1), (1, 2), (1, 3)])
    assert on_route(0, 0, 2, topo) is True
    assert on_route(1, 0, 2, topo) is True
    assert on_route(3, 0, 2, topo) is False


def test_on_route_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(4, 8))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.35
        ]
        topo = graph_topology(n, edges)
        src, dst = 0, n - 1
        total = oracle_distance(n, edges, src, dst)
        if total == routing.UNREACHABLE:
            continue
        for node in range(n):
            a = oracle_distance(n, edges, src, node)
            b = oracle_distance(n, edges, node, dst)
            assert on_route(node, src, dst, topo) == (a + b == total)
            assert topo.routes.distances_to(node)[src] == a
            assert topo.routes.distances_to(dst)[node] == b


def test_next_hops_strictly_closer():
    rng = np.random.default_rng(31)
    topo = topology.generate(120, rng, TopologyParams(cell_radius=300.0))
    dist = bfs(links(topo), 0)
    for node in range(1, 120):
        if dist[node] == routing.UNREACHABLE:
            continue
        for nh in topo.routes.next_hops(node, 0, "wifi"):
            assert dist[nh] == dist[node] - 1


def test_backbone_counts_as_one_virtual_hop():
    params = TopologyParams()
    topo = topology.HetNetTopology(params, [(0.0, 0.0), (5000.0, 0.0), (5100.0, 0.0)],
                                   cell_ids=[0, 1, 1], backbone={0, 1})
    assert topo.routes.distances_to(1)[0] == hop_distance(topo, 0, 1) == 1
    # bus hop then WiFi hop
    assert topo.routes.distances_to(2)[0] == hop_distance(topo, 0, 2) == 2


def test_wired_next_hops_are_ascending_and_unique():
    # bus member 0's hops toward 5 are its explicit peers 3 and 4 and the bus
    # members 2 and 4: peer 3 lies above bus member 2, and 4 is both.  A
    # session draws below(len(targets)) over these hops, so their order
    # decides which hop each draw picks
    wired = topology.WiredSpec(edges=[(0, 3), (0, 4), (3, 5), (2, 5), (4, 5)],
                               edge_capacity=1.0)
    topo = topology.HetNetTopology(TopologyParams(), [(5000.0 * i, 0.0) for i in range(6)],
                                   backbone={0, 2, 4}, wired=wired)
    assert topo.routes.next_hops(0, 5, "wired") == [2, 3, 4]


@pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0])
def test_bus_routes_match_explicit_clique(fraction):
    params = TopologyParams(cell_radius=300.0, backbone_fraction=fraction)
    base = topology.generate(120, np.random.default_rng(41), params)
    edges = [(0, 7), (7, 19), (3, 90), (90, 3)]
    wired = topology.WiredSpec(edges=edges, edge_capacity=1.0, node_out={}, node_in={})
    topo = topology.HetNetTopology(params, base.positions, base.cell_ids, base.cellular_rates,
                                   base.backbone, wired=wired)
    wifi, wired_adj = adjacency(topo)
    adj = links(topo)
    assert 0 < len(topo.backbone) <= len(topo)
    for dst in (0, 19, 55, 90, 119):
        dist = bfs(adj, dst)
        assert topo.routes.distances_to(dst).tolist() == dist
        for node in range(len(topo)):
            want = dist[node] - 1
            for peers, interface in ((wifi, "wifi"), (wired_adj, "wired")):
                expect = sorted(v for v in peers[node] if dist[v] == want)
                if dist[node] == routing.UNREACHABLE:
                    expect = []
                assert topo.routes.next_hops(node, dst, interface) == expect
    # the bus is stored once, so nothing grows as k^2
    wifi_degrees = sum(map(len, topo.neighbors))
    assert sum(map(len, topo.links)) <= wifi_degrees + 2 * len(edges)
    assert topo.routes._bus.tolist() == sorted(topo.backbone)

