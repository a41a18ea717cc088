from itertools import permutations

import numpy as np
import pytest

from hetnetcode import routing, topology
from hetnetcode.errors import ConfigError
from hetnetcode.routing import ForwardPolicy, InterfaceSelector, select_interfaces


def graph_topology(n, edges, wifi_range=100.0):
    """Place nodes so that exactly the requested edges are within range."""
    # trick: park nodes far apart, then shorten listed pairs via explicit positions
    # simpler: build positions on a line only for chain-like cases; general case
    # uses the wired edge list, which routing treats identically.
    params = topology.TopologyParams(wifi_range=wifi_range)
    gap = 50 * wifi_range
    nodes = [topology.Node(i, i * gap, 0.0, 0, 1.0) for i in range(n)]
    wired = topology.WiredSpec(edges=list(edges), edge_capacity=1.0, node_out={}, node_in={})
    return topology.HetNetTopology(params, nodes, wired=wired)


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
    params = topology.TopologyParams()
    nodes = [topology.Node(i, 100.0 * i, 0.0, 0, 1.0) for i in range(3)]
    topo = topology.HetNetTopology(params, nodes)
    routes = routing.build_routes(topo)
    assert routes.hop_distance(0, 2) == 2
    assert routes.next_hops(0, 2) == [1]
    assert routes.next_hops(1, 2) == [2]


def test_isolated_destination_unreachable():
    topo = graph_topology(4, [(0, 1), (1, 2)])
    routes = routing.build_routes(topo)
    assert routes.hop_distance(0, 3) == routing.UNREACHABLE
    assert routes.next_hops(0, 3) == []


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
        routes = routing.build_routes(topo)
        for src in range(n):
            for dst in range(src, n):
                assert routes.hop_distance(src, dst) == oracle_distance(n, edges, src, dst)
                assert routes.hop_distance(src, dst) == routes.hop_distance(dst, src)


def test_on_route_examples():
    # line 0-1-2 plus a detour node 3 hanging off node 1
    topo = graph_topology(4, [(0, 1), (1, 2), (1, 3)])
    routes = routing.build_routes(topo)
    assert routing.on_route(0, 0, 2, routes) is True
    assert routing.on_route(1, 0, 2, routes) is True
    assert routing.on_route(3, 0, 2, routes) is False


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
        routes = routing.build_routes(topo)
        src, dst = 0, n - 1
        total = oracle_distance(n, edges, src, dst)
        if total == routing.UNREACHABLE:
            continue
        for node in range(n):
            a = oracle_distance(n, edges, src, node)
            b = oracle_distance(n, edges, node, dst)
            assert routing.on_route(node, src, dst, routes) == (a + b == total)


def test_next_hops_strictly_closer():
    rng = np.random.default_rng(31)
    topo = topology.generate(120, rng, topology.TopologyParams(cell_radius=300.0))
    routes = routing.build_routes(topo)
    for node in range(1, 120):
        d = routes.hop_distance(node, 0)
        if d == routing.UNREACHABLE:
            continue
        for nh in routes.next_hops(node, 0):
            assert routes.hop_distance(nh, 0) == d - 1


def test_backbone_counts_as_one_virtual_hop():
    params = topology.TopologyParams()
    nodes = [
        topology.Node(0, 0.0, 0.0, 0, 1.0, has_backbone=True),
        topology.Node(1, 5000.0, 0.0, 1, 1.0, has_backbone=True),
        topology.Node(2, 5100.0, 0.0, 1, 1.0),
    ]
    topo = topology.HetNetTopology(params, nodes)
    routes = routing.build_routes(topo)
    assert routes.hop_distance(0, 1) == 1
    assert routes.hop_distance(0, 2) == 2  # bus hop then WiFi hop


def clique_oracle(topo):
    """Explicit adjacency with the backbone expanded into its full clique."""
    wifi = [set(topo.wifi_neighbors(i).tolist()) for i in range(len(topo))]
    wired = [set(topo.wired_peers(i)) for i in range(len(topo))]
    for b in topo.backbone:
        wired[b] |= topo.backbone - {b}
    return wifi, wired


def oracle_bfs(adj, dst):
    dist = [routing.UNREACHABLE] * len(adj)
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        reached = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == routing.UNREACHABLE:
                    dist[v] = dist[u] + 1
                    reached.append(v)
        frontier = reached
    return dist


@pytest.mark.parametrize("fraction", [0.05, 0.3, 1.0])
def test_bus_routes_match_explicit_clique(fraction):
    params = topology.TopologyParams(cell_radius=300.0, backbone_fraction=fraction)
    base = topology.generate(120, np.random.default_rng(41), params)
    edges = [(0, 7), (7, 19), (3, 90), (90, 3)]
    wired = topology.WiredSpec(edges=edges, edge_capacity=1.0, node_out={}, node_in={})
    topo = topology.HetNetTopology(params, base.nodes, wired=wired)
    routes = routing.build_routes(topo)
    wifi, wired_adj = clique_oracle(topo)
    adj = [a | b for a, b in zip(wifi, wired_adj)]
    assert 0 < len(topo.backbone) <= len(topo)
    for dst in (0, 19, 55, 90, 119):
        dist = oracle_bfs(adj, dst)
        assert routes.distances_to(dst).tolist() == dist
        for node in range(len(topo)):
            want = dist[node] - 1
            for links, interface in ((adj, None), (wifi, "wifi"), (wired_adj, "wired")):
                expect = sorted(v for v in links[node] if dist[v] == want)
                if dist[node] == routing.UNREACHABLE:
                    expect = []
                assert routes.next_hops(node, dst, interface) == expect
    # the bus is stored once, so nothing grows as k^2
    wifi_degrees = sum(len(topo.wifi_neighbors(i)) for i in range(len(topo)))
    stored = sum(map(len, routes._wifi)) + sum(map(len, routes._wired))
    assert stored <= wifi_degrees + 2 * len(edges)
    assert routes._bus.tolist() == sorted(topo.backbone)


def test_policy_validation():
    with pytest.raises(ConfigError):
        ForwardPolicy(mode="carrier-pigeon").validate()
    with pytest.raises(ConfigError):
        ForwardPolicy(mode="both", both_mode="sometimes").validate()
    with pytest.raises(ConfigError):
        ForwardPolicy(mode="both", both_mode="probabilistic", p=1.5).validate()


def test_select_interfaces_fixed_modes():
    wifi_only = InterfaceSelector(ForwardPolicy(mode="wifi-only"))
    for _ in range(5):
        assert select_interfaces(wifi_only) == {"wifi"}
    dup = InterfaceSelector(ForwardPolicy(mode="both", both_mode="duplicate"))
    assert select_interfaces(dup) == {"wifi", "cellular"}
    cell = InterfaceSelector(ForwardPolicy(mode="cellular-only"))
    assert select_interfaces(cell) == {"cellular"}


def test_select_interfaces_round_robin_even_split():
    sel = InterfaceSelector(ForwardPolicy(mode="both", both_mode="round-robin"))
    picks = [select_interfaces(sel) for _ in range(100)]
    assert sum(p == {"wifi"} for p in picks) == 50
    assert sum(p == {"cellular"} for p in picks) == 50
    assert picks[0] != picks[1]


def test_select_interfaces_probabilistic():
    sel = InterfaceSelector(
        ForwardPolicy(mode="both", both_mode="probabilistic", p=1.0),
        rng=np.random.default_rng(0),
    )
    assert select_interfaces(sel) == {"cellular"}
    sel = InterfaceSelector(
        ForwardPolicy(mode="both", both_mode="probabilistic", p=0.25),
        rng=np.random.default_rng(1),
    )
    picks = [select_interfaces(sel) for _ in range(2000)]
    frac = sum(p == {"cellular"} for p in picks) / 2000
    assert 0.2 < frac < 0.3
