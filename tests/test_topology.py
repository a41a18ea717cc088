import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetnetcode import presets, topology
from hetnetcode.errors import ConfigError
from hetnetcode.simengine import ScenarioConfig


def small_topology(positions, wifi_range=100.0, delta=0.2):
    params = topology.TopologyParams(wifi_range=wifi_range, delta=delta)
    nodes = [topology.Node(i, float(x), float(y), 0, 1.0) for i, (x, y) in enumerate(positions)]
    return topology.HetNetTopology(params, nodes)


def test_generate_deterministic():
    params = topology.TopologyParams()
    a = topology.generate(50, np.random.default_rng(123), params)
    b = topology.generate(50, np.random.default_rng(123), params)
    assert np.array_equal(a.positions, b.positions)
    assert [n.cellular_rate for n in a.nodes] == [n.cellular_rate for n in b.nodes]
    one = topology.generate(1, np.random.default_rng(9), params)
    two = topology.generate(1, np.random.default_rng(9), params)
    assert one.nodes[0] == two.nodes[0]


def test_generate_rejects_bad_params():
    with pytest.raises(ConfigError):
        topology.generate(0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), topology.TopologyParams(cell_radius=-1))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), topology.TopologyParams(delta=-0.5))


def test_generate_uniform_over_hexagons():
    # 7 equal-area cells: per-cell counts within 5 sigma of n/7
    n = 10_000
    topo = topology.generate(n, np.random.default_rng(77))
    counts = np.bincount([nd.cell_id for nd in topo.nodes], minlength=7)
    expect = n / 7
    sigma = math.sqrt(n * (1 / 7) * (6 / 7))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_nodes_inside_region_and_assigned_nearest():
    topo = topology.generate(500, np.random.default_rng(5))
    centers = topo.cells
    pts = topo.positions
    in_union = np.zeros(len(topo), dtype=bool)
    for c in centers:
        in_union |= topology._inside_hex(pts, c, topo.params.cell_radius)
    assert in_union.all()
    for nd in topo.nodes:
        d = np.hypot(centers[:, 0] - nd.x, centers[:, 1] - nd.y)
        assert nd.cell_id == int(np.argmin(d))
        # inside its own hexagon means within circumradius of its center
        assert d[nd.cell_id] <= topo.params.cell_radius + 1e-6


def test_rate_tiers():
    tiers = topology.DEFAULT_RATE_TIERS
    assert topology.rate_for_distance(0.0, 1000, tiers, 4.0) == 4.0
    assert topology.rate_for_distance(249.9, 1000, tiers, 4.0) == 4.0
    assert topology.rate_for_distance(250.0, 1000, tiers, 4.0) == 2.0
    assert topology.rate_for_distance(700.0, 1000, tiers, 4.0) == 1.0
    assert topology.rate_for_distance(1000.0, 1000, tiers, 4.0) == 0.5
    # non-increasing in distance
    rates = [topology.rate_for_distance(d, 1000, tiers, 1.0) for d in range(0, 1001, 10)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_cellular_link_rate():
    a = topology.Node(0, 0, 0, 0, 2.0)
    b = topology.Node(1, 0, 0, 0, 5.0)
    assert topology.cellular_link_rate(a, b) == 2.0
    assert topology.cellular_link_rate(b, b) == 5.0
    rng = np.random.default_rng(3)
    topo = topology.generate(40, rng)
    for _ in range(50):
        i, j = rng.integers(0, 40, size=2)
        r = topology.cellular_link_rate(topo.nodes[i], topo.nodes[j])
        assert r <= topo.nodes[i].cellular_rate and r <= topo.nodes[j].cellular_rate


def test_wifi_neighbors_boundary_and_symmetry():
    topo = small_topology([(0, 0), (100, 0), (500, 500)])
    assert topo.wifi_neighbors(0).tolist() == [1]
    assert topo.wifi_neighbors(1).tolist() == [0]
    assert topo.wifi_neighbors(2).tolist() == []
    rnd = topology.generate(300, np.random.default_rng(8),
                            topology.TopologyParams(cell_radius=400.0))
    for i in range(len(rnd)):
        for j in rnd.wifi_neighbors(i):
            assert i in rnd.wifi_neighbors(int(j))


def brute_force_neighbors(positions, r):
    n = len(positions)
    out = []
    for i in range(n):
        d = np.hypot(positions[:, 0] - positions[i, 0], positions[:, 1] - positions[i, 1])
        out.append([j for j in range(n) if j != i and d[j] <= r])
    return out


# on a 5 m grid, 3-4-5 triangles put points exactly r = 100 m or 60 m apart
grid_points = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).map(
    lambda p: (5.0 * p[0], 5.0 * p[1]))
float_points = st.tuples(st.floats(-500, 500), st.floats(-500, 500))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(grid_points | float_points, max_size=40),
       copies=st.integers(0, 4), r=st.sampled_from([100.0, 60.0]))
@example(points=[], copies=0, r=100.0)
@example(points=[(-3.0, 7.0)], copies=0, r=100.0)
# exactly r apart across a bucket edge, along an axis and diagonally
@example(points=[(-100.0, 0.0), (0.0, 0.0), (-60.0, -80.0), (60.0, 80.0)], copies=2, r=100.0)
def test_bucket_neighbors_match_brute_force(points, copies, r):
    points = points + points[:copies]  # duplicate points
    positions = np.array(points, dtype=float).reshape(-1, 2)
    got = topology._bucket_neighbors(positions, r)
    assert len(got) == len(points)
    for row, want in zip(got, brute_force_neighbors(positions, r)):
        assert row.dtype == np.int64
        assert np.all(np.diff(row) > 0)
        assert row.tolist() == want


def test_shared_placement_matches_fresh_generate():
    config = ScenarioConfig()
    seed, trial, fractions = 4, 2, [0.0, 0.01, 0.4, 1.0]
    shared = presets.cell_topology(config, seed, trial, fractions)
    assert len(shared) == len(fractions)
    for frac, topo in zip(fractions, shared):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
        params = replace(config.topology_params(), backbone_fraction=frac)
        fresh = topology.generate(config.node_count, rng, params)
        assert topo.params == fresh.params
        assert np.array_equal(topo.positions, fresh.positions)
        assert [n.cell_id for n in topo.nodes] == [n.cell_id for n in fresh.nodes]
        assert [n.cellular_rate for n in topo.nodes] == [n.cellular_rate for n in fresh.nodes]
        assert topo.backbone == fresh.backbone
        assert [a.tolist() for a in topo.neighbors] == [b.tolist() for b in fresh.neighbors]
        assert topo.positions is shared[0].positions
        assert topo.neighbors is shared[0].neighbors
    assert shared[1].backbone and len(shared[3].backbone) == config.node_count
    # building k/n = 1.0 after k/n = 0 marked no node of the k/n = 0 topology
    assert not any(n.has_backbone for n in shared[0].nodes)
    assert not shared[0].backbone


def test_protocol_model_examples():
    topo = small_topology([(0, 0), (100, 0), (219, 0), (321, 0)])
    assert topo.protocol_model_ok(0, 1, set()) is True
    # interferer at 119 m from the receiver: 119 < 1.2 * 100
    assert topo.protocol_model_ok(0, 1, {2}) is False
    # interferer at 221 m: 221 >= 120
    assert topo.protocol_model_ok(0, 1, {3}) is True
    # tx and rx themselves never count as interferers
    assert topo.protocol_model_ok(0, 1, {0, 1}) is True


def test_protocol_model_boundary_inclusive():
    # delta=0.25 keeps the guard distance exactly representable
    topo = small_topology([(0, 0), (100, 0), (225, 0)], delta=0.25)
    assert topo.protocol_model_ok(0, 1, {2}) is True  # d = 125 = (1+delta)*100


def test_protocol_model_out_of_range():
    topo = small_topology([(0, 0), (150, 0)])
    with pytest.raises(topology.LinkRangeError):
        topo.protocol_model_ok(0, 1, set())


def test_protocol_model_matches_bruteforce():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pts = rng.uniform(0, 400, size=(10, 2))
        topo = small_topology(pts.tolist())
        pairs = [(i, j) for i in range(10) for j in topo.wifi_neighbors(i)]
        if not pairs:
            continue
        tx, rx = pairs[rng.integers(0, len(pairs))]
        others = set(int(x) for x in rng.choice(10, size=4))
        expect = all(
            topo.distance(rx, k) >= 1.2 * topo.distance(tx, rx)
            for k in others if k not in (tx, rx)
        )
        assert topo.protocol_model_ok(int(tx), int(rx), others) == expect


def test_backbone_selection_counts():
    params = topology.TopologyParams(backbone_fraction=0.5)
    topo = topology.generate(350, np.random.default_rng(55), params)
    by_cell: dict[int, list] = {}
    for nd in topo.nodes:
        by_cell.setdefault(nd.cell_id, []).append(nd)
    for cell, members in by_cell.items():
        chosen = sum(nd.has_backbone for nd in members)
        assert chosen == round(0.5 * len(members))
    assert topo.backbone == frozenset(nd.id for nd in topo.nodes if nd.has_backbone)


def test_dump_load_round_trip():
    params = topology.TopologyParams(backbone_fraction=0.3)
    topo = topology.generate(60, np.random.default_rng(2), params)
    buf = io.StringIO()
    topo.dump(buf)
    buf.seek(0)
    back = topology.load(buf)
    assert len(back) == len(topo)
    for a, b in zip(topo.nodes, back.nodes):
        assert a == b
    assert back.backbone == topo.backbone
    assert [n.tolist() for n in back.neighbors] == [n.tolist() for n in topo.neighbors]


@pytest.mark.parametrize("ids", [(0, 5), (1, 0), (0, 0)])
def test_load_rejects_ids_out_of_order(ids):
    lines = "".join(f"{nid} {50.0 * k} 0.0 0 1.0 0\n" for k, nid in enumerate(ids))
    with pytest.raises(ConfigError):
        topology.load(io.StringIO(lines))


def test_chain_topology():
    topo = topology.chain_topology(7)
    assert len(topo) == 8
    for i in range(7):
        assert topo.wifi_neighbors(i + 1).tolist()[0] == i
    assert topo.wifi_neighbors(0).tolist() == [1]
    assert topo.wifi_neighbors(3).tolist() == [2, 4]


def test_relay_star_topology():
    topo = topology.relay_star_topology(3, link_capacity=2.0)
    src, dst = 0, 4
    assert topo.wired_peers(src) == [1, 2, 3]
    assert topo.wired_peers(dst) == [1, 2, 3]
    assert topo.wired_peers(2) == [src, dst]
    # access-point preset has no radio links at all
    assert all(topo.wifi_neighbors(i).size == 0 for i in range(len(topo)))
    assert topo.wired.node_out[src] == 4.0
    assert topo.wired.node_in[dst] == 4.0
