import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetnetcode import presets, topology
from hetnetcode.errors import ConfigError
from hetnetcode.routing import build_routes
from hetnetcode.simengine import ScenarioConfig
from oracles import backbone_draw, node_rates, rate_for_distance


def small_topology(positions, wifi_range=100.0, delta=0.2):
    params = topology.TopologyParams(wifi_range=wifi_range, delta=delta)
    return topology.HetNetTopology(params, positions)


def same_nodes(a, b) -> bool:
    return (np.array_equal(a.positions, b.positions) and np.array_equal(a.cell_ids, b.cell_ids)
            and a.cellular_rates.tolist() == b.cellular_rates.tolist()
            and a.backbone == b.backbone)


def test_generate_deterministic():
    params = topology.TopologyParams()
    a = topology.generate(50, np.random.default_rng(123), params)
    b = topology.generate(50, np.random.default_rng(123), params)
    assert same_nodes(a, b)
    one = topology.generate(1, np.random.default_rng(9), params)
    two = topology.generate(1, np.random.default_rng(9), params)
    assert len(one) == 1 and same_nodes(one, two)


def test_generate_rejects_bad_params():
    with pytest.raises(ConfigError):
        topology.generate(0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), topology.TopologyParams(cell_radius=-1))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), topology.TopologyParams(delta=-0.5))
    # non-finite numbers: NaN would pass every range check and inf overflow numpy
    for bad in ({"delta": math.nan}, {"wifi_range": math.inf}, {"cell_radius": math.inf}):
        with pytest.raises(ConfigError):
            topology.generate(5, np.random.default_rng(0), topology.TopologyParams(**bad))


def test_generate_uniform_over_hexagons():
    # 7 equal-area cells: per-cell counts within 5 sigma of n/7
    n = 10_000
    topo = topology.generate(n, np.random.default_rng(77))
    counts = np.bincount(topo.cell_ids, minlength=7)
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
    for (x, y), cell in zip(pts, topo.cell_ids):
        d = np.hypot(centers[:, 0] - x, centers[:, 1] - y)
        assert cell == int(np.argmin(d))
        # inside its own hexagon means within circumradius of its center
        assert d[cell] <= topo.params.cell_radius + 1e-6


def test_rate_tiers():
    tiers = topology.DEFAULT_RATE_TIERS
    dist = np.array([0.0, 249.9, 250.0, 700.0, 1000.0])
    assert topology.tier_rates(dist, 1000, tiers, 4.0).tolist() == [4.0, 4.0, 2.0, 1.0, 0.5]
    # non-increasing in distance, and equal to the per-distance tier loop
    dist = np.arange(0.0, 1001.0, 10.0)
    rates = topology.tier_rates(dist, 1000, tiers, 1.0).tolist()
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates == [rate_for_distance(d, 1000, tiers, 1.0) for d in dist.tolist()]
    # the first tier whose bound exceeds d / R wins, in the given order
    unsorted = ((0.5, 2.0), (0.25, 3.0), (1.0, 0.5))
    assert topology.tier_rates(dist, 1000, unsorted, 1.0).tolist() == [
        rate_for_distance(d, 1000, unsorted, 1.0) for d in dist.tolist()]


def test_cellular_link_rate():
    two = topology.HetNetTopology(topology.TopologyParams(), [(0, 0), (0, 0)],
                                  cellular_rates=[2.0, 5.0])
    assert topology.cellular_link_rate(two, 0, 1) == 2.0
    assert topology.cellular_link_rate(two, 1, 1) == 5.0
    assert type(topology.cellular_link_rate(two, 0, 1)) is float
    rng = np.random.default_rng(3)
    topo = topology.generate(40, rng)
    rates = topo.cellular_rates
    for _ in range(50):
        i, j = rng.integers(0, 40, size=2)
        r = topology.cellular_link_rate(topo, i, j)
        assert r <= rates[i] and r <= rates[j]


def test_wifi_neighbors_boundary_and_symmetry():
    topo = small_topology([(0, 0), (100, 0), (500, 500)])
    assert topo.neighbors[0] == [1]
    assert topo.neighbors[1] == [0]
    assert topo.neighbors[2] == []
    rnd = topology.generate(300, np.random.default_rng(8),
                            topology.TopologyParams(cell_radius=400.0))
    for i in range(len(rnd)):
        for j in rnd.neighbors[i]:
            assert i in rnd.neighbors[j]


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
# more than r apart exactly, two buckets apart, yet 100.0 - -8.9e-176 rounds to r
@example(points=[(0.0, 100.0), (0.0, -8.892538588976726e-176)], copies=0, r=100.0)
def test_bucket_neighbors_match_brute_force(points, copies, r):
    points = points + points[:copies]  # duplicate points
    positions = np.array(points, dtype=float).reshape(-1, 2)
    got = topology._bucket_neighbors(positions, r)
    assert len(got) == len(points)
    for row, want in zip(got, brute_force_neighbors(positions, r)):
        assert all(type(v) is int for v in row)
        assert row == want


rate_tiers = st.just(topology.DEFAULT_RATE_TIERS) | st.lists(
    st.tuples(st.floats(0.05, 1.2), st.floats(0.01, 4.0)), min_size=1, max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(node_count=st.integers(1, 60),
       fractions=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), min_size=1, max_size=4),
       cell_radius=st.sampled_from([150.0, 400.0, 1000.0]), tiers=rate_tiers,
       cell_rate=st.floats(0.1, 8.0), seed=st.integers(0, 2**16), trial=st.integers(0, 3))
@example(node_count=750, fractions=[0.0, 0.01, 0.4, 1.0], cell_radius=1000.0,
         tiers=topology.DEFAULT_RATE_TIERS, cell_rate=1.0, seed=4, trial=2)
@example(node_count=1, fractions=[1.0, 0.0], cell_radius=150.0,
         tiers=topology.DEFAULT_RATE_TIERS, cell_rate=1.0, seed=0, trial=0)
@example(node_count=2, fractions=[0.5], cell_radius=150.0,
         tiers=((0.5, 3), (0.25, 2.0), (1.0, 0.5)), cell_rate=2.5, seed=1, trial=0)
@example(node_count=3, fractions=[0.0, 1.0], cell_radius=150.0,
         tiers=((1.0, 0.5),), cell_rate=4.0, seed=2, trial=1)
def test_shared_placement_matches_fresh_generate(node_count, fractions, cell_radius, tiers,
                                                 cell_rate, seed, trial):
    config = replace(ScenarioConfig(), node_count=node_count, cell_radius=cell_radius,
                     rate_tiers=tiers, r_cell=cell_rate)
    shared = presets.cell_topology(config, seed, trial, fractions)
    assert len(shared) == len(fractions)
    first = shared[0]
    assert first.cellular_rates.tolist() == node_rates(first)
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
    topology.place(node_count, rng, config.topology_params())
    placed = rng.bit_generator.state
    # every variant is built before any is checked: a later draw must not
    # touch an earlier variant
    for frac, topo in zip(fractions, shared):
        rng.bit_generator.state = placed
        assert topo.backbone == backbone_draw(topo.cell_ids.tolist(), frac, rng)
        fresh_rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
        params = replace(config.topology_params(), backbone_fraction=frac)
        fresh = topology.generate(node_count, fresh_rng, params)
        assert topo.params == fresh.params
        assert same_nodes(topo, fresh)
        assert topo.neighbors == fresh.neighbors
        for name in ("positions", "cell_ids", "cellular_rates", "neighbors", "links"):
            assert getattr(topo, name) is getattr(first, name)
        routes, fresh_routes = build_routes(topo), build_routes(fresh)
        for dst in range(0, node_count, max(1, node_count // 8)):
            assert np.array_equal(routes.distances_to(dst), fresh_routes.distances_to(dst))
            for node in range(node_count):
                assert routes.next_hops(node, dst) == fresh_routes.next_hops(node, dst)


@pytest.mark.parametrize("text", ["validate=1\n", "delta=abc\n", "delta=inf\n",
                                  "backbone_fraction=0.5\n", "0 0 0 0 x 0\n",
                                  "0 0.0 0.0 7 1.0 0\n"],
                         ids=["method-name", "non-numeric-param", "non-finite-param",
                              "param-dump-never-writes", "non-numeric-field",
                              "cell-out-of-range"])
def test_load_rejects_malformed_input(text):
    with pytest.raises(ConfigError):
        topology.load(io.StringIO(text))


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
        pairs = [(i, j) for i in range(10) for j in topo.neighbors[i]]
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
    for nid, cell in enumerate(topo.cell_ids.tolist()):
        by_cell.setdefault(cell, []).append(nid)
    for cell, members in by_cell.items():
        chosen = sum(nid in topo.backbone for nid in members)
        assert chosen == round(0.5 * len(members))


def test_dump_load_round_trip():
    params = topology.TopologyParams(backbone_fraction=0.3)
    topo = topology.generate(60, np.random.default_rng(2), params)
    buf = io.StringIO()
    topo.dump(buf)
    buf.seek(0)
    back = topology.load(buf)
    assert len(back) == len(topo)
    assert same_nodes(back, topo)
    assert back.neighbors == topo.neighbors
    again = io.StringIO()
    back.dump(again)
    assert again.getvalue() == buf.getvalue()


@pytest.mark.parametrize("ids", [(0, 5), (1, 0), (0, 0)])
def test_load_rejects_ids_out_of_order(ids):
    lines = "".join(f"{nid} {50.0 * k} 0.0 0 1.0 0\n" for k, nid in enumerate(ids))
    with pytest.raises(ConfigError):
        topology.load(io.StringIO(lines))


def test_chain_topology():
    topo = topology.chain_topology(7)
    assert len(topo) == 8
    for i in range(7):
        assert topo.neighbors[i + 1][0] == i
    assert topo.neighbors[0] == [1]
    assert topo.neighbors[3] == [2, 4]


def test_relay_star_topology():
    topo = topology.relay_star_topology(3, link_capacity=2.0)
    src, dst = 0, 4
    assert topo.wired_peers(src) == [1, 2, 3]
    assert topo.wired_peers(dst) == [1, 2, 3]
    assert topo.wired_peers(2) == [src, dst]
    # access-point preset has no radio links at all
    assert topo.neighbors == [[]] * len(topo)
    assert topo.wired.node_out[src] == 4.0
    assert topo.wired.node_in[dst] == 4.0
