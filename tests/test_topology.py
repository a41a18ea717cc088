import gc
import io
import math
import weakref
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hetnetcode import presets, topology
from hetnetcode.config import (
    DEFAULT_RATE_TIERS,
    ConfigError,
    ScenarioConfig,
    TopologyParams,
    finite_number,
)
from oracles import backbone_draw, load, node_rates, rate_for_distance


def small_topology(positions, wifi_range=100.0, delta=0.2):
    params = TopologyParams(wifi_range=wifi_range, delta=delta)
    return topology.HetNetTopology(params, positions)


def same_nodes(a, b) -> bool:
    return (np.array_equal(a.positions, b.positions) and np.array_equal(a.cell_ids, b.cell_ids)
            and a.cellular_rates.tolist() == b.cellular_rates.tolist()
            and a.backbone == b.backbone)


def test_generate_deterministic():
    params = TopologyParams()
    a = topology.generate(50, np.random.default_rng(123), params)
    b = topology.generate(50, np.random.default_rng(123), params)
    assert same_nodes(a, b)
    one = topology.generate(1, np.random.default_rng(9), params)
    two = topology.generate(1, np.random.default_rng(9), params)
    assert len(one) == 1 and same_nodes(one, two)


# the largest cell_radius TopologyParams accepts at the default WiFi range:
# the cells' bounding box spans just under 2**31 WiFi ranges
LARGEST_RADIUS = 0.999999 * 2**31 * 100.0 / (2 * (1 + math.sqrt(3)))


def test_generate_rejects_bad_params():
    with pytest.raises(ConfigError, match="node_count must be positive"):
        topology.generate(0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), TopologyParams(cell_radius=-1))
    with pytest.raises(ConfigError):
        topology.generate(5, np.random.default_rng(0), TopologyParams(delta=-0.5))
    # non-finite numbers: NaN would pass every range check and inf overflow numpy
    for bad in ({"delta": math.nan}, {"wifi_range": math.inf}, {"cell_radius": math.inf}):
        with pytest.raises(ConfigError):
            topology.generate(5, np.random.default_rng(0), TopologyParams(**bad))
    # cells whose bounding box overflows numpy's uniform draw or its squared
    # distances, or that span too many WiFi ranges for int64 bucket codes
    for bad in ({"cell_radius": 1e308}, {"cell_radius": 1e200}, {"wifi_range": 1e-300},
                {"cell_radius": 1e200, "wifi_range": 1e195},
                {"cell_radius": 1.00001 * LARGEST_RADIUS}):
        with pytest.raises(ConfigError, match="too large"):
            topology.generate(5, np.random.default_rng(0), TopologyParams(**bad))
    # rate tiers built in Python get the checks a config file's do
    for tiers in (((0.25, math.nan), (1.0, math.nan)), ((0.5, 1.0), (1.0, math.inf)),
                  ((0.5,),), ((0.5, True),), ((0.5, 1.0), (math.inf, 0.5)), ()):
        with pytest.raises(ConfigError):
            TopologyParams(rate_tiers=tiers)


def test_smallest_cells_still_tell_their_nodes_apart():
    # at 1e-200 the squared distances to the base stations underflow to 0 and
    # every node lands in cell 0; at the bound they are normal floats
    params = TopologyParams(cell_radius=2.0**-510, wifi_range=2.0**-513)
    topo = topology.generate(200, np.random.default_rng(0), params)
    assert set(topo.cell_ids.tolist()) == set(range(topology.CELLS))
    for radius in (2.0**-510 * (1 - 2**-52), 1e-200):
        with pytest.raises(ConfigError, match="cell_radius is too small"):
            TopologyParams(cell_radius=radius, wifi_range=radius / 10)


def test_finite_number_needs_a_finite_float_value():
    assert finite_number(10**300) and finite_number(2.5)
    # any numbers.Real: numpy's scalars, whose bool is not one, and Fraction
    for x in (np.float32(1.5), np.int64(3), Fraction(1, 3)):
        assert finite_number(x) is True
    for x in (10**400, -10**400, math.inf, math.nan, True, "1", None, np.float64("nan"),
              np.True_, Decimal(1), 1j):
        assert finite_number(x) is False
    # a float field still takes an int with a finite float value
    ScenarioConfig(r_cell=2, wifi_range=10**300)


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


@pytest.mark.parametrize("radius", [1000.0, 400.0, 1e-3, 1e-9, 1e-12, 2.0**-510])
def test_placed_nodes_lie_in_their_own_cell_at_every_radius(radius):
    # the hexagon test's edge slack scales with the radius: an absolute 1e-9
    # put nodes outside every cell once the radius came near 1e-9 or below
    params = TopologyParams(cell_radius=radius, wifi_range=radius / 10)
    topo = topology.place(2000, np.random.default_rng(0), params)
    own = topo.cells[topo.cell_ids]
    d = np.hypot(topo.positions[:, 0] - own[:, 0], topo.positions[:, 1] - own[:, 1])
    assert d.max() <= radius * (1 + 1e-9)


def test_rate_tiers():
    tiers = DEFAULT_RATE_TIERS
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
    two = topology.HetNetTopology(TopologyParams(), [(0, 0), (0, 0)],
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
                            TopologyParams(cell_radius=400.0))
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


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cell_radius", [1000.0, 250.0])
def test_bucket_neighbors_match_brute_force_on_placed_cells(seed, cell_radius):
    """The preset scale: 750 placed nodes, at the default cell size and at
    one where most buckets hold several nodes."""
    topo = topology.place(750, np.random.default_rng(seed), TopologyParams(cell_radius=cell_radius))
    assert topo.neighbors == brute_force_neighbors(topo.positions, topo.params.wifi_range)


def test_the_largest_accepted_geometry_places_and_buckets_cleanly():
    # numpy's overflow and cast warnings are errors under this suite's filters
    params = TopologyParams(cell_radius=LARGEST_RADIUS)
    topo = topology.place(50, np.random.default_rng(1), params)
    assert topo.neighbors == brute_force_neighbors(topo.positions, 100.0)
    # neighbor pairs at the four corners of the bounding box
    x, y = 2.5 * LARGEST_RADIUS, (1 + math.sqrt(3)) * LARGEST_RADIUS
    corners = [(sx * x, sy * y) for sx in (-1, 1) for sy in (-1, 1)]
    positions = np.array([*corners, *((cx - math.copysign(50.0, cx), cy) for cx, cy in corners)])
    assert topology._bucket_neighbors(positions, 100.0) == [[4], [5], [6], [7], [0], [1], [2], [3]]


rate_tiers = st.just(DEFAULT_RATE_TIERS) | st.lists(
    st.tuples(st.floats(0.05, 1.2), st.floats(0.01, 4.0)), min_size=1, max_size=4).map(tuple)


backbone_fractions = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)


@settings(max_examples=60, deadline=None)
@given(node_count=st.integers(2, 60), base_fraction=backbone_fractions,
       fractions=st.lists(backbone_fractions, min_size=1, max_size=4),
       cell_radius=st.sampled_from([150.0, 400.0, 1000.0]), tiers=rate_tiers,
       cell_rate=st.floats(0.1, 8.0), seed=st.integers(0, 2**16), trial=st.integers(0, 3))
@example(node_count=750, base_fraction=0.1, fractions=[0.0, 0.01, 0.4, 1.0], cell_radius=1000.0,
         tiers=DEFAULT_RATE_TIERS, cell_rate=1.0, seed=4, trial=2)
@example(node_count=2, base_fraction=0.0, fractions=[1.0, 0.0], cell_radius=150.0,
         tiers=DEFAULT_RATE_TIERS, cell_rate=1.0, seed=0, trial=0)
@example(node_count=2, base_fraction=1.0, fractions=[0.5], cell_radius=150.0,
         tiers=((0.5, 3), (0.25, 2.0), (1.0, 0.5)), cell_rate=2.5, seed=1, trial=0)
@example(node_count=3, base_fraction=0.5, fractions=[0.0, 1.0], cell_radius=150.0,
         tiers=((1.0, 0.5),), cell_rate=4.0, seed=2, trial=1)
def test_shared_placement_matches_fresh_generate(node_count, base_fraction, fractions,
                                                 cell_radius, tiers, cell_rate, seed, trial):
    """Backbone variants of a trial's topology at its own backbone_fraction,
    as the k/n sweep makes them, and of its bare placement, each equal to a
    fresh generate at the variant's fraction."""
    config = replace(ScenarioConfig(), node_count=node_count, cell_radius=cell_radius,
                     rate_tiers=tiers, r_cell=cell_rate, backbone_fraction=base_fraction)
    base = presets.cell_topology(config, seed, trial)
    assert base.cellular_rates.tolist() == node_rates(base)
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
    plain = topology.place(node_count, rng, config.topology_params())
    placed = rng.bit_generator.state
    assert plain.placed_state == placed
    assert base.backbone == backbone_draw(base.cell_ids.tolist(), base_fraction, rng)
    # base's and plain's routes are built before their variants, which must
    # not inherit them
    dsts = range(0, node_count, max(1, node_count // 8))
    base_routes, plain_routes = base.routes, plain.routes
    plain_dist = [plain_routes.distances_to(dst).copy() for dst in dsts]
    shared = [topology.with_backbone(base, frac) for frac in fractions]
    variants = [topology.with_backbone(plain, frac) for frac in fractions]
    # every variant is built before any is checked: a later draw must not
    # touch an earlier variant
    for frac, topo, variant in zip(fractions, shared, variants):
        rng.bit_generator.state = placed
        assert topo.backbone == backbone_draw(topo.cell_ids.tolist(), frac, rng)
        assert variant.backbone == topo.backbone
        fresh_rng = np.random.default_rng(np.random.SeedSequence((seed, trial, 1)))
        params = replace(config.topology_params(), backbone_fraction=frac)
        fresh = topology.generate(node_count, fresh_rng, params)
        assert topo.params == fresh.params
        assert same_nodes(topo, fresh)
        assert topo.neighbors == fresh.neighbors
        for name in ("positions", "cell_ids", "cellular_rates", "neighbors", "links"):
            assert getattr(topo, name) is getattr(base, name)
        for own in (topo, variant):
            assert own.routes.topology is own
            for dst in dsts:
                assert np.array_equal(own.routes.distances_to(dst),
                                      fresh.routes.distances_to(dst))
                for node in range(node_count):
                    for interface in ("wifi", "wired"):
                        assert (own.routes.next_hops(node, dst, interface)
                                == fresh.routes.next_hops(node, dst, interface))
    assert base.routes is base_routes and base_routes.topology is base
    assert plain.routes is plain_routes and plain_routes.topology is plain
    for dst, dist in zip(dsts, plain_dist):
        assert np.array_equal(plain.routes.distances_to(dst), dist)


def test_a_dropped_topology_with_built_routes_is_freed_without_the_cycle_collector():
    """A topology and its cached RouteTable form no reference cycle, so
    dropping the topology frees it (and its table) with gc disabled."""
    config = ScenarioConfig(node_count=60, cell_radius=120.0, backbone_fraction=0.2)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        made = [topology.chain_topology(3), presets.cell_topology(config, 0)]
        made.append(topology.with_backbone(made[1], 0.5))
        refs = []
        for topo in made:
            routes = topo.routes
            assert routes.topology is topo
            routes.next_hops(0, len(topo) - 1, "wired")
            refs.append((weakref.ref(topo), weakref.ref(routes)))
        del topo, routes, made
        assert [(t(), r()) for t, r in refs] == [(None, None)] * 3
    finally:
        if gc_was_enabled:
            gc.enable()


@pytest.mark.parametrize("text", ["validate=1\n", "delta=abc\n", "delta=inf\n",
                                  "backbone_fraction=0.5\n", "0 0 0 0 x 0\n",
                                  "0 0.0 0.0 7 1.0 0\n"],
                         ids=["method-name", "non-numeric-param", "non-finite-param",
                              "param-dump-never-writes", "non-numeric-field",
                              "cell-out-of-range"])
def test_load_rejects_malformed_input(text):
    with pytest.raises(ConfigError):
        load(io.StringIO(text))


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
    params = TopologyParams(backbone_fraction=0.5)
    topo = topology.generate(350, np.random.default_rng(55), params)
    by_cell: dict[int, list] = {}
    for nid, cell in enumerate(topo.cell_ids.tolist()):
        by_cell.setdefault(cell, []).append(nid)
    for cell, members in by_cell.items():
        chosen = sum(nid in topo.backbone for nid in members)
        assert chosen == round(0.5 * len(members))


def test_dump_load_round_trip():
    params = TopologyParams(backbone_fraction=0.3)
    topo = topology.generate(60, np.random.default_rng(2), params)
    buf = io.StringIO()
    topo.dump(buf)
    buf.seek(0)
    back = load(buf)
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
        load(io.StringIO(lines))


def test_chain_topology():
    topo = topology.chain_topology(7)
    assert len(topo) == 8
    for i in range(7):
        assert topo.neighbors[i + 1][0] == i
    assert topo.neighbors[0] == [1]
    assert topo.neighbors[3] == [2, 4]


@pytest.mark.parametrize("wifi_range", [None, {}, "x", -1.0])
def test_chain_topology_checks_its_params_first(wifi_range):
    # the chain's spacing comes from its WiFi range; TopologyParams checks it when
    # made, so a non-number fails with a ConfigError, not a TypeError
    with pytest.raises(ConfigError, match="wifi_range"):
        topology.chain_topology(2, TopologyParams(wifi_range=wifi_range))


@settings(max_examples=100, deadline=None)
@given(wifi_range=st.floats(1e-5, 1e306), hops=st.integers(1, 40))
@example(wifi_range=0.1, hops=7)
@example(wifi_range=0.3, hops=7)
@example(wifi_range=7.77, hops=7)
@example(wifi_range=1e-5, hops=40)
def test_a_chain_is_a_chain_at_every_wifi_range(wifi_range, hops):
    """At any range the params accept, node i's WiFi neighbours are i - 1
    and i + 1 alone, and it lies hops - i hops from the last node."""
    topo = topology.chain_topology(hops, TopologyParams(wifi_range=wifi_range))
    assert topo.neighbors == [[j for j in (i - 1, i + 1) if 0 <= j <= hops]
                              for i in range(hops + 1)]
    assert topo.routes.distances_to(hops).tolist() == [hops - i for i in range(hops + 1)]


def test_chain_topology_refuses_a_last_node_at_infinity():
    # at range 6e307 the nodes lie 2**1022 apart: three hops end at a
    # finite x, though 3 * 6e307 is not, and four at 2**1024
    params = TopologyParams(wifi_range=6e307)
    assert topology.chain_topology(3, params).positions[-1, 0] == 3 * 2.0**1022
    with pytest.raises(ConfigError, match=r"too long: hops \* spacing must be finite"):
        topology.chain_topology(4, params)


def test_relay_star_topology():
    topo = topology.relay_star_topology(3, link_capacity=2.0)
    src, dst = 0, 4
    assert topo.wired_peers(src) == [1, 2, 3]
    assert topo.wired_peers(dst) == [1, 2, 3]
    assert topo.wired_peers(2) == [src, dst]
    # access-point preset has no radio links at all
    assert topo.neighbors == [[]] * len(topo)
    # a relay's only budget on each side is its one access link's capacity
    assert topo.wired.node_out == {src: 4.0}
    assert topo.wired.node_in == {dst: 4.0}
