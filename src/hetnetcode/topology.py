"""Geometric model of the heterogeneous network.

Seven flat-top hexagonal cells with a base station at each center, uniformly
placed nodes, distance-tiered cellular rates, WiFi adjacency within a fixed
range, and the protocol interference model with guard factor delta.
"""

from __future__ import annotations

import array
import copy
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import routing
from .config import ConfigError, TopologyParams

SQRT3 = math.sqrt(3.0)
CELLS = 7  # a center cell and its six neighbors


class LinkRangeError(ValueError):
    """Receiver is outside the transmitter's WiFi range."""


def hex_centers(radius: float) -> np.ndarray:
    """Center cell at the origin plus the six adjacent cells."""
    centers = [(0.0, 0.0)]
    for k in range(CELLS - 1):
        ang = math.radians(30 + 60 * k)
        centers.append((SQRT3 * radius * math.cos(ang), SQRT3 * radius * math.sin(ang)))
    return np.array(centers)


def _inside_hex(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    # edge slack scales with the radius (1e-9 at the default 1000), so a tiny
    # cell still rejects the rest of its bounding box
    tol = 1e-12 * radius
    dx = np.abs(points[:, 0] - center[0])
    dy = np.abs(points[:, 1] - center[1])
    return (dy <= SQRT3 / 2 * radius + tol) & (SQRT3 * dx + dy <= SQRT3 * radius + tol)


def tier_rates(dist: np.ndarray, radius: float, tiers, cell_rate: float) -> np.ndarray:
    """Cellular rate at each distance from the base station: cell_rate times
    the fraction of the first tier whose bound exceeds dist / radius, else of
    the last tier."""
    dnorm = dist / radius
    rates = np.full(len(dnorm), tiers[-1][1] * cell_rate, dtype=float)
    # the first matching tier wins, so earlier tiers are written last
    for bound, frac in reversed(tiers[:-1]):
        rates[dnorm < bound] = frac * cell_rate
    return rates


def _bucket_neighbors(positions: np.ndarray, r: float) -> list[list[int]]:
    """WiFi adjacency (distance <= r, boundary inclusive) via grid buckets.

    Candidates are the nodes of the 3x3 buckets around each node: three runs
    of bucket codes, one per bucket column, looked up for all nodes at once
    in the code-sorted order.  Memory grows with the candidate count, never
    with n^2 unless most nodes share a few buckets.  Each node's neighbors
    come out as an ascending list of ints.
    """
    n = len(positions)
    if n == 0:
        return []
    # buckets a hair wider than r: a pair whose rounded distance is r may lie
    # further apart exactly, and must still fall in adjacent buckets
    keys = np.floor(positions / (r * (1 + 1e-6))).astype(np.int64)
    kx = keys[:, 0] - keys[:, 0].min()
    ky = keys[:, 1] - keys[:, 1].min() + 1
    height = int(ky.max()) + 2  # a run ky - 1 .. ky + 1 stays in its column
    codes = kx * height + ky
    order = np.argsort(codes)
    sorted_codes = codes[order]
    mids = (sorted_codes[:, None] + height * np.arange(-1, 2)).ravel()
    lo = np.searchsorted(sorted_codes, mids - 1, "left")
    counts = np.searchsorted(sorted_codes, mids + 1, "right") - lo
    # candidate c of run t is order[lo[t] + c - (candidates before run t)]
    src = np.repeat(order, counts.reshape(n, 3).sum(axis=1))
    dst = order[np.arange(len(src)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    d = np.hypot(positions[dst, 0] - positions[src, 0], positions[dst, 1] - positions[src, 1])
    keep = (d <= r) & (dst != src)
    src, dst = src[keep], dst[keep]
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


@dataclass
class WiredSpec:
    """Explicit wired links for access-point style presets (no interference);
    the default has none."""

    edges: list = field(default_factory=list)  # list of (u, v) node-id pairs
    edge_capacity: float = 0.0  # packets per slot per edge
    node_out: dict = field(default_factory=dict)  # per-node wired send budget, packets per slot
    node_in: dict = field(default_factory=dict)  # per-node wired receive budget


class HetNetTopology:
    """Per-node fields as arrays by node id (cell ids default to 0, rates to
    params.r_cell) and the backbone as a set.  neighbors (WiFi) and links
    (WiFi and wired, the bus aside) list each node's adjacent ids; backbone
    variants of one placement share them all.  placed_state is the PCG64
    state place's draws end at, None unless place made the topology."""

    placed_state: dict | None = None

    def __init__(self, params: TopologyParams, positions, cell_ids=None,
                 cellular_rates=None, backbone=(), wired: WiredSpec | None = None):
        self.params = params
        self.cells = hex_centers(params.cell_radius)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        # the guard reads coordinates as Python floats from flat arrays, in
        # a third of the time numpy's scalars take
        self._xs, self._ys = (array.array("d", column.tobytes()) for column in self.positions.T)
        n = len(self.positions)
        self.cell_ids = np.zeros(n, dtype=np.int64) if cell_ids is None else np.asarray(cell_ids)
        self.cellular_rates = (np.full(n, params.r_cell, dtype=float) if cellular_rates is None
                               else np.asarray(cellular_rates, dtype=float))
        self.backbone = frozenset(int(b) for b in backbone)
        self.wired = wired or WiredSpec()
        self.neighbors = _bucket_neighbors(self.positions, params.wifi_range)
        # keyed by the nodes on an edge, so a topology without wired edges
        # builds nothing per node
        peers = {}
        for u, v in self.wired.edges:
            peers.setdefault(u, set()).add(v)
            peers.setdefault(v, set()).add(u)
        self._wired_peers = {u: sorted(p) for u, p in peers.items()}
        self.links = ([w + self._wired_peers.get(u, []) for u, w in enumerate(self.neighbors)]
                      if self.wired.edges else self.neighbors)

    def __len__(self) -> int:
        return len(self.positions)

    @functools.cached_property
    def routes(self):
        """This topology's hop-count RouteTable, built on first use."""
        return routing.build_routes(self)

    def distance(self, a: int, b: int) -> float:
        xs, ys = self._xs, self._ys
        return math.hypot(xs[a] - xs[b], ys[a] - ys[b])

    def wired_peers(self, node: int) -> list[int]:
        """Ascending peers over explicit spec edges; the backbone is one bus,
        one virtual hop between any two members, and is not expanded here."""
        return self._wired_peers.get(node, [])

    def protocol_model_ok(self, tx: int, rx: int, concurrent_txs) -> bool:
        """Guard check: every other transmitter k must satisfy
        d(rx, k) >= (1 + delta) * d(tx, rx)."""
        link = self.distance(tx, rx)
        if link > self.params.wifi_range:
            raise LinkRangeError(f"{tx}->{rx} at {link:.1f} m exceeds range")
        guard = (1.0 + self.params.delta) * link
        for k in concurrent_txs:
            if k in (tx, rx):
                continue
            if self.distance(rx, k) < guard:
                return False
        return True

    def dump(self, fh):
        fh.write("# hetnetcode topology v1\n")
        for key, name in _DUMP_KEYS.items():
            fh.write(f"{key}={getattr(self.params, name)!r}\n")
        fh.write("# id x y cell rate backbone\n")
        rows = zip(self.positions.tolist(), self.cell_ids.tolist(), self.cellular_rates.tolist())
        for i, ((x, y), cell, rate) in enumerate(rows):
            fh.write(f"{i} {x!r} {y!r} {cell} {rate!r} {int(i in self.backbone)}\n")


# the parameters a dump writes: file key -> field
_DUMP_KEYS = {"cell_radius": "cell_radius", "wifi_range": "wifi_range", "delta": "delta",
              "cell_rate": "r_cell", "backbone_rate": "backbone_rate"}


def cellular_link_rate(topo: HetNetTopology, src: int, dst: int) -> float:
    """Session cellular quality is the worse of the two access links."""
    return float(min(topo.cellular_rates[src], topo.cellular_rates[dst]))


def place(node_count: int, rng: np.random.Generator,
          params: TopologyParams | None = None) -> HetNetTopology:
    """Uniform placement over the 7-hexagon region by rejection sampling,
    with cells, cellular rates and WiFi neighbors but no backbone.  The
    result records in placed_state the rng state its draws end at, where
    each with_backbone draw starts."""
    params = replace(params or TopologyParams(), backbone_fraction=0.0)
    if node_count <= 0:
        raise ConfigError("node_count must be positive")

    r = params.cell_radius
    centers = hex_centers(r)
    lo_x, hi_x = centers[:, 0].min() - r, centers[:, 0].max() + r
    lo_y, hi_y = centers[:, 1].min() - r, centers[:, 1].max() + r

    chunks, placed = [], 0
    batch = max(128, node_count)
    while placed < node_count:
        cand = np.column_stack([
            rng.uniform(lo_x, hi_x, size=batch),
            rng.uniform(lo_y, hi_y, size=batch),
        ])
        inside = np.zeros(batch, dtype=bool)
        for c in centers:
            inside |= _inside_hex(cand, c, r)
        chunks.append(cand[inside])
        placed += len(chunks[-1])
    positions = np.concatenate(chunks)[:node_count]

    # nearest base station; exact ties resolve to the lowest cell index
    d2 = ((positions[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    cell_ids = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(node_count), cell_ids])
    rates = tier_rates(dist, r, params.rate_tiers, params.r_cell)
    topo = HetNetTopology(params, positions, cell_ids, rates)
    topo.placed_state = rng.bit_generator.state
    return topo


def with_backbone(plain: HetNetTopology, fraction: float) -> HetNetTopology:
    """plain with round(fraction * members) backbone nodes drawn per cell
    from plain.placed_state, so every variant of a placement at one fraction,
    a variant's too, has one backbone; it shares plain's arrays and adjacency
    lists but builds its own routes, and plain is left unchanged.  Only place
    makes placement draws: chains, relay stars and hand-built topologies
    have none to draw a backbone from."""
    topo = copy.copy(plain)
    topo.__dict__.pop("routes", None)  # plain's table, if built, has plain's bus
    topo.params = replace(plain.params, backbone_fraction=fraction)
    chosen = []
    if fraction > 0:
        rng = np.random.default_rng()
        rng.bit_generator.state = plain.placed_state
        for cell in range(len(plain.cells)):
            members = np.flatnonzero(plain.cell_ids == cell)
            k = round(fraction * len(members))
            if k > 0:
                chosen += rng.choice(members, size=k, replace=False).tolist()
    topo.backbone = frozenset(chosen)
    return topo


def generate(node_count: int, rng: np.random.Generator,
             params: TopologyParams | None = None) -> HetNetTopology:
    """place, then with_backbone at params.backbone_fraction.

    Pure function of (rng state, params): same seed, same topology.  The
    backbone draws start from the placement's own end state, so
    with_backbone(generate(...), f) equals generate at backbone_fraction f.
    """
    params = params or TopologyParams()
    return with_backbone(place(node_count, rng, params), params.backbone_fraction)


def chain_topology(hops: int, params: TopologyParams | None = None) -> HetNetTopology:
    """Straight line of hops+1 nodes spaced by the largest power of two within
    the WiFi range, so that every distance on it is exact."""
    if hops < 1:
        raise ConfigError("need at least one hop")
    params = params or TopologyParams()
    spacing = math.ldexp(1.0, math.frexp(params.wifi_range)[1] - 1)
    if not math.isfinite(hops * spacing):
        raise ConfigError("the chain is too long: hops * spacing must be finite")
    return HetNetTopology(params, [(i * spacing, 0.0) for i in range(hops + 1)])


def relay_star_topology(n_relays: int, link_capacity: float,
                        interfaces_per_node: int = 2) -> HetNetTopology:
    """Access-point preset: source and destination each reach every relay
    over wired access links; no radio geometry.

    Node 0 is the source, node n_relays+1 the destination.  The source's
    out and the destination's in budgets model their fixed number of
    physical interfaces; a relay has one access link on each side, whose
    edge capacity is its only budget there.
    """
    if n_relays < 1:
        raise ConfigError("need at least one relay")
    if not 0 < link_capacity < math.inf:
        raise ConfigError("link capacity must be positive and finite")
    params = TopologyParams()
    src, dst = 0, n_relays + 1
    # positions are only cosmetic here; keep nodes far apart so no WiFi links form
    gap = 10 * params.wifi_range
    positions = [(0.0, 0.0), *((gap * i, gap) for i in range(1, n_relays + 1)), (gap * dst, 0.0)]
    edges = [(src, i) for i in range(1, n_relays + 1)]
    edges += [(i, dst) for i in range(1, n_relays + 1)]
    cap = interfaces_per_node * link_capacity
    wired = WiredSpec(edges=edges, edge_capacity=link_capacity,
                      node_out={src: cap}, node_in={dst: cap})
    return HetNetTopology(params, positions, wired=wired)
