"""Geometric model of the heterogeneous network.

Seven flat-top hexagonal cells with a base station at each center, uniformly
placed nodes, distance-tiered cellular rates, WiFi adjacency within a fixed
range, and the protocol interference model with guard factor delta.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import typing
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import ConfigError

SQRT3 = math.sqrt(3.0)
CELLS = 7  # a center cell and its six neighbors

# cellular rate tiers: (upper bound on d/R, fraction of the cell max rate);
# the last tier catches everything up to the cell edge
DEFAULT_RATE_TIERS = ((0.25, 1.0), (0.5, 0.5), (0.75, 0.25), (1.0, 0.125))


class LinkRangeError(ValueError):
    """Receiver is outside the transmitter's WiFi range."""


def finite_number(x) -> bool:
    """x is a finite real number and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


# the values a declared field type accepts, and their name in errors; a JSON
# list is read as a tuple, a JSON object for a dataclass field as that class
_ACCEPTS = {bool: (bool, "true or false"), int: (int, "an integer"),
            float: ((int, float), "a number"), str: (str, "a string"),
            type(None): (type(None), "null"), tuple: ((list, tuple), "a list"),
            dict: (dict, "an object")}


@functools.cache
def declared_types(cls) -> dict:
    """Per field of the config dataclass cls: the members of its declared
    type, the types a value other than a bool may have, and the declared
    type's name in errors, read once per class."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        accepts = [(kind, f"a {kind.__name__} (an object)") if is_dataclass(kind)
                   else _ACCEPTS[kind] for kind in kinds]
        table[f.name] = (kinds, tuple(t for t, _ in accepts if t is not bool),
                         " or ".join(label for _, label in accepts))
    return table


def check_types(config):
    """ConfigError unless every field of config holds a value of its declared
    type, a bool being no number, and every float is finite."""
    for name, (kinds, accepted, expected) in declared_types(type(config)).items():
        value = getattr(config, name)
        if not (bool in kinds if isinstance(value, bool) else isinstance(value, accepted)):
            raise ConfigError(f"{name} must be {expected}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, not {value}")


@dataclass
class TopologyParams:
    cell_radius: float = 1000.0
    wifi_range: float = 100.0
    delta: float = 0.2
    r_cell: float = 1.0  # max cellular rate R_cell, in units of R_WiFi
    rate_tiers: tuple = DEFAULT_RATE_TIERS
    backbone_fraction: float = 0.0  # k/n, applied per cell
    backbone_rate: float = 100.0  # wired bus capacity, in units of R_WiFi

    def validate(self):
        """Every field's type (a subclass's too), then the topology's own
        ranges."""
        check_types(self)
        if self.cell_radius <= 0 or self.wifi_range <= 0:
            raise ConfigError("cell_radius and wifi_range must be positive")
        if self.delta < 0:
            raise ConfigError("delta must be non-negative")
        if self.r_cell <= 0 or self.backbone_rate <= 0:
            raise ConfigError("rates must be positive")
        if not 0.0 <= self.backbone_fraction <= 1.0:
            raise ConfigError("backbone_fraction must be in [0, 1]")
        tiers = self.rate_tiers
        if not (tiers and all(
                isinstance(t, (list, tuple)) and len(t) == 2 and all(map(finite_number, t))
                and t[1] > 0 for t in tiers)):
            raise ConfigError("rate_tiers must be a non-empty list of [bound, fraction] "
                              "pairs of finite numbers, with positive fractions")


def hex_centers(radius: float) -> np.ndarray:
    """Center cell at the origin plus the six adjacent cells."""
    centers = [(0.0, 0.0)]
    for k in range(CELLS - 1):
        ang = math.radians(30 + 60 * k)
        centers.append((SQRT3 * radius * math.cos(ang), SQRT3 * radius * math.sin(ang)))
    return np.array(centers)


def _inside_hex(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    dx = np.abs(points[:, 0] - center[0])
    dy = np.abs(points[:, 1] - center[1])
    return (dy <= SQRT3 / 2 * radius + 1e-9) & (SQRT3 * dx + dy <= SQRT3 * radius + 1e-9)


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
    mids = (codes[:, None] + height * np.arange(-1, 2)).ravel()
    lo = np.searchsorted(sorted_codes, mids - 1, "left")
    counts = np.searchsorted(sorted_codes, mids + 1, "right") - lo
    # candidate c of run t is order[lo[t] + c - (candidates before run t)]
    src = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    dst = order[np.arange(len(src)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    d = np.hypot(positions[dst, 0] - positions[src, 0], positions[dst, 1] - positions[src, 1])
    keep = (d <= r) & (dst != src)
    src, dst = src[keep], dst[keep]
    flat = dst[np.lexsort((dst, src))].tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


@dataclass
class WiredSpec:
    """Explicit wired links for access-point style presets (no interference)."""

    edges: list  # list of (u, v) node-id pairs
    edge_capacity: float  # packets per slot per edge
    node_out: dict  # per-node wired send budget, packets per slot
    node_in: dict  # per-node wired receive budget


class HetNetTopology:
    """Per-node fields as arrays by node id (cell ids default to 0, rates to
    params.r_cell) and the backbone as a set.  neighbors (WiFi) and links
    (WiFi and wired, the bus aside) list each node's adjacent ids; backbone
    variants of one placement share them all."""

    def __init__(self, params: TopologyParams, positions, cell_ids=None,
                 cellular_rates=None, backbone=(), wired: WiredSpec | None = None):
        params.validate()
        self.params = params
        self.cells = hex_centers(params.cell_radius)
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 2)
        n = len(self.positions)
        self.cell_ids = np.zeros(n, dtype=np.int64) if cell_ids is None else np.asarray(cell_ids)
        self.cellular_rates = (np.full(n, params.r_cell, dtype=float) if cellular_rates is None
                               else np.asarray(cellular_rates, dtype=float))
        self.backbone = frozenset(int(b) for b in backbone)
        self.wired = wired
        self.neighbors = _bucket_neighbors(self.positions, params.wifi_range)
        peers = [set() for _ in range(n)]
        for u, v in wired.edges if wired is not None else ():
            peers[u].add(v)
            peers[v].add(u)
        self._wired_peers = [sorted(p) for p in peers]
        self.links = self.neighbors if wired is None else [
            w + p for w, p in zip(self.neighbors, self._wired_peers)]

    def __len__(self) -> int:
        return len(self.positions)

    def distance(self, a: int, b: int) -> float:
        pa, pb = self.positions[a], self.positions[b]
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    def wired_peers(self, node: int) -> list[int]:
        """Ascending peers over explicit spec edges; the backbone is one bus,
        one virtual hop between any two members, and is not expanded here."""
        return self._wired_peers[node]

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


# the parameters a dump writes and load reads back: file key -> field
_DUMP_KEYS = {"cell_radius": "cell_radius", "wifi_range": "wifi_range", "delta": "delta",
              "cell_rate": "r_cell", "backbone_rate": "backbone_rate"}
_NODE_FIELDS = (int, float, float, int, float, int)  # id x y cell rate backbone


def _parsed(kinds, texts: list[str], line: str) -> list:
    """Each text converted by its kind; ConfigError unless all convert."""
    try:
        return [kind(text) for kind, text in zip(kinds, texts, strict=True)]
    except ValueError:
        raise ConfigError(f"malformed topology line: {line!r}") from None


def load(fh) -> HetNetTopology:
    """The topology dump wrote; malformed input raises ConfigError."""
    params = TopologyParams()
    rows = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and " " not in line:
            key, val = line.split("=", 1)
            if key not in _DUMP_KEYS:
                raise ConfigError(f"unknown topology parameter {key!r}")
            setattr(params, _DUMP_KEYS[key], *_parsed((float,), [val], line))
            continue
        nid, x, y, cell, rate, flag = _parsed(_NODE_FIELDS, line.split(), line)
        if not (0 <= cell < CELLS and rate > 0 and flag in (0, 1)
                and all(map(math.isfinite, (x, y, rate)))):
            raise ConfigError(f"node field out of range: {line!r}")
        rows.append((nid, x, y, cell, rate, flag))
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ConfigError("node ids must be 0..n-1 in file order")
    return HetNetTopology(params, [row[1:3] for row in rows], [row[3] for row in rows],
                          [row[4] for row in rows], [row[0] for row in rows if row[5]])


def cellular_link_rate(topo: HetNetTopology, src: int, dst: int) -> float:
    """Session cellular quality is the worse of the two access links."""
    return float(min(topo.cellular_rates[src], topo.cellular_rates[dst]))


def place(node_count: int, rng: np.random.Generator,
          params: TopologyParams | None = None) -> HetNetTopology:
    """Uniform placement over the 7-hexagon region by rejection sampling,
    with cells, cellular rates and WiFi neighbors but no backbone.

    Every draw of a placement is made here, before any backbone draw, so the
    rng state after placing is where each with_backbone draw starts.
    """
    params = replace(params or TopologyParams(), backbone_fraction=0.0)
    params.validate()
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
    return HetNetTopology(params, positions, cell_ids, rates)


def with_backbone(plain: HetNetTopology, fraction: float,
                  rng: np.random.Generator) -> HetNetTopology:
    """plain with round(fraction * members) backbone nodes drawn per cell;
    the result shares plain's arrays and adjacency lists, and plain is left
    unchanged."""
    topo = copy.copy(plain)
    topo.params = replace(plain.params, backbone_fraction=fraction)
    topo.params.validate()
    chosen = []
    if fraction > 0:
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

    Pure function of (rng state, params): same seed, same topology.  Every
    placement draw comes before any backbone draw, so topologies that differ
    only in backbone_fraction can share one placement (see
    presets.cell_topology) by restarting each backbone draw from the rng
    state that place left.
    """
    params = params or TopologyParams()
    return with_backbone(place(node_count, rng, params), params.backbone_fraction, rng)


def chain_topology(hops: int, params: TopologyParams | None = None) -> HetNetTopology:
    """Straight line of hops+1 nodes spaced exactly one WiFi range apart."""
    if hops < 1:
        raise ConfigError("need at least one hop")
    params = params or TopologyParams()
    params.validate()
    spacing = params.wifi_range
    return HetNetTopology(params, [(i * spacing, 0.0) for i in range(hops + 1)])


def relay_star_topology(n_relays: int, link_capacity: float,
                        interfaces_per_node: int = 2,
                        params: TopologyParams | None = None) -> HetNetTopology:
    """Access-point preset: source and destination each reach every relay
    over wired access links; no radio geometry.

    Node 0 is the source, node n_relays+1 the destination.  Per-node wired
    budgets model the fixed number of physical interfaces.
    """
    if n_relays < 1:
        raise ConfigError("need at least one relay")
    if not 0 < link_capacity < math.inf:
        raise ConfigError("link capacity must be positive and finite")
    params = params or TopologyParams()
    src, dst = 0, n_relays + 1
    # positions are only cosmetic here; keep nodes far apart so no WiFi links form
    gap = 10 * params.wifi_range
    positions = [(0.0, 0.0), *((gap * i, gap) for i in range(1, n_relays + 1)), (gap * dst, 0.0)]
    edges = [(src, i) for i in range(1, n_relays + 1)]
    edges += [(i, dst) for i in range(1, n_relays + 1)]
    cap = interfaces_per_node * link_capacity
    node_out = {src: cap, **{i: link_capacity for i in range(1, n_relays + 1)}}
    node_in = {dst: cap, **{i: link_capacity for i in range(1, n_relays + 1)}}
    wired = WiredSpec(edges=edges, edge_capacity=link_capacity,
                      node_out=node_out, node_in=node_in)
    return HetNetTopology(params, positions, wired=wired)
