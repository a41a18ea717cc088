"""Reference implementations that the tests compare the program with, one
copy of each: GF(2^8) arithmetic from shift-and-reduce multiplication, and
linear algebra over it on uint8 matrices and on Python ints; the coefficient
draw through numpy's uint8 integers, numpy's own draws beside a session
stream's, and a session's six streams as numpy Generators; the
protocol-model guard over every pair of transmissions; hop counts by a BFS
over an explicit adjacency, and a session's pair pick, loaded cellular rate
and cut bound; per-node topology scans; and the reader of a topology dump,
which only the tests read back.  None of them reads hetnetcode.gf256,
hetnetcode.rlnc, hetnetcode.routing or a topology's route table, so a fault
there cannot move a reference with the program (tests/test_layering.py
holds this)."""

from __future__ import annotations

import math

import numpy as np

from hetnetcode.config import ConfigError, TopologyParams
from hetnetcode.simengine import CHECK_PAYLOAD_BYTES, Draws
from hetnetcode.topology import _DUMP_KEYS, CELLS, HetNetTopology

INF = math.inf


def gf_mul(a, b):
    """a * b in GF(2^8): shift-and-reduce long multiplication modulo 0x11B,
    on ints, or elementwise on broadcastable int arrays."""
    prod = 0
    for i in range(8):
        prod ^= ((b >> i) & 1) * (a << i)
    for bit in range(15, 7, -1):
        prod ^= ((prod >> bit) & 1) * (0x11B << (bit - 8))
    return prod


# the field's tables, built from gf_mul alone: ORACLE_MUL[a, b] is a * b, and
# ORACLE_INV[a] the b with a * b = 1 (0 at a = 0, which has none)
ORACLE_MUL = gf_mul(np.arange(256)[:, None], np.arange(256)).astype(np.uint8)
ORACLE_INV = (ORACLE_MUL == 1).argmax(axis=1).astype(np.uint8)
_MUL_ROWS = ORACLE_MUL.tolist()
_INV = ORACLE_INV.tolist()


def random_nonzero_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform coefficient bytes from numpy's uint8 draw, redrawn while all
    zero."""
    while True:
        v = rng.integers(0, 256, size=n, dtype=np.uint8)
        if np.count_nonzero(v):
            return v


def draw(rng, kind: str, n):
    """One draw of kind ("bytes", "below", "payload" or "random") with
    argument n, through a simengine.Draws or, as numpy makes it, from a
    Generator; "payload" is a session block's n rows of CHECK_PAYLOAD_BYTES
    bytes, as nested lists."""
    if kind == "bytes":
        return rng.bytes(n)
    if kind == "payload":
        if isinstance(rng, Draws):
            rows = np.frombuffer(rng.bytes(n * CHECK_PAYLOAD_BYTES), np.uint8)
            return rows.reshape(n, CHECK_PAYLOAD_BYTES).tolist()
        return rng.integers(0, 256, size=(n, CHECK_PAYLOAD_BYTES), dtype=np.uint8).tolist()
    if kind == "below":
        return rng.below(n) if isinstance(rng, Draws) else int(rng.integers(0, n))
    values = rng.random(n)
    return values if n is None or isinstance(rng, Draws) else values.tolist()


def session_rngs(seed: int) -> list[np.random.Generator]:
    """numpy's own Generators for a session's six streams, in order: S-D pair
    pick, cellular coefficients, source WiFi/wired draws, relay recodes and
    hop picks, radio scheduler, block payloads."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]


def assert_next_draws_agree(ours, theirs):
    """ours and theirs stand where the next bytes, below and random draws
    agree, of one value and of several."""
    for kind, n in (("bytes", 5), ("below", 7), ("random", None), ("random", 3), ("bytes", 2)):
        assert draw(ours, kind, n) == draw(theirs, kind, n)


def brute_force_guard_ok(topo, admitted):
    """Independent protocol-model check over an admitted transmission set:
    every ordered pair of transmissions, half-duplex and guard alike."""
    for i, (tx, rx) in enumerate(admitted):
        for j, (otx, orx) in enumerate(admitted):
            if i == j:
                continue
            if otx in (tx, rx):
                return False  # half-duplex violation doubles as guard failure
            if topo.distance(rx, otx) < (1 + topo.params.delta) * topo.distance(tx, rx):
                return False
    return True


def add(a, b):
    """Field addition: bitwise XOR (works on ints and uint8 arrays alike)."""
    return a ^ b


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2^8), every product read from ORACLE_MUL.  a is
    (m, p) or (p,); b is (p, n) or (p,)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim == 1:
        return matmul(a[None, :], b)[0]
    if b.ndim == 1:
        return matmul(a, b[:, None])[:, 0]
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for t in range(a.shape[1]):
        out ^= ORACLE_MUL[a[:, t][:, None], b[t][None, :]]
    return out


def weighted_row_sum(weights, rows, width: int) -> list[int]:
    """sum_t weights[t] * rows[t] of width-long rows of ints, one product at a
    time from ORACLE_MUL: no table gather and no bytes translate."""
    out = [0] * width
    for w, row in zip(weights, rows):
        products = _MUL_ROWS[w]
        out = [o ^ products[x] for o, x in zip(out, row)]
    return out


def rank(m) -> int:
    """Row rank by Gaussian elimination; the pivot is the first nonzero entry
    in the column, lowest row index first."""
    m = np.array(m, dtype=np.uint8, copy=True)
    if m.ndim != 2:
        raise ValueError("rank expects a 2-D matrix")
    rows, cols = m.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        below = m[r + 1:, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            factors = ORACLE_MUL[below[hit], ORACLE_INV[m[r, col]]]
            m[r + 1 + hit] ^= ORACLE_MUL[factors[:, None], m[r][None, :]]
        r += 1
    return r


def solve(m, rhs) -> list[list[int]] | None:
    """The x with m @ x = rhs over GF(2^8), by Gauss-Jordan on [m | rhs] as
    lists of ints; None when m is singular."""
    n = len(m)
    aug = [list(a) + list(b) for a, b in zip(m, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = _MUL_ROWS[_INV[aug[col][col]]]
        aug[col] = [scale[v] for v in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                products = _MUL_ROWS[f]
                aug[i] = [v ^ products[p] for v, p in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def kept_rows(dec) -> np.ndarray:
    """The decoder's kept [coefficients | payload] rows as a (rank, M + k)
    matrix, (0, M) before the first innovative arrival."""
    if not dec._kept:
        return np.zeros((0, dec.block_size), dtype=np.uint8)
    return np.frombuffer(b"".join(dec._kept), dtype=np.uint8).reshape(dec.rank, -1)


def coefficient_matrix(dec) -> np.ndarray:
    return kept_rows(dec)[:, :dec.block_size]


def payload_matrix(dec) -> np.ndarray:
    return kept_rows(dec)[:, dec.block_size:]


def adjacency(topo) -> tuple[list[set], list[set]]:
    """(wifi, wired): each node's WiFi neighbours, and its peers over the
    wired spec's edges and the backbone bus, the bus expanded into its full
    clique."""
    wifi = [set(row) for row in topo.neighbors]
    wired = [set() for _ in range(len(topo))]
    for u, v in topo.wired.edges:
        wired[u].add(v)
        wired[v].add(u)
    for b in topo.backbone:
        wired[b] |= topo.backbone - {b}
    return wifi, wired


def links(topo) -> list[set]:
    """Each node's neighbours over any interface."""
    return [a | b for a, b in zip(*adjacency(topo))]


def bfs(adj, dst: int) -> list[float]:
    """Each node's hop count to dst over the adjacency sets adj, INF when
    unreachable, one frontier at a time."""
    dist = [INF] * len(adj)
    dist[dst] = 0
    frontier = [dst]
    while frontier:
        reached = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == INF:
                    dist[v] = dist[u] + 1
                    reached.append(v)
        frontier = reached
    return dist


def hop_distance(topo, src: int, dst: int) -> float:
    return bfs(links(topo), dst)[src]


def session_pair(topo, min_hops: int, rng: np.random.Generator) -> tuple[int, int] | None:
    """The pair pick of a session on rng: the first node of a random order of
    the nodes that has nodes at >= min_hops finite hops, and a uniform one
    of those, in ascending order.  None when no node has one."""
    adj = links(topo)
    for s in rng.permutation(len(topo)):
        dist = bfs(adj, int(s))  # the graph is undirected: d is as far from s
        far = [d for d, hops in enumerate(dist) if min_hops <= hops < INF]
        if far:
            return int(s), far[rng.integers(0, len(far))]
    return None


def on_route(node: int, src: int, dst: int, topo) -> bool:
    """True iff node lies on some shortest src->dst path of topo."""
    total = hop_distance(topo, src, dst)
    if total == INF:
        return False
    return hop_distance(topo, src, node) + hop_distance(topo, node, dst) == total


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
        rates.append(rate_for_distance(dist, p.cell_radius, p.rate_tiers, p.r_cell))
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


_NODE_FIELDS = (int, float, float, int, float, int)  # id x y cell rate backbone


def _parsed(kinds, texts: list[str], line: str) -> list:
    """Each text converted by its kind; ConfigError unless all convert."""
    try:
        return [kind(text) for kind, text in zip(kinds, texts, strict=True)]
    except ValueError:
        raise ConfigError(f"malformed topology line: {line!r}") from None


def load(fh) -> HetNetTopology:
    """The topology HetNetTopology.dump wrote; malformed input raises
    ConfigError."""
    values, rows = {}, []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and " " not in line:
            key, val = line.split("=", 1)
            if key not in _DUMP_KEYS:
                raise ConfigError(f"unknown topology parameter {key!r}")
            values[_DUMP_KEYS[key]] = _parsed((float,), [val], line)[0]
            continue
        nid, x, y, cell, rate, flag = _parsed(_NODE_FIELDS, line.split(), line)
        if not (0 <= cell < CELLS and rate > 0 and flag in (0, 1)
                and all(map(math.isfinite, (x, y, rate)))):
            raise ConfigError(f"node field out of range: {line!r}")
        rows.append((nid, x, y, cell, rate, flag))
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ConfigError("node ids must be 0..n-1 in file order")
    return HetNetTopology(TopologyParams(**values), [row[1:3] for row in rows],
                          [row[3] for row in rows], [row[4] for row in rows],
                          [row[0] for row in rows if row[5]])


def loaded_rate(cfg, link: float) -> float:
    """A node's cellular rate once its cell serves cfg.users_per_cell users:
    equal-rate shares the cell's r_cell, capped by the link; equal-time
    shares the link's time."""
    if cfg.loading_mode == "equal-rate":
        return min(link, cfg.r_cell / cfg.users_per_cell)
    return link / cfg.users_per_cell


def cut_bound(cfg, topo, src: int, dst: int) -> float:
    """Packets per slot that can leave src or reach dst, whichever is less,
    from config fields and topology arrays alone: no code delivers more than
    a cut carries (Ahlswede, Cai, Li & Yeung, Network Information Flow, IEEE
    Trans. IT 2000).  Each side adds its S-D cellular pipe, one packet if it
    has a WiFi neighbour, and its wired budget: its node budget, else its
    edges plus the bus if it is on it.  The source sends at most block_size
    packets per slot on each of its cellular and wired interfaces, and a
    session with WiFi off is cellular-only: it moves no wired packet either."""
    link = cfg.link_rate_override
    if link is None:
        scale = cfg.r_cell / topo.params.r_cell
        link = float(min(topo.cellular_rates[src], topo.cellular_rates[dst])) * scale
    cellular = loaded_rate(cfg, link) if cfg.cellular_enabled else 0.0
    spec = topo.wired

    def side(node: int, budgets: dict, cap: float) -> float:
        if not cfg.wifi_enabled:
            return min(cellular, cap)
        wired = budgets.get(node)
        if wired is None:
            wired = (spec.edge_capacity * sum(node in edge for edge in spec.edges)
                     + cfg.backbone_rate * (node in topo.backbone))
        return min(cellular, cap) + (1.0 if topo.neighbors[node] else 0.0) + min(wired, cap)

    return min(side(src, spec.node_out, cfg.block_size), side(dst, spec.node_in, math.inf))


def within_cut(cfg, topo, stats) -> bool:
    """The session's delivered packets fit through its cut bound over its
    elapsed slots, up to float rounding in the engine's credits."""
    allowed = cut_bound(cfg, topo, stats.source, stats.destination) * stats.slots_elapsed
    return stats.blocks_delivered * stats.block_size <= allowed * (1 + 1e-9) + 1e-9
