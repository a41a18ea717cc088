"""Reference implementations that the tests compare the program with: the
coefficient draw through numpy's uint8 integers, GF(2^8) linear algebra on
uint8 matrices, and per-node topology and routing scans."""

from __future__ import annotations

import math

import numpy as np

from hetnetcode.gf256 import INV_TABLE, MUL_TABLE
from hetnetcode.routing import UNREACHABLE


def random_nonzero_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform coefficient bytes from numpy's uint8 draw, redrawn while all
    zero."""
    while True:
        v = rng.integers(0, 256, size=n, dtype=np.uint8)
        if np.count_nonzero(v):
            return v


def add(a, b):
    """Field addition: bitwise XOR (works on ints and uint8 arrays alike)."""
    return a ^ b


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2^8), every product read from MUL_TABLE.  a is
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
        out ^= MUL_TABLE[a[:, t][:, None], b[t][None, :]]
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
            factors = MUL_TABLE[below[hit], INV_TABLE[m[r, col]]]
            m[r + 1 + hit] ^= MUL_TABLE[factors[:, None], m[r][None, :]]
        r += 1
    return r


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


def hop_distance(routes, src: int, dst: int) -> float:
    return float(routes.distances_to(dst)[src])


def on_route(node: int, src: int, dst: int, routes) -> bool:
    """True iff node lies on some shortest src->dst path."""
    total = hop_distance(routes, src, dst)
    if total == UNREACHABLE:
        return False
    return hop_distance(routes, src, node) + hop_distance(routes, node, dst) == total


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
