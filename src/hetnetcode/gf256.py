"""Arithmetic and linear algebra over GF(2^8).

Field elements are plain ints in [0, 255] (or uint8 numpy arrays when
operating elementwise); matrices are 2-D uint8 arrays.  Multiplication is
reduced by the conventional polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11B


class SingularMatrixError(ValueError):
    """Raised when a linear system has no unique solution."""


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    # exp/log over the generator 0x03; exp doubled so exp[la + lb] never wraps
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        hi = x << 1
        if hi & 0x100:
            hi ^= REDUCING_POLY
        x = hi ^ x  # x *= 0x03
    exp[255:] = exp[:255]

    mul = exp[log[:, None] + log[None, :]]
    mul[0, :] = 0
    mul[:, 0] = 0

    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[255 - log[1:]]
    return mul, inv


MUL_TABLE, INV_TABLE = _build_tables()


def add(a, b):
    """Field addition: bitwise XOR (works on ints and uint8 arrays alike)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    return int(MUL_TABLE[a, b])


def inverse(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return int(INV_TABLE[a])


def weighted_row_sum(weights, rows_index: np.ndarray) -> np.ndarray:
    """sum_t weights[t] * rows[t] where rows were pre-cast via as_row_index.

    Hot path for encoding/recoding: the intp cast of the row matrix is the
    expensive part of a table gather, so callers cache it.
    """
    out = np.zeros(rows_index.shape[1], dtype=np.uint8)
    for t in np.nonzero(weights)[0]:
        out ^= MUL_TABLE[weights[t]][rows_index[t]]
    return out


def as_row_index(rows) -> np.ndarray:
    """Pre-cast a uint8 matrix for repeated weighted_row_sum calls."""
    return np.asarray(rows, dtype=np.uint8).astype(np.intp)


def matmul(a, b) -> np.ndarray:
    """Matrix product over GF(2^8).  a is (m, p); b is (p, n) or (p,)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim == 1:
        return matmul(a[None, :], b)[0]
    if b.ndim == 1:
        return matmul(a, b[:, None])[:, 0]
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    # row-by-row accumulation with a pre-cast index beats one big 3-D gather
    bi = as_row_index(b)
    return np.stack([weighted_row_sum(a[r], bi) for r in range(a.shape[0])])


def rank(m) -> int:
    """Row rank by Gaussian elimination.

    Pivot = first nonzero entry in the column, lowest row index first, so
    results are deterministic for a given matrix.
    """
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


def solve(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs over GF(2^8) by Gauss-Jordan elimination.

    m must be square and full rank; rhs is (n, k) or (n,).  Raises
    SingularMatrixError when no pivot can be found for some column.
    """
    m = np.array(m, dtype=np.uint8, copy=True)
    rhs_in = np.asarray(rhs, dtype=np.uint8)
    vector_rhs = rhs_in.ndim == 1
    b = np.array(rhs_in[:, None] if vector_rhs else rhs_in, dtype=np.uint8, copy=True)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("solve expects a square coefficient matrix")
    n = m.shape[0]
    if b.shape[0] != n:
        raise ValueError("rhs row count must match the matrix")

    for col in range(n):
        nz = np.nonzero(m[col:, col])[0]
        if nz.size == 0:
            raise SingularMatrixError(f"rank-deficient at column {col}")
        piv = col + int(nz[0])
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        inv_p = INV_TABLE[m[col, col]]
        m[col] = MUL_TABLE[inv_p, m[col]]
        b[col] = MUL_TABLE[inv_p, b[col]]
        others = np.nonzero(m[:, col])[0]
        others = others[others != col]
        if others.size:
            factors = m[others, col]
            m[others] ^= MUL_TABLE[factors[:, None], m[col][None, :]]
            pivot_row = b[col].astype(np.intp)
            for i, f in zip(others, factors):
                b[i] ^= MUL_TABLE[f][pivot_row]
    return b[:, 0] if vector_rhs else b
