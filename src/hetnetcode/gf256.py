"""Arithmetic and linear algebra over GF(2^8).

Field elements are uint8 values and matrices 2-D uint8 arrays.
MUL_TABLE[a, b] is a * b, reduced by the conventional polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B), and INV_TABLE[a] is the inverse of a != 0.
A row kept as `bytes` is scaled by w with row.translate(MUL_BYTES[w]).
The matrix kernels multiply by table lookup: weighted_row_sum (weight
matrices only) gathers from the flattened MUL_TABLE, and solve takes the
rows of MUL_TABLE for its multipliers, then the pivot row's columns.
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
# entry 256*w + x is w*x, so a whole weighted combination is one 1-D gather
_MUL_FLAT = MUL_TABLE.ravel()
# entry w is 256*w, the offset of row w in _MUL_FLAT, as intp
_ROW_OFFSET = np.arange(256, dtype=np.intp) << 8
# entry w is the 256-byte map x -> w*x, a bytes.translate table
MUL_BYTES = tuple(map(bytes, MUL_TABLE))


def weighted_row_sum(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (n, k) matrix whose row i is sum_t weights[i, t] * rows[t], for a
    uint8 (n, M) weight matrix and a uint8 (M, k) matrix of rows: the batch
    kernel of the source's cellular packets.  The (M, n, k) products are
    gathered at once from the flat table (row offsets from an intp table, so
    no separate cast) and XOR-reduced over the contiguous first axis."""
    index = _ROW_OFFSET.take(weights.T)[:, :, None] + rows[:, None, :]
    return np.bitwise_xor.reduce(_MUL_FLAT.take(index), axis=0)


def solve(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs over GF(2^8) by Gauss-Jordan elimination.

    m must be square and full rank; rhs is (n, k) or (n,).  Raises
    SingularMatrixError when no pivot can be found for some column.  Each
    column updates the whole uint8 augmented [m | rhs] with two table takes:
    row i is XORed with f[i] times the pivot row p, where f[i] = m[i] / p[col]
    clears column col, and the pivot row's own f = 1 ^ 1/p[col] leaves it
    normalised (p ^ (1 ^ a) p = a p).  MUL_TABLE.take(f, axis=0) picks the
    table row of each f[i], and taking the columns p from those rows gives
    every product f[i] * p at once.  Rows are searched for a pivot only when
    the diagonal entry is 0.
    """
    m = np.asarray(m, dtype=np.uint8)
    b = np.asarray(rhs, dtype=np.uint8)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("solve expects a square coefficient matrix")
    n = m.shape[0]
    if b.shape[0] != n:
        raise ValueError("rhs row count must match the matrix")
    vector_rhs = b.ndim == 1
    # eliminate the augmented [m | rhs] in one pass; hstack copies the inputs
    aug = np.hstack([m, b[:, None] if vector_rhs else b])

    for col in range(n):
        if not aug.item(col, col):
            nz = aug[col + 1:, col].nonzero()[0]
            if nz.size == 0:
                raise SingularMatrixError(f"rank-deficient at column {col}")
            piv = col + 1 + int(nz[0])
            aug[[col, piv]] = aug[[piv, col]]
        inv = INV_TABLE.item(aug.item(col, col))
        f = MUL_TABLE[inv].take(aug[:, col])
        f[col] = 1 ^ inv
        aug ^= MUL_TABLE.take(f, axis=0).take(aug[col], axis=1)
    return aug[:, n] if vector_rhs else aug[:, n:]
