"""GF(2^8) arithmetic checked against independent brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hetnetcode import gf256
from oracles import ORACLE_INV, ORACLE_MUL

MUL_ROWS, INV = ORACLE_MUL.tolist(), ORACLE_INV.tolist()


def oracle_rank(rows):
    """Independent Gauss-Jordan over GF(2^8) on plain python ints, checking
    oracles.rank's numpy elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = INV[rows[rank][col]]
        rows[rank] = [MUL_ROWS[inv][v] for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v ^ MUL_ROWS[f][w] for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_add_examples():
    assert oracles.add(0x57, 0x83) == 0xD4
    for a in (0x00, 0x01, 0x7F, 0xFF):
        assert oracles.add(a, a) == 0
        assert oracles.add(a, 0x00) == a


def test_mul_examples():
    assert gf256.MUL_TABLE[0x02, 0x03] == oracles.gf_mul(0x02, 0x03) == 0x06
    assert gf256.MUL_TABLE[0x80, 0x02] == oracles.gf_mul(0x80, 0x02) == 0x1B
    assert gf256.MUL_TABLE[:, 0x01].tolist() == list(range(256))


def test_mul_exhaustive_against_oracle():
    assert np.array_equal(gf256.MUL_TABLE, ORACLE_MUL)
    assert ORACLE_MUL[0x57, 0x83] == oracles.gf_mul(0x57, 0x83) == 0xC1


def test_mul_bytes_rows_are_translate_tables():
    assert len(gf256.MUL_BYTES) == 256
    for w in range(256):
        assert gf256.MUL_BYTES[w] == bytes(ORACLE_MUL[w])
    assert bytes([3, 0, 0x80]).translate(gf256.MUL_BYTES[2]) == bytes([6, 0, 0x1B])


def test_inverse_examples():
    assert gf256.INV_TABLE[0x01] == 0x01
    assert gf256.INV_TABLE[0x02] == ORACLE_INV[0x02] == 0x8D


def test_all_inverses():
    for a in range(1, 256):
        assert oracles.gf_mul(a, int(gf256.INV_TABLE[a])) == 1
    assert np.array_equal(gf256.INV_TABLE[1:], ORACLE_INV[1:])
    # inverses are unique: exactly one b per nonzero a with a*b = 1
    assert np.all((gf256.MUL_TABLE[1:, :] == 1).sum(axis=1) == 1)


def test_field_axioms_exhaustive():
    m = gf256.MUL_TABLE.astype(np.int32)
    assert np.array_equal(m, m.T), "mul must be commutative"
    a = np.arange(256, dtype=np.uint8)[:, None, None]
    b = np.arange(256, dtype=np.uint8)[None, :, None]
    c = np.arange(256, dtype=np.uint8)[None, None, :]
    tab = gf256.MUL_TABLE
    assert np.array_equal(tab[tab[a, b], c], tab[a, tab[b, c]]), "mul associativity"
    assert np.array_equal(tab[a, b ^ c], tab[a, b] ^ tab[a, c]), "distributivity"
    # XOR addition axioms on the full grid
    ab = np.arange(256)[:, None] ^ np.arange(256)[None, :]
    assert np.array_equal(ab, ab.T)
    assert np.all(np.diag(ab) == 0)


def test_rank_identity_and_duplicates():
    assert oracles.rank(np.eye(20, dtype=np.uint8)) == 20
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        m[4] = m[1]
        assert oracles.rank(m) <= 5


def test_rank_invariant_under_row_permutation():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.integers(0, 3, size=(5, 7), dtype=np.uint8)
        perm = rng.permutation(5)
        assert oracles.rank(m) == oracles.rank(m[perm])


def test_rank_random_20x20_against_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        assert oracles.rank(m) == oracle_rank(m.tolist())


def test_rank_small_instances_exhaustive():
    # all 2x2 and 3x3 matrices with entries in {0,1,2}
    for n, reps in ((2, 3 ** 4), (3, 3 ** 9)):
        for code in range(reps):
            flat = []
            v = code
            for _ in range(n * n):
                flat.append(v % 3)
                v //= 3
            m = np.array(flat, dtype=np.uint8).reshape(n, n)
            assert oracles.rank(m) == oracle_rank(m.tolist())


def test_rank_mixed_sizes_sampled_against_oracle():
    rng = np.random.default_rng(3)
    for n in (4, 5, 6):
        for _ in range(300):
            m = rng.integers(0, 3, size=(n, n), dtype=np.uint8)
            assert oracles.rank(m) == oracle_rank(m.tolist())


def test_solve_identity():
    rhs = np.arange(40, dtype=np.uint8).reshape(20, 2)
    assert np.array_equal(gf256.solve(np.eye(20, dtype=np.uint8), rhs), rhs)


def test_solve_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 40))
        while True:
            c = rng.integers(0, 256, size=(n, n), dtype=np.uint8)
            if oracles.rank(c) == n:
                break
        a = rng.integers(0, 256, size=(n, k), dtype=np.uint8)
        assert np.array_equal(gf256.solve(c, oracles.matmul(c, a)), a)


@pytest.mark.parametrize("width", [1, 8, 1400])
def test_solve_swaps_rows_under_an_all_zero_diagonal(width):
    """m is a full-rank upper-triangular u with its rows shifted up by one
    (m[i] = u[i + 1], and the last row is u[0]), so its diagonal is all zero.
    At each column but the last the only pivot is the last row: n = 20 takes
    19 row swaps, where test_solve_matches_oracle stops at n = 8."""
    n = 20
    rng = np.random.default_rng(20)
    u = np.triu(rng.integers(0, 256, size=(n, n), dtype=np.uint8))
    u[np.arange(n), np.arange(n)] = rng.integers(1, 256, size=n, dtype=np.uint8)
    u[0, -1] = 0
    m = np.roll(u, -1, axis=0)
    assert not m.diagonal().any()
    x = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    assert np.array_equal(gf256.solve(m, oracles.matmul(m, x)), x)


def test_solve_singular_raises():
    m = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.uint8)
    with pytest.raises(gf256.SingularMatrixError):
        gf256.solve(m, np.zeros((3, 2), dtype=np.uint8))


def test_solve_rejects_a_non_square_matrix_and_a_mismatched_rhs():
    with pytest.raises(ValueError, match="square"):
        gf256.solve(np.ones((2, 3), dtype=np.uint8), np.zeros((2, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="rhs row count"):
        gf256.solve(np.eye(3, dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8))
    # an rhs is an (n, k) matrix: a vector of the right length is refused too
    for rhs in (np.zeros(3, dtype=np.uint8), np.zeros((3, 1, 1), dtype=np.uint8)):
        with pytest.raises(ValueError, match="rhs must be 2-D"):
            gf256.solve(np.eye(3, dtype=np.uint8), rhs)


def test_matmul_shapes_and_errors():
    a = np.ones((3, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        oracles.matmul(a, np.ones((3, 2), dtype=np.uint8))
    v = oracles.matmul(a, np.ones(4, dtype=np.uint8))
    assert v.shape == (3,)
    # row-vector @ matrix
    r = oracles.matmul(np.ones(3, dtype=np.uint8), a)
    assert r.shape == (4,)


# --- weighted_row_sum and solve against pure-python oracles ------------------
#
# The solve tests above take oracles.matmul, a lookup in the oracle's own
# table, as their reference; these oracles (oracles.weighted_row_sum and
# oracles.solve) work on python ints, one product at a time, and share no
# code with weighted_row_sum or solve.

WIDTHS = st.sampled_from([1, 8, 1400])
# a small alphabet next to the full field gives zeros and repeats often
ELEMENTS = st.sampled_from([0, 1, 2, 255]) | st.integers(0, 255)


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(ELEMENTS, max_size=20), width=WIDTHS, batch=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
@example(weights=[], width=8, batch=2, seed=0)
@example(weights=[0, 0, 0], width=1400, batch=1, seed=1)
@example(weights=[7, 7, 0, 7], width=1, batch=3, seed=2)
@example(weights=[5, 9], width=8, batch=0, seed=3)
def test_weighted_row_sum_matches_oracle(weights, width, batch, seed):
    """The one-row weight matrix [weights] gives one row; an (n, M) weight
    matrix, here weights on top of batch - 1 random rows, gives the n rows
    of its weight rows."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 256, size=(len(weights), width), dtype=np.uint8)
    w = np.array([weights], dtype=np.uint8).reshape(1, len(weights))
    matrix = np.vstack([w, rng.integers(0, 256, size=(max(batch - 1, 0), len(weights)),
                                        dtype=np.uint8)])[:batch]
    kept_w, kept_matrix, kept_rows = w.copy(), matrix.copy(), rows.copy()
    got = gf256.weighted_row_sum(w, rows)
    assert got.dtype == np.uint8 and got.shape == (1, width)
    assert got.tolist() == [oracles.weighted_row_sum(weights, rows.tolist(), width)]
    got_rows = gf256.weighted_row_sum(matrix, rows)
    assert got_rows.dtype == np.uint8 and got_rows.shape == (batch, width)
    assert got_rows.tolist() == [oracles.weighted_row_sum(row, rows.tolist(), width)
                                 for row in matrix.tolist()]
    assert np.array_equal(w, kept_w) and np.array_equal(matrix, kept_matrix)
    assert np.array_equal(rows, kept_rows)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), entries=st.lists(ELEMENTS, min_size=64, max_size=64),
       width=WIDTHS, repeat_row=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(n=3, entries=[1, 2, 3, 4, 5, 6, 1, 2, 3] + [0] * 55, width=1, repeat_row=1, seed=0)
@example(n=1, entries=[0] * 64, width=8, repeat_row=1, seed=0)
@example(n=8, entries=list(range(1, 65)), width=1400, repeat_row=1, seed=3)
def test_solve_matches_oracle(n, entries, width, repeat_row, seed):
    """repeat_row 0 copies a row, so m is singular."""
    m = np.array(entries[:n * n], dtype=np.uint8).reshape(n, n)
    if n > 1 and repeat_row == 0:
        m[-1] = m[0]
    rng = np.random.default_rng(seed)
    rhs = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    kept_m, kept_rhs = m.copy(), rhs.copy()
    want = oracles.solve(m.tolist(), rhs.tolist())
    if want is None:
        with pytest.raises(gf256.SingularMatrixError):
            gf256.solve(m, rhs)
    else:
        got = gf256.solve(m, rhs)
        assert got.dtype == np.uint8 and got.shape == rhs.shape
        assert got.tolist() == want
    assert np.array_equal(m, kept_m) and np.array_equal(rhs, kept_rhs)
