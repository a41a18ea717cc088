"""Block-based random linear network coding.

A source block holds M equal-length payload packets.  Coded packets carry a
length-M coefficient vector over GF(2^8) plus the combined payload; relays
recode buffered packets without decoding; the destination collects innovative
packets until rank M and then solves for the original block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf256

BLOCK_ID_MODULUS = 1 << 16
_HALF_WINDOW = 1 << 15


class NotDecodableError(RuntimeError):
    """Decoder rank is still below the block size."""


def block_id_newer(a: int, b: int) -> bool:
    """True iff block id a supersedes b under mod-2^16 wraparound."""
    return 0 < (a - b) % BLOCK_ID_MODULUS < _HALF_WINDOW


@dataclass
class SourceBlock:
    block_id: int
    packets: np.ndarray  # (M, k) uint8

    def __post_init__(self):
        self.packets = np.asarray(self.packets, dtype=np.uint8)
        if self.packets.ndim != 2:
            raise ValueError("packets must be an (M, k) array")
        if not 0 <= self.block_id < BLOCK_ID_MODULUS:
            raise ValueError("block_id out of range")

    @property
    def size(self) -> int:
        return self.packets.shape[0]

    def row_index(self) -> np.ndarray:
        """Cached gather index of the payload matrix (used by every encode).

        packets are treated as immutable once the block exists.
        """
        cached = getattr(self, "_row_index", None)
        if cached is None:
            cached = gf256.as_row_index(self.packets)
            self._row_index = cached
        return cached


@dataclass
class CodedPacket:
    block_id: int
    coefficients: np.ndarray  # (M,) uint8
    payload: np.ndarray  # (k,) uint8

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.uint8)
        self.payload = np.asarray(self.payload, dtype=np.uint8)

    def __eq__(self, other):
        return (
            isinstance(other, CodedPacket)
            and self.block_id == other.block_id
            and np.array_equal(self.coefficients, other.coefficients)
            and np.array_equal(self.payload, other.payload)
        )


def _random_nonzero_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.integers(0, 256, size=n, dtype=np.uint8)
        if np.count_nonzero(v):
            return v


def coded_packet(block: SourceBlock, coefficients) -> CodedPacket:
    """Deterministic linear combination of a block's packets."""
    coefficients = np.asarray(coefficients, dtype=np.uint8)
    if coefficients.shape != (block.size,):
        raise ValueError("coefficient vector length must equal the block size")
    payload = gf256.weighted_row_sum(coefficients, block.row_index())
    return CodedPacket(block.block_id, coefficients, payload)


def encode(block: SourceBlock, rng: np.random.Generator) -> CodedPacket:
    """Fresh coded packet with coefficients drawn uniformly (all-zero rejected)."""
    return coded_packet(block, _random_nonzero_vector(block.size, rng))


class RecodeBuffer:
    """Per-relay ring of coded packets for one session.

    Holds at most `capacity` packets, all sharing one block id; a packet with
    a newer block id (mod 2^16) purges the buffer and starts the new block.
    Oldest packets are dropped first when full.  `packets` lists them oldest
    first, and row t of `rows` is packet t's [coefficients | payload], cast
    once for gf256.weighted_row_sum, so a recode stacks nothing.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.block_id: int | None = None
        self.packets: list[CodedPacket] = []
        # (capacity, M + k) intp, allocated by the first offer of a block
        self.rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.packets)

    def offer(self, p: CodedPacket) -> bool:
        """Store p; returns False when p is stale for this buffer."""
        m = p.coefficients.size
        if self.block_id is None or block_id_newer(p.block_id, self.block_id):
            self.block_id = p.block_id
            self.packets = []
            width = m + p.payload.size
            if self.rows is None or self.rows.shape[1] != width:
                self.rows = np.empty((self.capacity, width), dtype=np.intp)
        elif p.block_id != self.block_id:
            return False
        n = len(self.packets)
        if n == self.capacity:
            self.packets.pop(0)
            self.rows[:-1] = self.rows[1:]
            n -= 1
        self.rows[n, :m] = p.coefficients
        self.rows[n, m:] = p.payload
        self.packets.append(p)
        return True


def recode(buffer: RecodeBuffer, rng: np.random.Generator) -> CodedPacket:
    """Random recombination of the buffered packets (all-zero weights rejected).

    Weight t goes to packet t, oldest first.  One weighted row sum over the
    buffer's stacked [coefficients | payload] rows forms both halves of the
    new packet, so its coefficients describe its payload in terms of the
    source block exactly as an encode's do.
    """
    n = len(buffer.packets)
    if not n:
        raise ValueError("cannot recode from an empty buffer")
    weights = _random_nonzero_vector(n, rng)
    row = gf256.weighted_row_sum(weights, buffer.rows[:n])
    m = buffer.packets[0].coefficients.size
    return CodedPacket(buffer.block_id, row[:m], row[m:])


class DecoderState:
    """Incremental Gauss-Jordan workspace for one block.

    The basis of the received coefficient rows is kept in reduced row-echelon
    form: basis row i is 1 at pivot column i and 0 at every other pivot
    column ("seen packets", Sundararajan et al., INFOCOM 2009).  An arrival's
    residual is the arrival minus the basis rows weighted by its own entries
    at the pivot columns, one weighted row sum; the packet is innovative iff
    the residual is nonzero.  The original rows of innovative packets are
    kept, in arrival order, so decode() can hand the full system to
    gf256.solve.
    """

    def __init__(self, block_id: int, block_size: int):
        self.block_id = block_id
        self.block_size = block_size
        self.rank = 0
        self._basis = np.zeros((block_size, block_size), dtype=np.intp)
        self._pivots = np.zeros(block_size, dtype=np.intp)
        # [coefficients | payload] of the innovative arrivals, allocated by
        # the first one, when the payload width is known
        self._kept: np.ndarray | None = None

    def receive(self, p: CodedPacket) -> bool:
        """Store p and return True iff it raises the decoder rank."""
        if p.block_id != self.block_id:
            raise ValueError(
                f"packet block {p.block_id} does not match decoder block {self.block_id}"
            )
        m = self.block_size
        coef = p.coefficients
        if coef.shape != (m,):
            raise ValueError("coefficient vector length must equal the block size")
        r = self.rank
        residual = coef ^ gf256.weighted_row_sum(coef[self._pivots[:r]], self._basis[:r])
        nz = residual.nonzero()[0]
        if nz.size == 0:
            return False
        lead = int(nz[0])
        # normalise, then clear the lead column from the older rows
        row = gf256.MUL_TABLE[gf256.INV_TABLE[residual[lead]], residual]
        basis = self._basis
        basis[r] = row
        basis[:r] ^= gf256.scaled_rows(basis[:r, lead], basis[r])
        self._pivots[r] = lead
        if self._kept is None:
            self._kept = np.empty((m, m + p.payload.size), dtype=np.uint8)
        self._kept[r, :m] = coef
        self._kept[r, m:] = p.payload
        self.rank = r + 1
        return True

    @property
    def coefficient_matrix(self) -> np.ndarray:
        if self._kept is None:
            return np.zeros((0, self.block_size), dtype=np.uint8)
        return self._kept[:self.rank, :self.block_size].copy()

    @property
    def payload_matrix(self) -> np.ndarray:
        if self._kept is None:
            return np.zeros((0, 0), dtype=np.uint8)
        return self._kept[:self.rank, self.block_size:].copy()

    def decode(self) -> SourceBlock:
        if self.rank < self.block_size:
            raise NotDecodableError(
                f"rank {self.rank} < block size {self.block_size}"
            )
        m = self.block_size
        packets = gf256.solve(self._kept[:, :m], self._kept[:, m:])
        return SourceBlock(self.block_id, packets)


def serialize_header(p: CodedPacket) -> bytes:
    """[block_id: 2 bytes big-endian][coefficients: M bytes][payload: k bytes]."""
    return (
        int(p.block_id).to_bytes(2, "big")
        + p.coefficients.tobytes()
        + p.payload.tobytes()
    )


def parse_header(buf: bytes, block_size: int) -> CodedPacket:
    """Inverse of serialize_header; payload length is the remainder."""
    if len(buf) < 2 + block_size:
        raise ValueError(
            f"buffer of {len(buf)} bytes too short for a {2 + block_size}-byte header"
        )
    block_id = int.from_bytes(buf[:2], "big")
    coefficients = np.frombuffer(buf, dtype=np.uint8, count=block_size, offset=2)
    payload = np.frombuffer(buf, dtype=np.uint8, offset=2 + block_size)
    return CodedPacket(block_id, coefficients.copy(), payload.copy())


def header_overhead(block_size: int, packet_size: int) -> float:
    """Coefficient header cost as a percentage of the packet size."""
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    return 100.0 * block_size / packet_size
