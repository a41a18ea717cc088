"""Block-based random linear network coding.

A source block holds M equal-length payload packets.  Coded packets carry a
length-M coefficient vector over GF(2^8) plus the combined payload, as one
`bytes` row; relays recode buffered packets without decoding; the destination
collects innovative packets until rank M and then solves for the original
block.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import gf256

BLOCK_ID_MODULUS = 1 << 16
_HALF_WINDOW = 1 << 15
_INV = gf256.INV_TABLE.tolist()


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


class CodedPacket:
    """One coded packet: its block id, the block size m, and one immutable
    `bytes` row [coefficients (m bytes) | payload].  `coefficients` and
    `payload` are read-only uint8 views of the row."""

    __slots__ = ("block_id", "m", "row")

    def __init__(self, block_id: int, coefficients, payload):
        coefficients = np.asarray(coefficients, dtype=np.uint8)
        self.block_id = block_id
        self.m = coefficients.size
        self.row = coefficients.tobytes() + np.asarray(payload, dtype=np.uint8).tobytes()

    @property
    def coefficients(self) -> np.ndarray:
        return np.frombuffer(self.row, dtype=np.uint8, count=self.m)

    @property
    def payload(self) -> np.ndarray:
        return np.frombuffer(self.row, dtype=np.uint8, offset=self.m)

    def __eq__(self, other):
        return (
            isinstance(other, CodedPacket)
            and self.block_id == other.block_id
            and self.m == other.m
            and self.row == other.row
        )

    def __repr__(self):
        return f"CodedPacket({self.block_id}, m={self.m}, row={self.row.hex()})"


def _packet(block_id: int, m: int, row: bytes) -> CodedPacket:
    """A CodedPacket around a row that is already [coefficients | payload]."""
    p = object.__new__(CodedPacket)
    p.block_id, p.m, p.row = block_id, m, row
    return p


def _random_nonzero_bytes(n: int, rng: np.random.Generator) -> bytes:
    """n uniform bytes, redrawn while all zero: the bytes of
    rng.integers(0, 256, size=n, dtype=np.uint8), drawn through the bit
    generator's C interface.  numpy fills that uint8 draw from ceil(n / 4)
    next_uint32 words, low byte first, and drops a last word's spare bytes,
    so both advance the generator alike.  No lock is taken: the generator
    must not be shared across threads."""
    c = rng.bit_generator.ctypes
    next_uint32, state = c.next_uint32, c.state
    words = (n + 3) >> 2
    while True:
        v = struct.pack(f"<{words}I", *[next_uint32(state) for _ in range(words)])[:n]
        if any(v):
            return v


def _combined(block: SourceBlock, coefficients: bytes) -> CodedPacket:
    """The packet with these coefficient bytes, one per block packet."""
    payload = gf256.weighted_row_sum(np.frombuffer(coefficients, dtype=np.uint8),
                                     block.row_index())
    return _packet(block.block_id, block.size, coefficients + payload.tobytes())


def coded_packet(block: SourceBlock, coefficients) -> CodedPacket:
    """Deterministic linear combination of a block's packets."""
    coefficients = np.asarray(coefficients, dtype=np.uint8)
    if coefficients.shape != (block.size,):
        raise ValueError("coefficient vector length must equal the block size")
    return _combined(block, coefficients.tobytes())


def encode(block: SourceBlock, rng: np.random.Generator) -> CodedPacket:
    """Fresh coded packet with coefficients drawn uniformly (all-zero rejected)."""
    return _combined(block, _random_nonzero_bytes(block.size, rng))


class RecodeBuffer:
    """Per-relay ring of coded packets for one session.

    Holds at most `capacity` packets, all sharing one block id; a packet with
    a newer block id (mod 2^16) purges the buffer and starts the new block.
    Oldest packets are dropped first when full.  `packets` lists them oldest
    first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.block_id: int | None = None
        self.packets: list[CodedPacket] = []

    def __len__(self) -> int:
        return len(self.packets)

    def offer(self, p: CodedPacket) -> bool:
        """Store p; returns False when p is stale for this buffer."""
        if self.block_id is None or block_id_newer(p.block_id, self.block_id):
            self.block_id = p.block_id
            self.packets = []
        elif p.block_id != self.block_id:
            return False
        if len(self.packets) == self.capacity:
            self.packets.pop(0)
        self.packets.append(p)
        return True


def recode(buffer: RecodeBuffer, rng: np.random.Generator) -> CodedPacket:
    """Random recombination of the buffered packets (all-zero weights rejected).

    Weight t goes to packet t, oldest first.  Each packet's whole
    [coefficients | payload] row is scaled by its weight with one translate
    and the rows are summed as XORed ints, so the new packet's coefficients
    describe its payload in terms of the source block exactly as an
    encode's do.
    """
    packets = buffer.packets
    if not packets:
        raise ValueError("cannot recode from an empty buffer")
    weights = _random_nonzero_bytes(len(packets), rng)
    mul = gf256.MUL_BYTES
    acc = 0
    for w, p in zip(weights, packets):
        acc ^= int.from_bytes(p.row.translate(mul[w]), "little")
    first = packets[0]
    return _packet(buffer.block_id, first.m, acc.to_bytes(len(first.row), "little"))


class DecoderState:
    """Incremental elimination workspace for one block.

    The received coefficient rows are reduced to an echelon basis of `bytes`
    rows, in insertion order: basis row i is 1 at its lead column and 0 at
    the lead columns of the rows stored before it.  An arrival's residual,
    an int over the row's little-endian bytes, is reduced against the basis
    rows in that order, each weighted by the residual's current entry at
    the row's lead column, so no older row ever needs clearing.  The packet
    is innovative iff the residual is nonzero; its lowest nonzero byte is
    the new row's lead.  The original rows of innovative packets are kept,
    in arrival order, so decode() can hand the full system to gf256.solve.
    """

    def __init__(self, block_id: int, block_size: int):
        self.block_id = block_id
        self.block_size = block_size
        self.rank = 0
        # (bit shift of the lead column, normalised coefficient row) per row
        self._basis: list[tuple[int, bytes]] = []
        # the [coefficients | payload] rows of the innovative arrivals
        self._kept: list[bytes] = []

    def receive(self, p: CodedPacket) -> bool:
        """Store p and return True iff it raises the decoder rank."""
        if p.block_id != self.block_id:
            raise ValueError(
                f"packet block {p.block_id} does not match decoder block {self.block_id}"
            )
        m = self.block_size
        if p.m != m:
            raise ValueError("coefficient vector length must equal the block size")
        mul = gf256.MUL_BYTES
        res = int.from_bytes(p.row[:m], "little")
        for shift, row in self._basis:
            w = (res >> shift) & 255
            if w:
                res ^= int.from_bytes(row.translate(mul[w]), "little")
        if not res:
            return False
        shift = ((res & -res).bit_length() - 1) & ~7
        row = res.to_bytes(m, "little").translate(mul[_INV[(res >> shift) & 255]])
        self._basis.append((shift, row))
        self._kept.append(p.row)
        self.rank += 1
        return True

    def decode(self) -> SourceBlock:
        if self.rank < self.block_size:
            raise NotDecodableError(
                f"rank {self.rank} < block size {self.block_size}"
            )
        m = self.block_size
        kept = np.frombuffer(b"".join(self._kept), dtype=np.uint8).reshape(m, -1)
        return SourceBlock(self.block_id, gf256.solve(kept[:, :m], kept[:, m:]))


def serialize_header(p: CodedPacket) -> bytes:
    """[block_id: 2 bytes big-endian][coefficients: M bytes][payload: k bytes]."""
    return int(p.block_id).to_bytes(2, "big") + p.row


def parse_header(buf: bytes, block_size: int) -> CodedPacket:
    """Inverse of serialize_header; payload length is the remainder."""
    if len(buf) < 2 + block_size:
        raise ValueError(
            f"buffer of {len(buf)} bytes too short for a {2 + block_size}-byte header"
        )
    return _packet(int.from_bytes(buf[:2], "big"), block_size, bytes(buf[2:]))


def header_overhead(block_size: int, packet_size: int) -> float:
    """Coefficient header cost as a percentage of the packet size."""
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    return 100.0 * block_size / packet_size
