"""Block-based random linear network coding.

A source block holds M equal-length payload packets.  Coded packets carry a
length-M coefficient vector over GF(2^8) plus the combined payload, as one
`bytes` row; relays recode buffered packets without decoding; the destination
collects innovative packets until rank M and then solves for the original
block.
"""

from __future__ import annotations

import functools
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
        if not self.packets.shape[0]:
            raise ValueError("a block needs at least one packet")
        if not 0 <= self.block_id < BLOCK_ID_MODULUS:
            raise ValueError("block_id out of range")

    @property
    def size(self) -> int:
        return self.packets.shape[0]

    @functools.cached_property
    def rows(self) -> list[bytes]:
        """Each packet's payload as bytes, built on first use: an encode
        combines these rows as a recode combines its ring's."""
        return list(map(bytes, self.packets))


@dataclass(slots=True)
class CodedPacket:
    """One coded packet: its block id, the block size m, and one immutable
    `bytes` row [coefficients (m bytes) | payload].  `coefficients` and
    `payload` are read-only uint8 views of the row."""

    block_id: int
    m: int
    row: bytes

    @property
    def coefficients(self) -> np.ndarray:
        return np.frombuffer(self.row, dtype=np.uint8, count=self.m)

    @property
    def payload(self) -> np.ndarray:
        return np.frombuffer(self.row, dtype=np.uint8, offset=self.m)


def random_nonzero_bytes(n: int, rng: np.random.Generator) -> bytes:
    """n uniform bytes, redrawn while all zero: rng.bytes(n), which a numpy
    Generator and a simengine.Draws both answer.  numpy fills it, as it fills
    rng.integers(0, 256, size=n, dtype=np.uint8), from ceil(n / 4) 32-bit
    words, low byte first, dropping a last word's spare bytes."""
    if n < 1:
        raise ValueError("a nonzero draw needs at least one byte")
    v = rng.bytes(n)
    while not any(v):
        v = rng.bytes(n)
    return v


def _combined(rows: list[bytes], weights: bytes) -> bytes:
    """The bytes sum_t weights[t] * rows[t], each row scaled with one
    translate and summed as XORed big-endian ints; b"" at once for
    zero-width rows, such as a session block's."""
    if not rows[0]:
        return b""
    mul, from_bytes = gf256.MUL_BYTES, int.from_bytes
    acc = 0
    for w, row in zip(weights, rows):
        acc ^= from_bytes(row.translate(mul[w]))
    return acc.to_bytes(len(rows[0]))


def coded_packets(block: SourceBlock, coefficients: bytes) -> list[CodedPacket]:
    """The packets whose coefficient vectors are the successive block.size
    bytes of coefficients, in order, combined in one weighted_row_sum call:
    packet i combines the block's packets with coefficients[i * M:(i + 1) * M]."""
    m = block.size
    if len(coefficients) % m:
        raise ValueError("coefficient bytes must be a whole number of block-size vectors")
    weights = np.frombuffer(coefficients, dtype=np.uint8).reshape(-1, m)
    rows = np.hstack([weights, gf256.weighted_row_sum(weights, block.packets)]).tobytes()
    width = m + block.packets.shape[1]
    return [CodedPacket(block.block_id, m, rows[i:i + width]) for i in range(0, len(rows), width)]


def encode(block: SourceBlock, rng: np.random.Generator) -> CodedPacket:
    """Fresh coded packet: its weights, all-zero rejected, then their
    combination of the block's packets."""
    weights = random_nonzero_bytes(block.size, rng)
    return CodedPacket(block.block_id, block.size, weights + _combined(block.rows, weights))


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
    """Random recombination of the buffered packets (all-zero weights
    rejected), weight t to packet t, oldest first."""
    packets = buffer.packets
    if not packets:
        raise ValueError("cannot recode from an empty buffer")
    weights = random_nonzero_bytes(len(packets), rng)
    return CodedPacket(buffer.block_id, packets[0].m, _combined([p.row for p in packets], weights))


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
        if block_size < 1:
            raise ValueError("block size must be >= 1")
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


def header_overhead(block_size: int, packet_size: int) -> float:
    """Cost of a coded packet's header, its block_size coefficient bytes, as a
    percentage of packet_size: about 1.43 % at M = 20 and 1400 B."""
    if packet_size <= 0:
        raise ValueError("packet_size must be positive")
    return 100.0 * block_size / packet_size
