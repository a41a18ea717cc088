"""Block-based random linear network coding.

A source block holds M equal-length payload packets.  Coded packets carry a
length-M coefficient vector over GF(2^8) plus the combined payload; relays
recode buffered packets without decoding; the destination collects innovative
packets until rank M and then solves for the original block.
"""

from __future__ import annotations

import bisect
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
        if v.any():
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
    Oldest packets are dropped first when full.
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
        self.packets.append(p)
        if len(self.packets) > self.capacity:
            self.packets.pop(0)
        return True


def recode(buffer: RecodeBuffer, rng: np.random.Generator) -> CodedPacket:
    """Random recombination of the buffered packets (all-zero weights rejected).

    The buffer is stacked afresh as [coefficients | payload] rows, so one
    weighted row sum forms both halves of the new packet; its coefficients
    therefore describe its payload in terms of the source block exactly as
    an encode's do.
    """
    if not buffer.packets:
        raise ValueError("cannot recode from an empty buffer")
    weights = _random_nonzero_vector(len(buffer.packets), rng)
    rows = [np.concatenate((p.coefficients, p.payload)) for p in buffer.packets]
    row = gf256.weighted_row_sum(weights, gf256.as_row_index(rows))
    m = buffer.packets[0].coefficients.size
    return CodedPacket(buffer.block_id, row[:m], row[m:])


class DecoderState:
    """Incremental Gaussian-elimination workspace for one block.

    Arriving coefficient rows are reduced against the current pivots; a packet
    is innovative iff a nonzero residual remains.  Original (unreduced) rows
    of innovative packets are kept so decode() can hand the full system to
    gf256.solve.
    """

    def __init__(self, block_id: int, block_size: int):
        self.block_id = block_id
        self.block_size = block_size
        self.rank = 0
        self._kept_coef: list[np.ndarray] = []
        self._kept_payload: list[np.ndarray] = []
        # row-echelon workspace: pivot columns ascending, with the reduced
        # row of each at the same index
        self._pivot_cols: list[int] = []
        self._pivot_rows: list[np.ndarray] = []

    def _reduce(self, row: np.ndarray) -> np.ndarray:
        # sweep pivots in column order so earlier zeros are never disturbed
        row = row.copy()
        for col, pivot in zip(self._pivot_cols, self._pivot_rows):
            if row[col]:
                row ^= gf256.MUL_TABLE[row[col], pivot]
        return row

    def receive(self, p: CodedPacket) -> bool:
        """Store p and return True iff it raises the decoder rank."""
        if p.block_id != self.block_id:
            raise ValueError(
                f"packet block {p.block_id} does not match decoder block {self.block_id}"
            )
        if p.coefficients.shape != (self.block_size,):
            raise ValueError("coefficient vector length must equal the block size")
        residual = self._reduce(p.coefficients)
        cols = np.nonzero(residual)[0]
        if cols.size == 0:
            return False
        lead = int(cols[0])
        at = bisect.bisect(self._pivot_cols, lead)
        self._pivot_cols.insert(at, lead)
        self._pivot_rows.insert(at, gf256.MUL_TABLE[gf256.INV_TABLE[residual[lead]], residual])
        self._kept_coef.append(p.coefficients.copy())
        self._kept_payload.append(p.payload.copy())
        self.rank += 1
        return True

    @property
    def coefficient_matrix(self) -> np.ndarray:
        if not self._kept_coef:
            return np.zeros((0, self.block_size), dtype=np.uint8)
        return np.stack(self._kept_coef)

    @property
    def payload_matrix(self) -> np.ndarray:
        if not self._kept_payload:
            return np.zeros((0, 0), dtype=np.uint8)
        return np.stack(self._kept_payload)

    def decode(self) -> SourceBlock:
        if self.rank < self.block_size:
            raise NotDecodableError(
                f"rank {self.rank} < block size {self.block_size}"
            )
        packets = gf256.solve(self.coefficient_matrix, self.payload_matrix)
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
