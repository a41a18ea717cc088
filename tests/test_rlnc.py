import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import assert_next_draws_agree, draw
from hetnetcode import gf256, rlnc, simengine
from hetnetcode.simengine import Draws


def make_block(rng, block_id=0, m=20, k=64):
    return rlnc.SourceBlock(block_id, rng.integers(0, 256, size=(m, k), dtype=np.uint8))


class ForcedRng:
    """Stands in for a numpy Generator: bytes(n) serves the queued
    coefficient vectors in turn, each of n bytes."""

    def __init__(self, *vectors):
        self.vectors = [np.asarray(v, dtype=np.uint8).tobytes() for v in vectors]

    def bytes(self, n):
        v = self.vectors.pop(0)
        assert len(v) == n
        return v


def test_encode_identity_rows():
    rng = np.random.default_rng(0)
    block = make_block(rng, m=5, k=10)
    for j in range(5):
        e = np.zeros(5, dtype=np.uint8)
        e[j] = 1
        p = rlnc.coded_packet(block, e)
        assert np.array_equal(p.payload, block.packets[j])


def test_encode_hand_example():
    # payload = mul(3, a1) + mul(1, a2) evaluated with the scalar field ops
    block = rlnc.SourceBlock(0, np.array([[0x01], [0x02]], dtype=np.uint8))
    p = rlnc.coded_packet(block, [0x03, 0x01])
    expected = oracles.add(gf256.mul(0x03, 0x01), gf256.mul(0x01, 0x02))
    assert expected == 0x01
    assert p.payload.tolist() == [0x01]


def test_encode_rejects_all_zero_draw():
    block = make_block(np.random.default_rng(1), m=3, k=4)
    rng = ForcedRng([0, 0, 0], [0, 5, 0])
    p = rlnc.encode(block, rng)
    assert p.coefficients.tolist() == [0, 5, 0]
    assert rng.vectors == []


# steps on one generator: a coefficient draw of n bytes, a hop pick
# integers(0, k), where k = 1 draws nothing, or a scheduler draw random(k)
_DRAWS = st.lists(st.one_of(st.tuples(st.just("coefficients"), st.integers(1, 64)),
                            st.tuples(st.just("pick"), st.integers(1, 9)),
                            st.tuples(st.just("random"), st.integers(1, 5))),
                  min_size=1, max_size=20)


@settings(max_examples=200, deadline=None)
@given(bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]),
       seed=st.integers(0, 2**32 - 1), steps=_DRAWS)
def test_coefficient_draw_is_numpys_uint8_draw(bit_generator, seed, steps):
    """The coefficient draw returns the bytes of numpy's uint8 draw and
    leaves the generator where numpy's leaves it, among other draws."""
    ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for kind, n in steps:
        if kind == "coefficients":
            want = oracles.random_nonzero_vector(n, theirs).tobytes()
            assert rlnc._random_nonzero_bytes(n, ours) == want
        elif kind == "pick":
            assert ours.integers(0, n) == theirs.integers(0, n)
        else:
            assert ours.random(n).tobytes() == theirs.random(n).tobytes()
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


@pytest.mark.parametrize("bit_generator, seed", [(np.random.PCG64, 121),
                                                 (np.random.MT19937, 14)])
def test_coefficient_draw_rejects_a_zero_byte(bit_generator, seed):
    """At n = 1 a first byte of 0 is redrawn, as numpy's draw would be."""
    first = np.random.Generator(bit_generator(seed)).integers(0, 256, size=1, dtype=np.uint8)
    assert first[0] == 0
    ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    got = rlnc._random_nonzero_bytes(1, ours)
    assert got != b"\0" and got == oracles.random_nonzero_vector(1, theirs).tobytes()
    np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)


# hop counts k: any in [1, 2**32 - 1], or an odd number times 2**j, whose
# products with a word are multiples of 2**j mod 2**32, as numpy's rejection
# threshold (2**32 - k) % k is, so they meet it once in 2**(32 - j) words
_HOP_COUNTS = st.one_of(
    st.integers(1, 2**32 - 1),
    st.tuples(st.integers(0, 31), st.integers(26, 30)).map(lambda t: (2 * t[0] + 1) << t[1])
    .filter(lambda k: k < 2**32))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.one_of(st.tuples(st.just("below"), _HOP_COUNTS),
                                st.tuples(st.just("random"), st.integers(0, 6)),
                                st.tuples(st.just("coefficients"), st.integers(1, 64))),
                      min_size=1, max_size=20))
@example(seed=0, steps=[("below", 1), ("below", 2**32 - 1), ("random", 1), ("below", 1)])
def test_hop_pick_and_jitter_are_numpys_draws(seed, steps):
    """A Draws' hop pick returns int(integers(0, k)), drawing no word at
    k = 1, and its jitter returns random(n); among coefficient draws, each
    leaves the stream where numpy's leaves its PCG64 generator."""
    ours, theirs = Draws(np.random.default_rng(seed)), np.random.default_rng(seed)
    for kind, n in steps:
        assert draw(ours, kind, n) == draw(theirs, kind, n)
        assert_next_draws_agree(ours, theirs)


def test_hop_pick_of_one_hop_draws_no_word():
    ours, theirs = Draws(np.random.default_rng(5)), np.random.default_rng(5)
    assert ours.below(1) == 0
    assert_next_draws_agree(ours, theirs)


class ForcedWords(np.random.PCG64):
    """A PCG64 bit generator whose random_raw serves the queued 32-bit words,
    two to an output, low word first, and zero words after them."""

    def __init__(self, words):
        super().__init__(0)
        self.words = list(words)

    def random_raw(self, size=None, output=True):
        words = self.words[:2 * size] + [0] * max(0, 2 * size - len(self.words))
        del self.words[:2 * size]
        return np.array([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])],
                        dtype=np.uint64)


@pytest.mark.parametrize("k", [7, 2**31 + 1, 2**32 - 1])
def test_hop_pick_redraws_below_numpys_threshold_only(k):
    """A word whose product with k has low half (2**32 - k) % k is kept, and
    one just below it is redrawn, as in numpy's bounded Lemire draw."""
    threshold = (2**32 - k) % k
    inverse = pow(k, -1, 2**32)  # odd k: the word whose product has low half t
    kept, redrawn = (t * inverse % 2**32 for t in (threshold, threshold - 1))
    after = 0x89ABCDEF
    for queued in ([kept, after], [redrawn, kept, after]):
        draws = Draws(np.random.Generator(ForcedWords(queued)))
        assert draws.below(k) == kept * k >> 32
        assert draws.bytes(4) == after.to_bytes(4, "little")


class CountingPCG64(np.random.PCG64):
    """A PCG64 bit generator that counts its random_raw calls."""

    calls = 0

    def random_raw(self, size=None, output=True):
        self.calls += 1
        return super().random_raw(size, output)


_BLOCK_BYTES = 8 * simengine._BLOCK_OUTPUTS
# short draws, then a skip to d bytes before the end of the block after the
# read position's, so that the draws after it straddle a refill
_SHORT_DRAWS = st.lists(st.one_of(st.tuples(st.just("bytes"), st.integers(1, 64)),
                                  st.tuples(st.just("below"), _HOP_COUNTS),
                                  st.tuples(st.just("payload"), st.integers(1, 40)),
                                  st.tuples(st.just("random"), st.none() | st.integers(0, 6))),
                        max_size=8)
_TO_EDGE = st.tuples(st.just("edge"), st.sampled_from(range(0, 28, 4)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.tuples(_TO_EDGE, _SHORT_DRAWS, _TO_EDGE, _SHORT_DRAWS, _TO_EDGE, _SHORT_DRAWS)
       .map(lambda parts: [parts[0], *parts[1], parts[2], *parts[3], parts[4], *parts[5]]))
# a double with the block's last word kept, and one that takes the block's
# last output while a word is kept, each read after the kept word
@example(seed=1, steps=[("edge", 4), ("random", None), ("bytes", 8), ("edge", 12),
                        ("random", None), ("bytes", 8), ("edge", 12), ("random", 3)])
def test_draws_match_numpy_across_refills(seed, steps):
    """Every value of bytes, below, a session's payload rows and random, one
    double or several, equals numpy's draw from the same PCG64 stream, across
    at least two refills."""
    bitgen = CountingPCG64(seed)
    ours, theirs = Draws(np.random.Generator(bitgen)), np.random.default_rng(seed)
    for kind, n in steps:
        if kind == "edge":
            kind, n = "bytes", ours._size - ours._pos - n + _BLOCK_BYTES
        assert draw(ours, kind, n) == draw(theirs, kind, n)
    assert bitgen.calls >= 3
    assert_next_draws_agree(ours, theirs)


def test_draws_refuses_other_generators_and_a_kept_word():
    with pytest.raises(TypeError):
        Draws(np.random.Generator(np.random.MT19937(0)))
    rng = np.random.default_rng(0)
    rng.integers(0, 5)  # one word of an output; PCG64 keeps the other
    assert rng.bit_generator.state["has_uint32"]
    with pytest.raises(ValueError):
        Draws(rng)


def test_encode_distinct_coefficient_vectors():
    block = make_block(np.random.default_rng(2), m=20, k=1)
    rng = np.random.default_rng(3)
    seen = {rlnc.encode(block, rng).coefficients.tobytes() for _ in range(10_000)}
    assert len(seen) == 10_000


def test_recode_singleton_identity():
    rng = np.random.default_rng(4)
    block = make_block(rng, m=4, k=6)
    buf = rlnc.RecodeBuffer(capacity=8)
    p = rlnc.encode(block, rng)
    buf.offer(p)
    out = rlnc.recode(buf, ForcedRng([0x01]))
    assert out == p


def test_recode_sum_example():
    block = make_block(np.random.default_rng(5), m=4, k=6)
    buf = rlnc.RecodeBuffer(capacity=8)
    e1 = np.array([1, 0, 0, 0], dtype=np.uint8)
    e2 = np.array([0, 1, 0, 0], dtype=np.uint8)
    buf.offer(rlnc.coded_packet(block, e1))
    buf.offer(rlnc.coded_packet(block, e2))
    out = rlnc.recode(buf, ForcedRng([1, 1]))
    assert out.coefficients.tolist() == [1, 1, 0, 0]
    assert np.array_equal(out.payload, block.packets[0] ^ block.packets[1])


def test_recode_empty_buffer_raises():
    with pytest.raises(ValueError):
        rlnc.recode(rlnc.RecodeBuffer(capacity=4), np.random.default_rng(0))


def test_recode_never_exceeds_buffer_span():
    rng = np.random.default_rng(6)
    block = make_block(rng, m=8, k=4)
    buf = rlnc.RecodeBuffer(capacity=3)
    for _ in range(3):
        buf.offer(rlnc.encode(block, rng))
    buffer_rank = oracles.rank(np.stack([p.coefficients for p in buf.packets]))
    dec = rlnc.DecoderState(0, 8)
    for _ in range(40):
        dec.receive(rlnc.recode(buf, rng))
    assert dec.rank <= buffer_rank


def test_buffer_capacity_and_block_transitions():
    rng = np.random.default_rng(7)
    b0 = make_block(rng, block_id=0, m=4, k=2)
    b1 = make_block(rng, block_id=1, m=4, k=2)
    buf = rlnc.RecodeBuffer(capacity=2)
    for _ in range(5):
        assert buf.offer(rlnc.encode(b0, rng))
    assert len(buf) == 2
    assert buf.offer(rlnc.encode(b1, rng))  # newer block purges
    assert buf.block_id == 1 and len(buf) == 1
    assert not buf.offer(rlnc.encode(b0, rng))  # stale rejected
    assert len(buf) == 1


# block ids within a few of the 2^16 wrap, and half the id space away from it
_WRAP_IDS = st.integers(-6, 6) | st.sampled_from([2**15 - 1, 2**15, 2**15 + 1])


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 8),
       ids=st.lists(_WRAP_IDS.map(lambda i: i % rlnc.BLOCK_ID_MODULUS), min_size=1, max_size=40))
def test_buffer_that_stored_a_packet_is_never_empty(capacity, ids):
    """The engine sends from a relay on send credit alone, which only a
    stored packet grants: once an offer has returned True, the buffer holds
    at least one packet and at most capacity, whatever ids follow."""
    buf = rlnc.RecodeBuffer(capacity)
    stored = False
    for block_id in ids:
        stored |= buf.offer(rlnc.CodedPacket(block_id, 1, b"\x01"))
        assert len(buf) <= capacity
        assert len(buf) >= 1 or not stored


def test_block_id_wraparound():
    assert rlnc.block_id_newer(1, 0)
    assert not rlnc.block_id_newer(0, 1)
    assert rlnc.block_id_newer(0, 65535)  # wrap
    assert not rlnc.block_id_newer(65535, 0)
    assert not rlnc.block_id_newer(5, 5)
    # at exactly half the window neither id is newer, so the rule stays antisymmetric
    assert not rlnc.block_id_newer(2**15, 0)
    assert not rlnc.block_id_newer(0, 2**15)


def test_receive_first_and_duplicate():
    rng = np.random.default_rng(8)
    block = make_block(rng, m=6, k=3)
    dec = rlnc.DecoderState(0, 6)
    p = rlnc.encode(block, rng)
    assert dec.receive(p) is True
    assert dec.rank == 1
    assert dec.receive(p) is False
    assert dec.rank == 1


def test_receive_block_mismatch():
    dec = rlnc.DecoderState(3, 4)
    p = rlnc.CodedPacket(2, 4, bytes([1, 1, 1, 1, 0]))
    with pytest.raises(ValueError):
        dec.receive(p)


def test_receive_rejects_a_packet_of_another_block_size():
    dec = rlnc.DecoderState(3, 4)
    p = rlnc.CodedPacket(3, 5, bytes([1, 1, 1, 1, 1, 0]))
    with pytest.raises(ValueError, match="block size"):
        dec.receive(p)


def test_codec_rejects_malformed_blocks_vectors_and_buffers():
    with pytest.raises(ValueError, match=r"\(M, k\) array"):
        rlnc.SourceBlock(0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="block_id out of range"):
        rlnc.SourceBlock(rlnc.BLOCK_ID_MODULUS, np.zeros((2, 3), dtype=np.uint8))
    block = rlnc.SourceBlock(0, np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="block size"):
        rlnc.coded_packet(block, [1, 2, 3])
    with pytest.raises(ValueError, match="capacity must be >= 1"):
        rlnc.RecodeBuffer(0)


def test_receive_rank_monotone_and_flag_matches_delta():
    rng = np.random.default_rng(9)
    block = make_block(rng, m=10, k=4)
    dec = rlnc.DecoderState(0, 10)
    true_count = 0
    prev_rank = 0
    for _ in range(60):
        flag = dec.receive(rlnc.encode(block, rng))
        assert dec.rank >= prev_rank
        assert flag == (dec.rank == prev_rank + 1)
        true_count += flag
        prev_rank = dec.rank
    assert true_count == dec.rank == 10


def test_full_rank_probability_quick():
    # theory: prod_{i=1..20} (1 - 256^-i) ~ 0.99609
    rng = np.random.default_rng(10)
    block = make_block(rng, m=20, k=1)
    trials = 2000
    full = 0
    for _ in range(trials):
        dec = rlnc.DecoderState(0, 20)
        full += all(dec.receive(rlnc.encode(block, rng)) for _ in range(20))
    assert full / trials >= 0.985


def test_decode_identity_packets():
    rng = np.random.default_rng(11)
    block = make_block(rng, m=6, k=9)
    dec = rlnc.DecoderState(0, 6)
    eye = np.eye(6, dtype=np.uint8)
    for row in eye:
        dec.receive(rlnc.coded_packet(block, row))
    out = dec.decode()
    assert np.array_equal(out.packets, block.packets)
    assert out.block_id == block.block_id


def test_decode_random_round_trip_and_reencode():
    rng = np.random.default_rng(12)
    block = make_block(rng, m=12, k=40)
    dec = rlnc.DecoderState(0, 12)
    while dec.rank < 12:
        dec.receive(rlnc.encode(block, rng))
    out = dec.decode()
    assert np.array_equal(out.packets, block.packets)
    # re-encoding with the stored coefficient matrix reproduces stored payloads
    reenc = oracles.matmul(oracles.coefficient_matrix(dec), out.packets)
    assert np.array_equal(reenc, oracles.payload_matrix(dec))


def test_decode_insufficient_rank():
    rng = np.random.default_rng(13)
    block = make_block(rng, m=5, k=2)
    dec = rlnc.DecoderState(0, 5)
    while dec.rank < 4:
        dec.receive(rlnc.encode(block, rng))
    with pytest.raises(rlnc.NotDecodableError):
        dec.decode()


def shuffled_relay_delivery(block, layers, rng, extra=6):
    """Generate M+extra packets pushed through `layers` recode stages."""
    packets = [rlnc.encode(block, rng) for _ in range(block.size + extra)]
    for _ in range(layers):
        buf = rlnc.RecodeBuffer(capacity=8)
        out = []
        for p in packets:
            buf.offer(p)
            out.append(rlnc.recode(buf, rng))
        packets = out
    rng.shuffle(packets)
    return packets


def test_round_trip_mixed_source_and_relay_packets():
    # decoder must not care whether packets came straight from the source
    # or through a relay, in any interleaving
    rng = np.random.default_rng(77)
    block = make_block(rng, m=20, k=30)
    buf = rlnc.RecodeBuffer(capacity=8)
    mixed = []
    for i in range(30):
        p = rlnc.encode(block, rng)
        buf.offer(p)
        mixed.append(p if i % 2 == 0 else rlnc.recode(buf, rng))
    rng.shuffle(mixed)
    dec = rlnc.DecoderState(0, 20)
    for p in mixed:
        if dec.rank < 20:
            dec.receive(p)
    assert dec.rank == 20
    assert np.array_equal(dec.decode().packets, block.packets)


@pytest.mark.parametrize("layers", [0, 1, 2, 3])
def test_round_trip_through_recode_layers(layers):
    rng = np.random.default_rng(100 + layers)
    block = make_block(rng, m=20, k=50)
    dec = rlnc.DecoderState(0, 20)
    for p in shuffled_relay_delivery(block, layers, rng):
        # span preservation: payload is always the coefficient view of the block
        assert np.array_equal(p.payload, oracles.matmul(p.coefficients, block.packets))
        if dec.rank < 20:
            dec.receive(p)
    assert dec.rank == 20
    assert np.array_equal(dec.decode().packets, block.packets)


# per stage: the buffer capacity and, per packet offered, whether it is
# offered (and later received) twice
_STAGES = st.lists(st.tuples(st.integers(1, 8), st.lists(st.booleans(), min_size=1, max_size=10)),
                   min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 20), width=st.sampled_from([1, 8, 1400]),
       seed=st.integers(0, 2**32 - 1), stages=_STAGES)
def test_recode_layers_keep_payloads_and_receive_tracks_rank(m, width, seed, stages):
    """A buffer filled by encodes feeds 1-3 layers of recoding buffers; every
    recode's payload is the combination its coefficients name, and the
    decoder calls a packet innovative exactly when the rank grows."""
    rng = np.random.default_rng(seed)
    block = make_block(rng, m=m, k=width)
    sent = []
    upstream = None
    for capacity, dups in stages:
        buf = rlnc.RecodeBuffer(capacity)
        for dup in dups:
            if upstream is None:
                p = rlnc.encode(block, rng)
            else:
                p = rlnc.recode(upstream, rng)
                assert p == rlnc.coded_packet(block, p.coefficients)
            for _ in range(1 + dup):
                assert buf.offer(p)
                sent.append(p)
        upstream = buf
    dec = rlnc.DecoderState(0, m)
    rows = []
    for p in sent:
        before = oracles.rank(np.stack(rows)) if rows else 0
        rows.append(p.coefficients)
        assert dec.receive(p) == (oracles.rank(np.stack(rows)) > before)
    if dec.rank == m:
        assert np.array_equal(dec.decode().packets, block.packets)


def _mul_oracle(w, row):
    """w * row entry by entry through gf256.mul (one 256-entry map per weight)."""
    table = np.array([gf256.mul(int(w), x) for x in range(256)], dtype=np.uint8)
    return table[row]


# block id steps from the buffer's current block: the same block, newer by 1
# (wrapping at 2^16) or by the widest newer step, older by 1, or half the id
# space away, which is not newer either
_ID_STEPS = st.lists(st.sampled_from([0, 1, 2**15 - 1, -1, 2**15]), min_size=1, max_size=16)


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 8), m=st.integers(1, 20), width=st.sampled_from([0, 1, 8, 1400]),
       first_id=st.sampled_from([0, 1, 2**16 - 2, 2**16 - 1]), steps=_ID_STEPS,
       seed=st.integers(0, 2**32 - 1))
def test_stacked_ring_matches_packets_and_recode_oracle(capacity, m, width, first_id, steps,
                                                        seed):
    """After every offer the ring holds the accepted packets of the newest
    block, oldest first, at most capacity of them, and a recode puts weight t
    on packet t's [coefficients | payload] row."""
    rng = np.random.default_rng(seed)
    buf = rlnc.RecodeBuffer(capacity)
    expected = []
    block_id = first_id
    for i, step in enumerate(steps):
        pid = (block_id + (step if i else 0)) % rlnc.BLOCK_ID_MODULUS
        p = rlnc.CodedPacket(pid, m, rng.integers(0, 256, size=m, dtype=np.uint8).tobytes()
                             + rng.integers(0, 256, size=width, dtype=np.uint8).tobytes())
        accepted = not expected or pid == block_id or rlnc.block_id_newer(pid, block_id)
        assert buf.offer(p) == accepted
        if accepted:
            if expected and pid != block_id:
                expected = []
            block_id = pid
            expected = (expected + [p])[-capacity:]
        assert buf.block_id == block_id and buf.packets == expected
        assert len(buf) == len(expected) <= capacity

        weights = rng.integers(0, 256, size=len(expected), dtype=np.uint8)
        weights[-1] |= not weights.any()
        out = rlnc.recode(buf, ForcedRng(weights))
        want = np.zeros(m + width, dtype=np.uint8)
        for w, q in zip(weights, expected):
            want ^= _mul_oracle(w, np.concatenate((q.coefficients, q.payload)))
        assert out == rlnc.CodedPacket(block_id, m, want.tobytes())


def _scaled(s, coefficients):
    return np.array([gf256.mul(s, int(c)) for c in coefficients], dtype=np.uint8)


# arrival kinds: a fresh random vector, a fresh vector with mostly zero
# bytes, an exact duplicate of an earlier arrival, a scalar multiple of one,
# the XOR sum of two, or all zeros
_ARRIVALS = st.lists(st.tuples(st.sampled_from(["fresh", "sparse", "dup", "scaled", "sum",
                                                "zero"]),
                               st.integers(0, 2**16), st.integers(1, 255)),
                     max_size=30)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40), width=st.integers(0, 16), seed=st.integers(0, 2**32 - 1),
       arrivals=_ARRIVALS)
def test_echelon_decoder_against_rank_oracle(m, width, seed, arrivals):
    """receive() is True exactly when the oracle rank grows, the kept matrices
    are the innovative arrivals in order, and decode() returns the block."""
    rng = np.random.default_rng(seed)
    block = make_block(rng, m=m, k=width)
    dec = rlnc.DecoderState(0, m)
    seen, kept = [], []

    def arrive(coefficients):
        p = rlnc.coded_packet(block, coefficients)
        grows = oracles.rank(np.stack(seen + [p.coefficients])) > dec.rank
        assert dec.receive(p) == grows
        seen.append(p.coefficients)
        if grows:
            kept.append(p)
        assert dec.rank == len(kept)
        if kept:
            assert np.array_equal(oracles.coefficient_matrix(dec), [q.coefficients for q in kept])
            assert np.array_equal(oracles.payload_matrix(dec), [q.payload for q in kept])
        else:
            assert oracles.coefficient_matrix(dec).shape == (0, m)

    for kind, pick, s in arrivals:
        if kind == "zero":
            arrive(np.zeros(m, dtype=np.uint8))
        elif kind == "sparse":
            v = rng.integers(0, 256, size=m, dtype=np.uint8)
            v[rng.random(m) < 0.8] = 0
            arrive(v)
        elif kind == "fresh" or not seen:
            arrive(rng.integers(0, 256, size=m, dtype=np.uint8))
        elif kind == "dup":
            arrive(seen[pick % len(seen)])
        elif kind == "scaled":
            arrive(_scaled(s, seen[pick % len(seen)]))
        else:
            arrive(seen[pick % len(seen)] ^ seen[(pick // 7) % len(seen)])
    while dec.rank < m:
        arrive(rng.integers(0, 256, size=m, dtype=np.uint8))
    assert np.array_equal(dec.decode().packets, block.packets)


@st.composite
def _rings(draw):
    """Block size m, 1-8 [coefficients | payload] rows of width m + 0..16
    (hypothesis favours zero bytes), and nonzero recode weights."""
    m = draw(st.integers(1, 40))
    width = m + draw(st.integers(0, 16))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.binary(min_size=width, max_size=width), min_size=n, max_size=n))
    weights = draw(st.binary(min_size=n, max_size=n).filter(any))
    return m, rows, weights


@settings(max_examples=100, deadline=None)
@given(ring=_rings(), block_id=st.integers(0, 2**16 - 1))
def test_recode_matches_weighted_row_sum(ring, block_id):
    """A recode on bytes rows equals the numpy kernel over the stacked rows of
    the ring with the same weights."""
    m, rows, weights = ring
    buf = rlnc.RecodeBuffer(8)
    for row in rows:
        assert buf.offer(rlnc.CodedPacket(block_id, m, row))
    w = np.frombuffer(weights, dtype=np.uint8)
    stacked = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)
    want = gf256.weighted_row_sum(w, stacked)
    out = rlnc.recode(buf, ForcedRng(w))
    assert out.block_id == block_id and out.m == m
    assert out.row == want.tobytes()
    assert out == rlnc.CodedPacket(block_id, m, want.tobytes())


@settings(max_examples=100, deadline=None)
@given(block_id=st.integers(0, 2**16 - 1), coefficients=st.binary(min_size=1, max_size=40),
       payload=st.binary(max_size=16))
def test_coded_packet_round_trips_byte_for_byte(block_id, coefficients, payload):
    """A packet is one [coefficients | payload] bytes row with read-only views,
    and the header functions carry it through unchanged."""
    m = len(coefficients)
    p = rlnc.CodedPacket(block_id, m, coefficients + payload)
    assert p.m == m and p.row == coefficients + payload
    assert p.coefficients.tobytes() == coefficients and p.payload.tobytes() == payload
    assert not p.coefficients.flags.writeable and not p.payload.flags.writeable
    assert rlnc.CodedPacket(block_id, m, p.coefficients.tobytes() + p.payload.tobytes()) == p
    with pytest.raises(TypeError, match="unhashable"):
        hash(p)
    raw = rlnc.serialize_header(p)
    assert raw == block_id.to_bytes(2, "big") + coefficients + payload
    back = rlnc.parse_header(raw, m)
    assert back == p and back.row == p.row and rlnc.serialize_header(back) == raw


def test_header_layout_oracle():
    coeffs = np.zeros(20, dtype=np.uint8)
    coeffs[0] = 0x01
    payload = np.arange(5, dtype=np.uint8)
    p = rlnc.CodedPacket(1, 20, coeffs.tobytes() + payload.tobytes())
    raw = rlnc.serialize_header(p)
    assert raw[:22] == bytes([0x00, 0x01, 0x01] + [0x00] * 19)
    assert raw[22:] == bytes(range(5))
    assert len(raw) == 2 + 20 + 5


def test_header_round_trip_random():
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = rlnc.CodedPacket(
            int(rng.integers(0, 65536)),
            20,
            rng.integers(0, 256, size=20, dtype=np.uint8).tobytes()
            + rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes(),
        )
        assert rlnc.parse_header(rlnc.serialize_header(p), 20) == p


def test_header_truncation():
    with pytest.raises(ValueError):
        rlnc.parse_header(bytes(21), 20)
    # 22 bytes is the minimum with M=20 (empty payload)
    p = rlnc.parse_header(bytes(22), 20)
    assert p.payload.size == 0


def test_header_overhead():
    assert rlnc.header_overhead(20, 1400) == pytest.approx(1.428, abs=1e-3)
    assert rlnc.header_overhead(0, 1400) == 0.0
    assert rlnc.header_overhead(20, 1200) == pytest.approx(1.667, abs=1e-3)
    with pytest.raises(ValueError):
        rlnc.header_overhead(20, 0)
