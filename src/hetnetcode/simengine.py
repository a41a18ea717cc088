"""Slotted packet-level simulation of coded end-to-end sessions.

One slot is one WiFi packet transmission time, so a saturated single WiFi
link moves exactly one packet per slot and relative throughput is
packets-per-slot at the destination.  Within a slot:

  (a) the cellular pipe accrues fluid credit at the loaded link rate and
      releases whole coded packets from the source straight to the
      destination;
  (b) wired access links and the backbone bus move packets under per-node,
      per-edge and bus budgets (full duplex, no interference);
  (c) a greedy maximal set of protocol-model-feasible radio transmissions
      fires, each moving one coded packet one hop;
  (d) the destination decoder consumes the slot's arrivals; completing a
      block schedules an ACK which the source acts on after the configured
      delay.

Relays never decode: each keeps a ring of received packets for the block it
currently believes is live and forwards fresh random recombinations, one
send per received packet.  A relay learns a block is over only by seeing a
newer block id and keeps forwarding stale packets until then; the
destination discards those (they still show up in the event trace).
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import rlnc
from .config import ConfigError, ScenarioConfig
from .rlnc import CodedPacket, DecoderState, RecodeBuffer, SourceBlock
from .routing import UNREACHABLE
from .topology import HetNetTopology, cellular_link_rate


class NoPathError(RuntimeError):
    """Destination unreachable on every enabled interface."""


@dataclass
class TraceEvent:
    slot: int
    node: int
    interface: str
    block_id: int
    innovative: bool


class EventTrace:
    """Per-packet arrival records at the destination, in slot order."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def append(self, ev: TraceEvent):
        if self.events and ev.slot < self.events[-1].slot:
            raise ValueError("trace slots must be non-decreasing")
        self.events.append(ev)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def write_csv(self, fh):
        fh.write("slot,node_id,interface,block_id,innovative\n")
        for ev in self.events:
            fh.write(f"{ev.slot},{ev.node},{ev.interface},{ev.block_id},{int(ev.innovative)}\n")


@dataclass
class SessionStats:
    source: int
    destination: int
    slots_elapsed: int  # >= 1: the last decode slot (slots start at 1) or the budget
    wifi_sent: int
    cellular_sent: int
    wired_sent: int
    decode_slots: list[int]
    block_size: int

    @property
    def blocks_delivered(self) -> int:
        return len(self.decode_slots)

    @property
    def relative_throughput(self) -> float:
        return self.blocks_delivered * self.block_size / self.slots_elapsed


def loaded_cellular_rate(link_rate: float, config: ScenarioConfig) -> float:
    """Per-user cellular rate once the cell serves config.users_per_cell users.

    equal-rate divides the cell maximum config.r_cell evenly, capped by the
    node's own supported rate; equal-time gives each user a 1/users time
    share of its own rate.
    """
    if config.loading_mode == "equal-rate":
        return min(link_rate, config.r_cell / config.users_per_cell)
    return link_rate / config.users_per_cell


# raw outputs a Draws reads ahead per refill: 4 KB a stream
_BLOCK_OUTPUTS = 512
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _raw_blocks(bitgen: np.random.PCG64):
    """bitgen's raw outputs, _BLOCK_OUTPUTS at a time, as little-endian bytes."""
    while True:
        yield bitgen.random_raw(_BLOCK_OUTPUTS).tobytes()


class Draws:
    """numpy's own draws from a PCG64 generator, served from `blocks`, an
    iterator of blocks of its raw 64-bit outputs (_raw_blocks of a fresh
    PCG64, or _stream_blocks of a session stream).

    PCG64's next_uint32 returns an output's low word and keeps its high word
    for the next call; next_double takes the top 53 bits of the next whole
    output and leaves a kept word kept.  A block is held as its outputs'
    little-endian bytes (the host must be little-endian), so the word stream
    is the block's 4-byte chunks in order and a word is kept exactly when the
    read position sits halfway into an output.  `bytes(n)`, `below(k)` and
    `random(n)` return Generator.bytes(n), int(Generator.integers(0, k)) and
    Generator.random(n) of a Generator on that PCG64, started where the
    blocks start.  The blocks run ahead of the draws, so nothing else may
    draw from it; no lock is taken."""

    def __init__(self, blocks):
        self._blocks = blocks
        self._load(b"", 0)

    def _load(self, buf: bytes, pos: int):
        self._buf, self._pos, self._size = buf, pos, len(buf)
        view = memoryview(buf)
        self._words, self._raw = view.cast("I"), view.cast("Q")

    def _fill(self, need: int):
        """Make need bytes readable from the read position, keeping the
        buffer from the start of the output that holds it."""
        pos = self._pos
        if pos + need <= self._size:
            return
        buf = self._buf[pos & ~7:]
        pos &= 7
        while len(buf) - pos < need:
            buf += next(self._blocks)
        self._load(buf, pos)

    def bytes(self, n: int) -> bytes:
        """ceil(n / 4) words, low byte first, cut to n bytes."""
        size = (n + 3) & ~3
        if self._pos + size > self._size:
            self._fill(size)
        pos = self._pos
        self._pos = pos + size
        return self._buf[pos:pos + n]

    def below(self, k: int) -> int:
        """A uniform int in [0, k) for 1 <= k < 2**32: numpy's Lemire
        rejection on words, drawing no word at k = 1."""
        if k == 1:
            return 0
        if self._pos + 4 > self._size:
            self._fill(4)
        pos = self._pos
        self._pos = pos + 4
        m = self._words[pos >> 2] * k
        if m & 0xFFFFFFFF < k:
            threshold = (1 << 32) % k  # numpy's (2**32 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = int.from_bytes(self.bytes(4), "little") * k
        return m >> 32

    def random(self, n: int | None = None):
        """One double, or a list of n, each from the top 53 bits of an output.
        With a word kept, the doubles take the outputs after it, which are cut
        from the buffer so that the kept word is read next."""
        kept, size = self._pos & 4, 8 * (1 if n is None else n)
        self._fill(kept + size)
        buf, pos = self._buf, self._pos
        start = pos + kept
        end = start + size
        values = [(x >> 11) * _DOUBLE_UNIT for x in self._raw[start >> 3:end >> 3]]
        if kept:
            self._load(buf[:start] + buf[end:], pos)
        else:
            self._pos = end
        return values[0] if n is None else values


def schedule_wifi_slot(pending_txs, topo: HetNetTopology, rng: np.random.Generator,
                       priorities):
    """Greedy maximal feasible subset of the pending (tx, rx) transmissions.

    Candidates are visited in order of the caller's priority keys, one per
    candidate, in random order within ties: one rng.random(n) jitter value per
    candidate, from a numpy Generator or a session's Draws, which draw the
    same values from the same PCG64 stream.  A candidate is admitted iff the
    guard inequality holds in both directions against everything already
    admitted and neither endpoint is already busy (half-duplex radios).
    Every admitted pair therefore satisfies d(rx, k) >= (1+delta)*d(tx, rx)
    against every other admitted transmitter k.  Each pending pair must lie
    within WiFi range (LinkRangeError otherwise).
    """
    n = len(pending_txs)
    # the index breaks exact ties as a stable sort on (priority, jitter) would
    order = sorted(zip(priorities, rng.random(n), range(n)))
    admitted: list[tuple[int, int]] = []
    admitted_txs: list[int] = []
    busy: set[int] = set()
    for *_, i in order:
        tx, rx = pending_txs[i][0], pending_txs[i][1]
        if tx in busy or rx in busy:
            continue
        if topo.protocol_model_ok(tx, rx, admitted_txs) and all(
                topo.protocol_model_ok(atx, arx, (tx,)) for atx, arx in admitted):
            admitted.append((tx, rx))
            admitted_txs.append(tx)
            busy.update((tx, rx))
    return admitted


def pick_session_pair(topo: HetNetTopology, config: ScenarioConfig) -> tuple[int, int]:
    """The random S-D pair, with a finite route of at least config.min_hops
    hops, of a session that picks its own: drawn from its session stream 0."""
    rng = np.random.Generator(_stream_bitgen(config.seed, 0))
    for s in rng.permutation(len(topo)):
        dist = topo.routes.distances_to(int(s))
        cand = np.nonzero((dist >= config.min_hops) & (dist < UNREACHABLE))[0]
        if cand.size:
            d = int(cand[rng.integers(0, cand.size)])
            return int(s), d
    raise NoPathError(f"no node pair at >= {config.min_hops} hops exists in this topology")


def _stream_bitgen(seed: int, i: int) -> np.random.PCG64:
    """A fresh PCG64 of seed's session stream i, one of the five independent
    streams 0-4 a session reads, in order: S-D pair pick, cellular
    coefficients, source WiFi/wired draws, relay recodes and hop picks, radio
    scheduler.  Its SeedSequence(seed, spawn_key=(i,)) is the child
    SeedSequence(seed).spawn(n)[i] for any n > i, seeded without its
    siblings; pick_session_pair draws from stream 0, session_draws serves
    streams 1-4."""
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))


@functools.lru_cache(maxsize=1)
def _stream_heads(seed: int) -> dict[int, bytes]:
    """The first raw block of each of seed's session streams read so far, by
    stream index.  A pure function of the seed, kept for the last seed only:
    the sessions of one trial share it, and no Draws mutates a block."""
    return {}


def _stream_blocks(seed: int, i: int):
    """Raw blocks of seed's session stream i: the memoised head, then the
    blocks after it from a PCG64 made only when a draw reads past the head."""
    heads = _stream_heads(seed)
    head = heads.get(i)
    if head is None:
        head = heads[i] = _stream_bitgen(seed, i).random_raw(_BLOCK_OUTPUTS).tobytes()
    yield head
    bitgen = _stream_bitgen(seed, i)
    bitgen.advance(_BLOCK_OUTPUTS)
    yield from _raw_blocks(bitgen)


def session_draws(seed: int) -> list[Draws]:
    """The draws of seed's session streams 1-4, each from _stream_blocks;
    with stream 0, which pick_session_pair reads, these are every stream a
    session reads."""
    return [Draws(_stream_blocks(seed, i)) for i in range(1, 5)]


class _Credit:
    """Fractional per-slot budget released as whole packets."""

    __slots__ = ("rate", "value", "limit")

    def __init__(self, rate: float, phase: float = 0.0):
        self.rate = rate
        self.limit = max(1.0, rate)
        self.value = phase

    def take(self) -> bool:
        if self.value >= 1.0:
            self.value -= 1.0
            return True
        return False


# a budget the topology leaves unset: never ticked, and inf - 1 stays inf
_UNLIMITED = _Credit(math.inf, phase=math.inf)


def _tick(credits):
    """The one per-slot credit rule: accrue the rate, clipped at the limit."""
    for c in credits:
        value = c.value + c.rate
        c.value = value if value < c.limit else c.limit


class _Relay:
    __slots__ = ("buffer", "send_credit", "proc", "round_robin", "cell_up")

    def __init__(self, capacity: int, wired_rate: float, phase: float,
                 cell_up: _Credit | None):
        self.buffer = RecodeBuffer(capacity)
        self.send_credit = 0  # one send permitted per received packet
        self.proc = _Credit(wired_rate, phase=phase)
        self.round_robin = 0  # round-robin picks so far; odd ones go on cellular
        self.cell_up = cell_up


class _Session:
    """Single-run state; drive via run_session()."""

    def __init__(self, config: ScenarioConfig, topo: HetNetTopology, pair: tuple[int, int] | None,
                 schedule_log):
        self.cfg = config
        self.topo = topo
        self.routes = topo.routes
        self.schedule_log = schedule_log

        self.rng_cell, self.rng_wifi, self.rng_relay, self.rng_sched = session_draws(config.seed)
        if pair is None:
            pair = pick_session_pair(topo, config)
        self.src, self.dst = int(pair[0]), int(pair[1])
        if self.src == self.dst:
            raise ConfigError("source and destination must differ")
        # Python floats: the scheduler sorts on them every slot
        self.dist_to_dst = self.routes.distances_to(self.dst).tolist()

        # node rates scale with the session's cell maximum, not the topology's
        self.rate_scale = config.r_cell / topo.params.r_cell
        link = config.link_rate_override
        if link is None:
            link = cellular_link_rate(topo, self.src, self.dst) * self.rate_scale
        pipe = loaded_cellular_rate(link, config) if config.cellular_enabled else 0.0
        self._cell_pipe = self.cell_up, self.cell_down = _Credit(pipe), _Credit(pipe)
        self.cell_queue: deque = deque()
        # the source's cellular packets combined ahead of their sends, oldest first
        self._cell_ready: deque = deque()

        self.wired_active = config.wifi_enabled and (
            len(topo.backbone) > 1 or bool(topo.wired.edges))
        self.wifi_usable = config.wifi_enabled and self.dist_to_dst[self.src] < UNREACHABLE
        # with no WiFi link in the topology no radio transmission is ever pending
        self.radio_active = config.wifi_enabled and any(topo.neighbors)
        if not self.wifi_usable and pipe <= 0:
            raise NoPathError(
                f"destination {self.dst} unreachable from {self.src} on every interface")

        # wired budgets: one credit per undirected edge, per-node in/out caps,
        # and a shared bus budget for backbone hops; an unset one is _UNLIMITED
        spec = topo.wired
        self.edge_cap: dict[tuple[int, int], _Credit] = {}
        for u, v in spec.edges:
            self.edge_cap[(u, v)] = self.edge_cap[(v, u)] = _Credit(spec.edge_capacity)
        self.node_out = {nid: _Credit(cap) for nid, cap in spec.node_out.items()}
        self.node_in = {nid: _Credit(cap) for nid, cap in spec.node_in.items()}
        self.bus = _Credit(config.backbone_rate) if topo.backbone else _UNLIMITED
        credits = [*self.edge_cap.values(), *self.node_out.values(), *self.node_in.values(),
                   self.bus]
        # each credit once, though an edge's is stored under both directions
        self._wired_credits = [c for c in dict.fromkeys(credits) if c is not _UNLIMITED]
        # session caches, fixed once filled because the routes and the
        # destination are: each node's out budget and wired hops with their
        # credits, and its WiFi next hops, looked up on first use
        self._wired_hops: dict[int, tuple] = {}
        self._wifi_hops: dict[int, list[int]] = {}

        # transport state: one decode slot per delivered block
        self.block = self._make_block(0)
        self.decoder = DecoderState(0, config.block_size)
        self.ack_slot: int | None = None  # slot from which the source may advance
        self.decode_slots: list[int] = []

        self.relays: dict[int, _Relay] = {}
        self._procs: list[_Credit] = []  # each relay's proc credit, ticked as one
        # (due slot, relay, packet); every arrival waits processing_delay, so
        # landing order is due order
        self.arrivals: deque = deque()
        # relay ids ascending, rebuilt when a relay is created; a loop keeps
        # the tuple it started with, so a relay made during it waits a slot
        self.relay_order: tuple[int, ...] = ()
        self.trace = EventTrace()
        self.sent = {"wifi": 0, "cellular": 0, "wired": 0}
        self.slot = 0
        self.relay_cellular = config.relay_policy != "wifi-only"

    # -- small helpers -----------------------------------------------------

    def _make_block(self, block_id: int) -> SourceBlock:
        """A block of block_size packets of no payload bytes: coefficients
        alone decide rank and timing, so a session carries nothing else."""
        return SourceBlock(block_id, np.empty((self.cfg.block_size, 0), np.uint8))

    def _relay(self, node: int) -> _Relay:
        r = self.relays.get(node)
        if r is None:
            cfg = self.cfg
            phase = (node * cfg.wired_relay_rate) % 1.0
            cell_up = None
            if self.relay_cellular:
                link = float(self.topo.cellular_rates[node]) * self.rate_scale
                cell_up = _Credit(loaded_cellular_rate(link, cfg))
            r = _Relay(cfg.buffer_capacity, cfg.wired_relay_rate, phase, cell_up)
            self.relays[node] = r
            self._procs.append(r.proc)
            self.relay_order = tuple(sorted(self.relays))
        return r

    def _interfaces(self, relay: _Relay) -> tuple[bool, bool]:
        """(cellular, wifi): whether relay's next packet goes out on each
        interface under the relay policy.  Round-robin starts on WiFi and
        alternates per relay; probabilistic draws one double from rng_relay."""
        policy = self.cfg.relay_policy
        if policy == "duplicate":
            return True, True
        if policy == "round-robin":
            cellular = relay.round_robin % 2 == 1
            relay.round_robin += 1
        elif policy == "probabilistic":
            cellular = self.rng_relay.random() < self.cfg.relay_p
        else:
            cellular = policy == "cellular-only"
        return cellular, not cellular

    def _can_send(self, node: int) -> bool:
        """The source always can; a relay needs a send credit, which only a
        stored packet grants, and a buffer that stored one is never empty."""
        return node == self.src or self.relays[node].send_credit >= 1

    def _draws(self, node: int) -> Draws:
        """The stream of node's hop picks (and packets)."""
        return self.rng_wifi if node == self.src else self.rng_relay

    def _emit(self, node: int, interface: str) -> CodedPacket:
        """A fresh coded packet that node sends on interface: an encode at the
        source (cellular coefficients have their own stream), or a recode at
        a relay, which spends one send credit."""
        self.sent[interface] += 1
        if node == self.src:
            if interface == "cellular":
                return self._cellular_encode()
            return rlnc.encode(self.block, self.rng_wifi)
        relay = self.relays[node]
        relay.send_credit -= 1
        return rlnc.recode(relay.buffer, self.rng_relay)

    def _cellular_encode(self) -> CodedPacket:
        """The source's next cellular packet.  Nothing but these encodes reads
        rng_cell, so its coefficient vectors are drawn a block's worth at a
        time, as that many encodes draw them, and combined with the block in
        one call; each send takes the oldest."""
        ready = self._cell_ready
        if not ready:
            m, rng = self.cfg.block_size, self.rng_cell
            coefficients = b"".join([rlnc.random_nonzero_bytes(m, rng) for _ in range(m)])
            ready.extend(rlnc.coded_packets(self.block, coefficients))
        return ready.popleft()

    def _land(self, rx: int, packet: CodedPacket, interface: str):
        """packet arrives at rx over interface: a relay, made now so that every
        later relay loop ticks its credits, ingests it after the processing
        delay; the destination's decoder consumes it now."""
        if rx != self.dst:
            due = self.slot + 1 + self.cfg.processing_delay
            self.arrivals.append((due, self._relay(rx), packet))
            return
        # under stop-and-wait no packet is newer than the decoder's block,
        # and older (stale) ones are discarded
        innovative = packet.block_id == self.decoder.block_id and self.decoder.receive(packet)
        self.trace.append(TraceEvent(self.slot, self.dst, interface,
                                     packet.block_id, innovative))
        if self.decoder.rank == self.cfg.block_size:
            # the rank check: solve raises SingularMatrixError unless the
            # block_size kept coefficient rows are independent
            self.decoder.decode()
            self.decode_slots.append(self.slot)
            self.ack_slot = self.slot + 1 + self.cfg.ack_delay
            self.decoder = DecoderState((self.decoder.block_id + 1) % rlnc.BLOCK_ID_MODULUS,
                                        self.cfg.block_size)

    # -- per-slot phases ----------------------------------------------------

    def _maybe_advance_source(self):
        if self.ack_slot is not None and self.slot >= self.ack_slot:
            self.ack_slot = None
            self.block = self._make_block((self.block.block_id + 1) % rlnc.BLOCK_ID_MODULUS)
            # unsent cellular packets keep their coefficients; a block has no
            # payload bytes, so each is the new block's packet once relabelled
            block_id = self.block.block_id
            self._cell_ready = deque([CodedPacket(block_id, p.m, p.row) for p in self._cell_ready])

    def _ingest_relays(self):
        # in landing order, not relay by relay: an ingest draws nothing and
        # touches only its own relay
        arrivals = self.arrivals
        while arrivals and arrivals[0][0] <= self.slot:
            _, relay, packet = arrivals.popleft()
            if relay.buffer.offer(packet):
                relay.send_credit = min(self.cfg.buffer_capacity, relay.send_credit + 1)

    def _cellular_phase(self) -> dict:
        """Cellular sends and arrivals.  Returns the relays planned onto the
        radio, in id order, each mapped to the packet it already sent on
        cellular under the duplicate schedule, else to None."""
        if self.cell_up.rate > 0:
            _tick(self._cell_pipe)
            # like the wired flood, at most one block's worth per slot
            for _ in range(self.cfg.block_size):
                if not self.cell_up.take():
                    break
                self.cell_queue.append(self._emit(self.src, "cellular"))
        if not self.relay_cellular:
            radio = dict.fromkeys(self.relay_order)
        else:
            # every relay picks its interfaces before any relay recodes
            plans = [(node, self._interfaces(self.relays[node]))
                     for node in self.relay_order if self._can_send(node)]
            radio = {}
            for node, (cellular, wifi) in plans:
                pkt = None
                if cellular:
                    cell_up = self.relays[node].cell_up
                    _tick((cell_up,))
                    if cell_up.take():
                        pkt = self._emit(node, "cellular")
                        self.cell_queue.append(pkt)
                if wifi:
                    radio[node] = pkt
        while self.cell_queue and self.cell_down.take():
            self._land(self.dst, self.cell_queue.popleft(), "cellular")
        return radio

    def _wired_pick(self, u: int) -> int | None:
        """A random wired next hop v of u whose send credits all hold a
        packet, with those credits spent; None if no hop can take one now.
        A u->v send spends u's out budget, its edge (else the bus) and v's
        in budget; u's budget and its hops with their credits are looked up
        once per u."""
        hops = self._wired_hops.get(u)
        if hops is None:
            hops = self._wired_hops[u] = (self.node_out.get(u, _UNLIMITED), [
                (v, self.edge_cap.get((u, v), self.bus), self.node_in.get(v, _UNLIMITED))
                for v in self.routes.next_hops(u, self.dst, "wired")])
        out, links = hops
        if out.value < 1.0:
            return None
        targets = [hop for hop in links if hop[1].value >= 1.0 and hop[2].value >= 1.0]
        if not targets:
            return None
        v, link, into = targets[self._draws(u).below(len(targets))]
        out.value -= 1.0
        link.value -= 1.0
        into.value -= 1.0
        return v

    def _wired_phase(self):
        _tick(self._wired_credits)
        # the source floods up to one block's worth per slot; relays are
        # bounded by their processing rate and their send credit
        for _ in range(self.cfg.block_size):
            v = self._wired_pick(self.src)
            if v is None:
                break
            self._land(v, self._emit(self.src, "wired"), "wired")
        # each relay made so far, the flood's too; one made below waits a slot
        _tick(self._procs)
        for node in self.relay_order:
            relay = self.relays[node]
            proc = relay.proc
            while relay.send_credit >= 1 and proc.value >= 1.0:
                v = self._wired_pick(node)
                if v is None:
                    break
                proc.value -= 1.0
                self._land(v, self._emit(node, "wired"), "wired")

    def _radio_phase(self, radio: dict):
        # the source picks its hop after the relays; with no WiFi route its
        # next hops are [] and it draws nothing
        radio[self.src] = None
        pending = []  # (tx, rx), each tx mapped in radio to its duplicate or None
        for node, dup_pkt in radio.items():
            if dup_pkt is None and not self._can_send(node):
                continue
            cand = self._wifi_hops.get(node)
            if cand is None:
                cand = self._wifi_hops[node] = self.routes.next_hops(node, self.dst, "wifi")
            if cand:
                pending.append((node, cand[self._draws(node).below(len(cand))]))
        if not pending:
            return
        admitted = schedule_wifi_slot(pending, self.topo, self.rng_sched,
                                      [self.dist_to_dst[tx] for tx, _ in pending])
        if self.schedule_log is not None and admitted:
            self.schedule_log.append((self.slot, admitted))
        for tx, rx in admitted:
            pkt = radio[tx]
            if pkt is None:
                pkt = self._emit(tx, "wifi")
            else:  # the packet tx also sent on cellular
                self.sent["wifi"] += 1
            self._land(rx, pkt, "wifi")

    # -- fast path for cellular-only runs ------------------------------------

    def _skip_ahead(self, budget: int):
        """Jump over slots in which nothing can happen (pure cellular pipe)."""
        # the pipe rate is > 0, or __init__ raised NoPathError; the wait is cut
        # to the budget before its ceiling, as lacking / rate is inf at 1e-320
        lacking = max(0.0, 1.0 - self.cell_up.value)
        steps = [math.ceil(min(lacking / self.cell_up.rate, budget))]
        if self.ack_slot is not None:
            steps.append(self.ack_slot - self.slot)
        skipped = min(max(1, min(steps)) - 1, budget - self.slot - 1)
        if skipped > 0:
            # every skipped slot in one step, since no take falls between them
            for c in self._cell_pipe:
                c.value = min(c.limit, c.value + c.rate * skipped)
            self.slot += skipped

    # -- main loop -----------------------------------------------------------

    def run(self) -> tuple[SessionStats, EventTrace]:
        budget = self.cfg.slot_budget
        fast = not (self.wifi_usable or self.wired_active)
        while self.slot < budget and len(self.decode_slots) < self.cfg.block_target:
            if fast:
                self._skip_ahead(budget)
            self.slot += 1
            self._maybe_advance_source()
            self._ingest_relays()
            radio = self._cellular_phase()
            if self.wired_active:
                self._wired_phase()
            if self.radio_active:
                self._radio_phase(radio)
        elapsed = self.decode_slots[-1] if self.decode_slots else budget
        stats = SessionStats(
            source=self.src,
            destination=self.dst,
            slots_elapsed=elapsed,
            wifi_sent=self.sent["wifi"],
            cellular_sent=self.sent["cellular"],
            wired_sent=self.sent["wired"],
            decode_slots=self.decode_slots,
            block_size=self.cfg.block_size,
        )
        return stats, self.trace


def run_session(config: ScenarioConfig, topo: HetNetTopology, pair: tuple[int, int] | None = None,
                schedule_log=None) -> tuple[SessionStats, EventTrace]:
    """Simulate one S-D session; deterministic in (config, topology)."""
    return _Session(config, topo, pair, schedule_log).run()


def compare_modes(config: ScenarioConfig, topo: HetNetTopology,
                  pair: tuple[int, int] | None = None) -> tuple[SessionStats, SessionStats]:
    """(cellular-only, combined) stats of two sessions with the same seed on
    the same topology, config with WiFi off and config itself; both pick the
    same pair when none is given.  Both need the cellular interface."""
    if not config.cellular_enabled:
        raise ConfigError("compare_modes compares against the cellular interface, "
                          "which is disabled")
    cellular_only, _ = run_session(replace(config, wifi_enabled=False), topo, pair=pair)
    combined, _ = run_session(config, topo, pair=pair)
    return cellular_only, combined
