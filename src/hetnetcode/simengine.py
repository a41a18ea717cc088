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

import math
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import rlnc
from .errors import ConfigError, NoPathError
from .rlnc import CodedPacket, DecoderState, RecodeBuffer, SourceBlock
from .routing import (
    ForwardPolicy,
    InterfaceSelector,
    RouteTable,
    UNREACHABLE,
    select_interfaces,
)
from .topology import HetNetTopology, TopologyParams, cellular_link_rate, declared_types

LOADING_MODES = ("equal-rate", "equal-time")

# Payload bytes a session carries: coefficients alone decide rank and timing,
# and 8 columns coded alike still catch a payload that disagrees with its
# coefficients in the decoded == source check, missing it w.p. 2^-64 per block.
CHECK_PAYLOAD_BYTES = 8


def _tupled(value):
    """value with every list or tuple in it, itself included, a tuple."""
    return tuple(map(_tupled, value)) if isinstance(value, (list, tuple)) else value


def config_from_dict(cls, values):
    """Validated dataclass cls from JSON-style values, the one reader of
    every config section: each key must be a field of cls.  A list for a
    tuple field becomes a tuple and an object for a dataclass field (a
    ForwardPolicy) becomes one; cls.validate() checks each value against
    the field's declared type, then the value itself."""
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} settings must be an object")
    declared = declared_types(cls)
    kwargs = {}
    for key, value in values.items():
        if key not in declared:
            raise ConfigError(f"unknown {cls.__name__} field {key!r}")
        kinds = declared[key][0]
        if isinstance(value, dict) and is_dataclass(kinds[0]):
            value = config_from_dict(kinds[0], value)
        elif tuple in kinds:
            value = _tupled(value)
        kwargs[key] = value
    config = cls(**kwargs)
    config.validate()
    return config


@dataclass
class ScenarioConfig(TopologyParams):
    """A session: the topology fields it inherits, whose r_cell is also the
    cell maximum of the loading model, and the session's own."""

    node_count: int = 750
    # coding
    block_size: int = 20  # M packets per block
    payload_bytes: int = 1400  # byte accounting only; sessions carry CHECK_PAYLOAD_BYTES
    buffer_capacity: int = 8  # N_buf at relays
    # rates, all in the same units as r_wifi
    r_wifi: float = 1.0
    link_rate_override: float | None = None  # pin the S-D cellular link rate
    users_per_cell: int = 1
    loading_mode: str = "equal-rate"
    # transport timing (slots)
    ack_delay: int = 1
    processing_delay: int = 0
    min_hops: int = 2
    slot_budget: int = 5000
    block_target: int = 3
    # forwarding
    relay_policy: ForwardPolicy = field(default_factory=ForwardPolicy)
    wifi_enabled: bool = True
    cellular_enabled: bool = True
    wired_relay_rate: float = 1.0  # wired forwards per slot a relay can process
    seed: int = 0

    @classmethod
    def from_dict(cls, values: dict) -> ScenarioConfig:
        return config_from_dict(cls, values)

    def validate(self):
        super().validate()
        if self.node_count < 2:
            raise ConfigError("need at least a source and a destination")
        if self.block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if self.payload_bytes < 1:
            raise ConfigError("payload_bytes must be >= 1")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if self.r_wifi <= 0:
            raise ConfigError("rates must be positive")
        if self.link_rate_override is not None and self.link_rate_override < 0:
            raise ConfigError("link_rate_override must be >= 0")
        if self.users_per_cell < 1:
            raise ConfigError("users_per_cell must be >= 1")
        if self.loading_mode not in LOADING_MODES:
            raise ConfigError(f"unknown loading mode {self.loading_mode!r}")
        if self.ack_delay < 0 or self.processing_delay < 0:
            raise ConfigError("delays must be >= 0")
        if self.slot_budget < 1:
            raise ConfigError("slot_budget must be >= 1")
        if self.block_target < 1:
            raise ConfigError("block_target must be >= 1")
        if self.wired_relay_rate <= 0:
            raise ConfigError("wired_relay_rate must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.relay_policy.validate()
        if not self.cellular_enabled and self.relay_policy.mode != "wifi-only":
            raise ConfigError(f"relay policy {self.relay_policy.mode!r} needs the "
                              "cellular interface, which is disabled")

    def topology_params(self) -> TopologyParams:
        return TopologyParams(**{f.name: getattr(self, f.name) for f in fields(TopologyParams)})


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
    blocks_delivered: int
    slots_elapsed: int
    wifi_sent: int
    cellular_sent: int
    wired_sent: int
    decode_slots: list[int]
    block_size: int
    payload_bytes: int
    r_wifi: float

    @property
    def relative_throughput(self) -> float:
        if self.slots_elapsed == 0:
            return 0.0
        return self.blocks_delivered * self.block_size / self.slots_elapsed

    @property
    def throughput(self) -> float:
        return self.relative_throughput * self.r_wifi

    @property
    def payload_bytes_delivered(self) -> int:
        return self.blocks_delivered * self.block_size * self.payload_bytes


def loaded_cellular_rate(link_rate: float, users: int, mode: str, cell_rate: float) -> float:
    """Per-user cellular rate once the cell serves `users` users.

    equal-rate divides the cell maximum cell_rate evenly, capped by the
    node's own supported rate; equal-time gives each user a 1/users time
    share of its own rate.
    """
    if users < 1:
        raise ConfigError("users must be >= 1")
    if mode == "equal-rate":
        return min(link_rate, cell_rate / users)
    if mode == "equal-time":
        return link_rate / users
    raise ConfigError(f"unknown loading mode {mode!r}")


def schedule_wifi_slot(pending_txs, topo: HetNetTopology, rng: np.random.Generator,
                       priorities=None):
    """Greedy maximal feasible subset of the pending (tx, rx) transmissions.

    Candidates are visited in order of the caller's priority keys (all equal
    if None), in random order within ties, and admitted iff the
    guard inequality holds in both directions against everything already
    admitted and neither endpoint is already busy (half-duplex radios).
    Every admitted pair therefore satisfies d(rx, k) >= (1+delta)*d(tx, rx)
    against every other admitted transmitter k.  Each pending pair must lie
    within WiFi range (LinkRangeError otherwise).
    """
    n = len(pending_txs)
    if n == 0:
        return []
    jitter = rng.random(n)
    if priorities is None:
        priorities = (0,) * n
    order = sorted(range(n), key=lambda i: (priorities[i], jitter[i]))
    admitted: list[tuple[int, int]] = []
    admitted_txs: list[int] = []
    busy: set[int] = set()
    for i in order:
        tx, rx = pending_txs[i][0], pending_txs[i][1]
        if tx in busy or rx in busy:
            continue
        if topo.protocol_model_ok(tx, rx, admitted_txs) and all(
                topo.protocol_model_ok(atx, arx, (tx,)) for atx, arx in admitted):
            admitted.append((tx, rx))
            admitted_txs.append(tx)
            busy.update((tx, rx))
    return admitted


def pick_session_pair(topo: HetNetTopology, routes: RouteTable, min_hops: int,
                      rng: np.random.Generator) -> tuple[int, int]:
    """Random S-D pair with a finite route of at least min_hops hops."""
    order = rng.permutation(len(topo))
    for s in order:
        dist = routes.distances_to(int(s))
        cand = np.nonzero((dist >= min_hops) & (dist < UNREACHABLE))[0]
        if cand.size:
            d = int(cand[rng.integers(0, cand.size)])
            return int(s), d
    raise NoPathError(f"no node pair at >= {min_hops} hops exists in this topology")


def session_rngs(seed: int) -> list[np.random.Generator]:
    """A session's independent streams, in order: S-D pair pick, cellular
    coefficients, source WiFi/wired draws, relay recodes and hop picks, radio
    scheduler, block payloads."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]


def pair_rng(seed: int) -> np.random.Generator:
    """The stream from which a session with this seed picks its S-D pair:
    session_rngs(seed)[0], without building the other five."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


class _Credit:
    """Fractional per-slot budget released as whole packets."""

    __slots__ = ("rate", "value", "limit")

    def __init__(self, rate: float, phase: float = 0.0):
        self.rate = rate
        self.limit = max(1.0, rate)
        self.value = phase

    def tick(self, slots: int = 1):
        self.value = min(self.limit, self.value + self.rate * slots)

    def take(self) -> bool:
        if self.value >= 1.0:
            self.value -= 1.0
            return True
        return False


class _Relay:
    __slots__ = ("buffer", "send_credit", "proc", "inbox", "selector", "cell_up")

    def __init__(self, capacity: int, wired_rate: float, phase: float,
                 selector: InterfaceSelector, cell_up: _Credit | None):
        self.buffer = RecodeBuffer(capacity)
        self.send_credit = 0  # one send permitted per received packet
        self.proc = _Credit(wired_rate, phase=phase)
        self.inbox: deque = deque()
        self.selector = selector
        self.cell_up = cell_up


class _Session:
    """Single-run state; drive via run_session()."""

    def __init__(self, config: ScenarioConfig, topo: HetNetTopology, routes: RouteTable,
                 pair: tuple[int, int] | None, schedule_log, no_skip: bool):
        config.validate()
        self.cfg = config
        self.topo = topo
        self.routes = routes
        self.schedule_log = schedule_log
        self.no_skip = no_skip

        (rng_pair, self.rng_cell, self.rng_wifi, self.rng_relay, self.rng_sched,
         self.rng_data) = session_rngs(config.seed)
        if pair is None:
            pair = pick_session_pair(topo, routes, config.min_hops, rng_pair)
        self.src, self.dst = int(pair[0]), int(pair[1])
        if self.src == self.dst:
            raise ConfigError("source and destination must differ")
        self.dist_to_dst = routes.distances_to(self.dst)

        # node rates scale with the session's cell maximum, not the topology's
        self.rate_scale = config.r_cell / topo.params.r_cell
        link = config.link_rate_override
        if link is None:
            link = cellular_link_rate(topo, self.src, self.dst) * self.rate_scale
        loaded = loaded_cellular_rate(link, config.users_per_cell,
                                      config.loading_mode, config.r_cell)
        pipe = loaded / config.r_wifi if config.cellular_enabled else 0.0
        self.cell_up = _Credit(pipe)
        self.cell_down = _Credit(pipe)
        self.cell_queue: deque = deque()

        self.wired_active = config.wifi_enabled and (
            len(topo.backbone) > 1 or (topo.wired is not None and bool(topo.wired.edges)))
        self.wifi_usable = config.wifi_enabled and self.dist_to_dst[self.src] < UNREACHABLE
        if not self.wifi_usable and pipe <= 0:
            raise NoPathError(
                f"destination {self.dst} unreachable from {self.src} on every interface")

        # wired budgets: one credit per undirected edge, per-node in/out caps,
        # and a shared bus budget for backbone hops
        spec = topo.wired
        self.edge_cap: dict[tuple[int, int], _Credit] = {}
        self._wired_credits: list[_Credit] = []
        self.node_out: dict[int, _Credit] = {}
        self.node_in: dict[int, _Credit] = {}
        if spec is not None:
            for u, v in spec.edges:
                credit = _Credit(spec.edge_capacity)
                self.edge_cap[(u, v)] = credit
                self.edge_cap[(v, u)] = credit
                self._wired_credits.append(credit)
            for nid, cap in spec.node_out.items():
                self.node_out[nid] = _Credit(cap)
                self._wired_credits.append(self.node_out[nid])
            for nid, cap in spec.node_in.items():
                self.node_in[nid] = _Credit(cap)
                self._wired_credits.append(self.node_in[nid])
        self.bus: _Credit | None = None
        if topo.backbone:
            self.bus = _Credit(config.backbone_rate / config.r_wifi)
            self._wired_credits.append(self.bus)
        # session caches, fixed once filled because the routes and the
        # destination are: each node's wired hops with their credits and
        # its WiFi next hops, looked up on first use
        self._wired_hops: dict[int, list] = {}
        self._wifi_hops: dict[int, list[int]] = {}

        # transport state
        self.block_id = 0
        self.block = self._make_block(0)
        self.expected_block = 0
        self.decoder = DecoderState(0, config.block_size)
        self.ack_slot: int | None = None  # slot from which the source may advance
        self.blocks_delivered = 0
        self.decode_slots: list[int] = []

        self.relays: dict[int, _Relay] = {}
        # relay ids ascending, rebuilt when a relay is created; a loop keeps
        # the tuple it started with, so a relay made during it waits a slot
        self.relay_order: tuple[int, ...] = ()
        self.trace = EventTrace()
        self.sent = {"wifi": 0, "cellular": 0, "wired": 0}
        self.slot = 0
        self.relay_cellular = config.relay_policy.mode != "wifi-only"

    # -- small helpers -----------------------------------------------------

    def _make_block(self, block_id: int) -> SourceBlock:
        data = self.rng_data.integers(0, 256, size=(self.cfg.block_size, CHECK_PAYLOAD_BYTES),
                                      dtype=np.uint8)
        return SourceBlock(block_id, data)

    def _relay(self, node: int) -> _Relay:
        r = self.relays.get(node)
        if r is None:
            cfg = self.cfg
            phase = (node * cfg.wired_relay_rate) % 1.0
            selector = InterfaceSelector(cfg.relay_policy, rng=self.rng_relay)
            cell_up = None
            if self.relay_cellular:
                up = loaded_cellular_rate(float(self.topo.cellular_rates[node]) * self.rate_scale,
                                          cfg.users_per_cell, cfg.loading_mode, cfg.r_cell)
                cell_up = _Credit(up / cfg.r_wifi)
            r = _Relay(cfg.buffer_capacity, cfg.wired_relay_rate, phase, selector, cell_up)
            self.relays[node] = r
            self.relay_order = tuple(sorted(self.relays))
        return r

    def _can_send(self, node: int) -> bool:
        """The source always can; a relay needs a send credit and a packet."""
        if node == self.src:
            return True
        relay = self.relays[node]
        return relay.send_credit >= 1 and bool(relay.buffer.packets)

    def _rng(self, node: int) -> np.random.Generator:
        """The stream of node's WiFi and wired draws: hop picks and packets."""
        return self.rng_wifi if node == self.src else self.rng_relay

    def _emit(self, node: int, interface: str) -> CodedPacket:
        """A fresh coded packet that node sends on interface: an encode at the
        source (cellular coefficients have their own stream), or a recode at
        a relay, which spends one send credit."""
        self.sent[interface] += 1
        if node == self.src:
            rng = self.rng_cell if interface == "cellular" else self.rng_wifi
            return rlnc.encode(self.block, rng)
        relay = self.relays[node]
        relay.send_credit -= 1
        return rlnc.recode(relay.buffer, self.rng_relay)

    def _land(self, rx: int, packet: CodedPacket, interface: str):
        """packet arrives at rx over interface: a relay ingests it after the
        processing delay, the destination's decoder consumes it now."""
        if rx != self.dst:
            self._relay(rx).inbox.append((self.slot + 1 + self.cfg.processing_delay, packet))
            return
        # under stop-and-wait no packet is newer than the decoder's block,
        # and older (stale) ones are discarded
        innovative = packet.block_id == self.expected_block and self.decoder.receive(packet)
        self.trace.append(TraceEvent(self.slot, self.dst, interface,
                                     packet.block_id, innovative))
        if self.decoder.rank == self.cfg.block_size:
            decoded = self.decoder.decode()
            if not np.array_equal(decoded.packets, self.block.packets):
                raise AssertionError("decoded block does not match the source block")
            self.blocks_delivered += 1
            self.decode_slots.append(self.slot)
            self.ack_slot = self.slot + 1 + self.cfg.ack_delay
            self.expected_block = (self.expected_block + 1) % rlnc.BLOCK_ID_MODULUS
            self.decoder = DecoderState(self.expected_block, self.cfg.block_size)

    # -- per-slot phases ----------------------------------------------------

    def _maybe_advance_source(self):
        if self.ack_slot is not None and self.slot >= self.ack_slot:
            self.ack_slot = None
            self.block_id = (self.block_id + 1) % rlnc.BLOCK_ID_MODULUS
            self.block = self._make_block(self.block_id)

    def _ingest_relays(self):
        for node in self.relay_order:
            relay = self.relays[node]
            while relay.inbox and relay.inbox[0][0] <= self.slot:
                _, packet = relay.inbox.popleft()
                if relay.buffer.offer(packet):
                    relay.send_credit = min(self.cfg.buffer_capacity,
                                            relay.send_credit + 1)

    def _cellular_phase(self) -> dict:
        """Cellular sends and arrivals.  Returns the relays planned onto the
        radio, in id order, each mapped to the packet it already sent on
        cellular under the duplicate schedule, else to None."""
        if self.cell_up.rate > 0:
            self.cell_up.tick()
            self.cell_down.tick()
            # like the wired flood, at most one block's worth per slot
            for _ in range(self.cfg.block_size):
                if not self.cell_up.take():
                    break
                self.cell_queue.append(self._emit(self.src, "cellular"))
        if not self.relay_cellular:
            radio = dict.fromkeys(self.relay_order)
        else:
            # every relay picks its interfaces before any relay recodes
            plans = [(node, select_interfaces(self.relays[node].selector))
                     for node in self.relay_order if self._can_send(node)]
            radio = {}
            for node, ifaces in plans:
                pkt = None
                if "cellular" in ifaces:
                    cell_up = self.relays[node].cell_up
                    cell_up.tick()
                    if cell_up.take():
                        pkt = self._emit(node, "cellular")
                        self.cell_queue.append(pkt)
                if "wifi" in ifaces:
                    radio[node] = pkt
        while self.cell_queue and self.cell_down.take():
            self._land(self.dst, self.cell_queue.popleft(), "cellular")
        return radio

    def _wired_pick(self, u: int) -> int | None:
        """A random wired next hop v of u whose send credits all hold a
        packet, with those credits spent; None if no hop can take one now.
        A u->v send spends its edge (else the bus), u's out budget and v's
        in budget; the hops and their credits are looked up once per u."""
        hops = self._wired_hops.get(u)
        if hops is None:
            hops = self._wired_hops[u] = [
                (v, tuple(c for c in (self.edge_cap.get((u, v), self.bus),
                                      self.node_out.get(u), self.node_in.get(v))
                          if c is not None))
                for v in self.routes.next_hops(u, self.dst, "wired")]
        # all() over a list: for a few credits it beats a generator
        targets = [(v, cost) for v, cost in hops if all([c.value >= 1.0 for c in cost])]
        if not targets:
            return None
        v, cost = targets[int(self._rng(u).integers(0, len(targets)))]
        for c in cost:
            c.value -= 1.0
        return v

    def _wired_phase(self):
        if not self.wired_active:
            return
        for credit in self._wired_credits:
            credit.tick()
        # the source floods up to one block's worth per slot; relays are
        # bounded by their processing rate and their send credit
        for _ in range(self.cfg.block_size):
            v = self._wired_pick(self.src)
            if v is None:
                break
            self._land(v, self._emit(self.src, "wired"), "wired")
        for node in self.relay_order:
            relay = self.relays[node]
            relay.proc.tick()
            while self._can_send(node) and relay.proc.value >= 1.0:
                v = self._wired_pick(node)
                if v is None:
                    break
                relay.proc.value -= 1.0
                self._land(v, self._emit(node, "wired"), "wired")

    def _radio_phase(self, radio: dict):
        if not self.cfg.wifi_enabled:
            return
        if self.wifi_usable:
            radio[self.src] = None  # the source picks its hop after the relays
        pending = []  # (tx, rx), each tx mapped in radio to its duplicate or None
        for node, dup_pkt in radio.items():
            if dup_pkt is None and not self._can_send(node):
                continue
            cand = self._wifi_hops.get(node)
            if cand is None:
                cand = self._wifi_hops[node] = self.routes.next_hops(node, self.dst, "wifi")
            if cand:
                pending.append((node, cand[int(self._rng(node).integers(0, len(cand)))]))
        if not pending:
            return
        admitted = schedule_wifi_slot(pending, self.topo, self.rng_sched,
                                      [self.dist_to_dst[tx] for tx, _ in pending])
        if self.schedule_log is not None and admitted:
            self.schedule_log.append((self.slot, list(admitted)))
        for tx, rx in admitted:
            pkt = radio[tx]
            if pkt is None:
                pkt = self._emit(tx, "wifi")
            else:  # the packet tx also sent on cellular
                self.sent["wifi"] += 1
            self._land(rx, pkt, "wifi")

    # -- fast path for cellular-only runs ------------------------------------

    def _fast_forwardable(self) -> bool:
        return not self.wifi_usable and not self.wired_active

    def _skip_ahead(self, budget: int):
        """Jump over slots in which nothing can happen (pure cellular pipe)."""
        steps = []
        if self.cell_up.rate > 0:
            lacking = max(0.0, 1.0 - self.cell_up.value)
            steps.append(math.ceil(lacking / self.cell_up.rate))
        if self.ack_slot is not None:
            steps.append(self.ack_slot - self.slot)
        if not steps:
            self.slot = budget
            return
        skipped = min(max(1, min(steps)) - 1, budget - self.slot - 1)
        if skipped > 0:
            self.cell_up.tick(skipped)
            self.cell_down.tick(skipped)
            self.slot += skipped

    # -- main loop -----------------------------------------------------------

    def run(self) -> tuple[SessionStats, EventTrace]:
        budget = self.cfg.slot_budget
        fast = (not self.no_skip) and self._fast_forwardable()
        while self.slot < budget and self.blocks_delivered < self.cfg.block_target:
            if fast:
                self._skip_ahead(budget)
            self.slot += 1
            self._maybe_advance_source()
            self._ingest_relays()
            radio = self._cellular_phase()
            self._wired_phase()
            self._radio_phase(radio)
        elapsed = self.decode_slots[-1] if self.decode_slots else budget
        stats = SessionStats(
            source=self.src,
            destination=self.dst,
            blocks_delivered=self.blocks_delivered,
            slots_elapsed=elapsed,
            wifi_sent=self.sent["wifi"],
            cellular_sent=self.sent["cellular"],
            wired_sent=self.sent["wired"],
            decode_slots=self.decode_slots,
            block_size=self.cfg.block_size,
            payload_bytes=self.cfg.payload_bytes,
            r_wifi=self.cfg.r_wifi,
        )
        return stats, self.trace


def run_session(config: ScenarioConfig, topo: HetNetTopology, routes: RouteTable,
                pair: tuple[int, int] | None = None, schedule_log=None,
                no_skip: bool = False) -> tuple[SessionStats, EventTrace]:
    """Simulate one S-D session; deterministic in (config, topology, routes)."""
    return _Session(config, topo, routes, pair, schedule_log, no_skip).run()


def compare_modes(config: ScenarioConfig, topo: HetNetTopology, routes: RouteTable,
                  pair: tuple[int, int] | None = None) -> tuple[SessionStats, SessionStats]:
    """(cellular-only, combined) stats of two sessions with the same seed on
    the same topology; both pick the same pair when none is given."""
    cellular_only, _ = run_session(replace(config, wifi_enabled=False, cellular_enabled=True),
                                   topo, routes, pair=pair)
    combined, _ = run_session(replace(config, cellular_enabled=True), topo, routes, pair=pair)
    return cellular_only, combined
