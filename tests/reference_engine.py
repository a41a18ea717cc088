"""A reference session engine: simengine's slot semantics, steps (a)-(d) of
its module docstring, as one plain loop over every slot.

It shares the topology's arrays and the engine's result types with the
engine, and nothing else: its codec, relay rings, decoder, routes and draws
are the references of oracles.py, none of which reads hetnetcode.gf256,
hetnetcode.rlnc, hetnetcode.routing or a route table.
- A packet is a (block id, [coefficients | payload] row) pair, the row a
  list of ints; a source block is its [unit vector | payload] rows.
- An encode or a recode is oracles.weighted_row_sum of the block's rows, or
  of a relay's ring oldest first, with weights from
  oracles.random_nonzero_vector: numpy's uint8 draw, the bytes the engine's
  Generator.bytes draw gives, so every draw lands where the engine's does.
- A relay's ring is a list under the block-id rule, written out.
- The destination keeps the rows of the live block's innovative arrivals:
  an arrival is innovative iff oracles.rank grows, and at full rank
  oracles.solve must give back the block's payload.
- Hop distances are oracles.bfs over oracles.adjacency, the bus as a clique.
It keeps no caches and skips no slot, scans each node's neighbours for its
next hops in every slot, admits radio transmissions under
oracles.brute_force_guard_ok, and makes every hop pick, interface choice
and scheduler draw with numpy's own Generator methods, on the six streams
of oracles.session_rngs in the engine's order.  run() returns what
simengine.run_session returns, and the schedule log.
"""

from __future__ import annotations

import numpy as np

from hetnetcode.simengine import CHECK_PAYLOAD_BYTES, EventTrace, SessionStats, TraceEvent
from oracles import (
    INF,
    adjacency,
    bfs,
    brute_force_guard_ok,
    links,
    loaded_rate,
    random_nonzero_vector,
    rank,
    session_pair,
    session_rngs,
    solve,
    weighted_row_sum,
)

BLOCK_IDS = 1 << 16


class Credit:
    """Per-slot budget: each tick adds rate, clipped at max(1, rate)."""

    def __init__(self, rate, value=0.0):
        self.rate, self.limit, self.value = rate, max(1.0, rate), value

    def tick(self):
        self.value = min(self.limit, self.value + self.rate)

    def take(self):
        if self.value >= 1.0:
            self.value -= 1.0
            return True
        return False


class Relay:
    def __init__(self, cfg, cell_rate, node):
        self.block_id, self.ring, self.capacity = None, [], cfg.buffer_capacity
        self.send_credit, self.inbox, self.round_robin = 0, [], 0  # inbox: (slot due, packet)
        self.proc = Credit(cfg.wired_relay_rate, (node * cfg.wired_relay_rate) % 1.0)
        self.cell_up = Credit(loaded_rate(cfg, cell_rate))

    def offer(self, packet):
        """Keep the packet's row, the oldest dropped past capacity; a newer
        block empties the ring, and a stale packet is refused (False)."""
        block_id, row = packet
        # a newer block id is less than half the id space ahead, mod 2^16
        if self.block_id is None or 0 < (block_id - self.block_id) % BLOCK_IDS < BLOCK_IDS // 2:
            self.block_id, self.ring = block_id, []
        elif block_id != self.block_id:
            return False
        self.ring = (self.ring + [row])[-self.capacity:]
        return True


class ReferenceSession:
    def __init__(self, cfg, topo, pair=None):
        self.cfg, self.topo = cfg, topo
        (rng_pair, self.rng_cell, self.rng_wifi, self.rng_relay, self.rng_sched,
         self.rng_data) = session_rngs(cfg.seed)
        if pair is None:
            pair = session_pair(topo, cfg.min_hops, rng_pair)
            assert pair is not None, "no pair: the engine should have raised NoPathError"
        self.src, self.dst = pair
        self.wifi, self.wired = adjacency(topo)
        self.dist = bfs(links(topo), self.dst)
        self.rate_scale = cfg.r_cell / topo.params.r_cell
        link = cfg.link_rate_override
        if link is None:
            link = min(topo.cellular_rates[[self.src, self.dst]]) * self.rate_scale
        pipe = loaded_rate(cfg, float(link)) if cfg.cellular_enabled else 0.0
        self.cell_up, self.cell_down, self.cell_queue = Credit(pipe), Credit(pipe), []
        spec = topo.wired
        self.wired_active = cfg.wifi_enabled and (len(topo.backbone) > 1 or bool(spec.edges))
        self.edge = {}
        for u, v in spec.edges:
            self.edge[u, v] = self.edge[v, u] = Credit(spec.edge_capacity)
        self.out = {u: Credit(cap) for u, cap in spec.node_out.items()}
        self.into = {v: Credit(cap) for v, cap in spec.node_in.items()}
        self.bus = Credit(cfg.backbone_rate) if topo.backbone else None
        self.wired_credits = [*{id(c): c for c in self.edge.values()}.values(),
                              *self.out.values(), *self.into.values(), self.bus]
        self.block_id, self.expected, self.ack_slot = 0, 0, None
        self.block = self.make_block()
        self.kept = []  # the rows of the live block's innovative arrivals
        self.relays, self.trace, self.schedule_log, self.decode_slots = {}, EventTrace(), [], []
        self.sent, self.slot = {"wifi": 0, "cellular": 0, "wired": 0}, 0

    def make_block(self):
        """The [unit vector | payload] rows of a fresh block."""
        m = self.cfg.block_size
        data = self.rng_data.integers(0, 256, size=(m, CHECK_PAYLOAD_BYTES), dtype=np.uint8)
        return np.hstack([np.eye(m, dtype=np.uint8), data]).tolist()

    def next_hops(self, u, wired):
        """Nodes one hop closer to the destination, ascending: over WiFi, or
        over the wired links and the bus."""
        peers = (self.wired if wired else self.wifi)[u]
        return sorted(v for v in peers if self.dist[u] < INF and self.dist[v] == self.dist[u] - 1)

    def can_send(self, node):
        relay = self.relays.get(node)
        return node == self.src or (relay.send_credit >= 1 and len(relay.ring) > 0)

    def emit(self, node, interface):
        """A fresh combination: of the block's rows at the source, else of a
        relay's ring for one send credit."""
        self.sent[interface] += 1
        if node == self.src:
            block_id, rows = self.block_id, self.block
            rng = self.rng_cell if interface == "cellular" else self.rng_wifi
        else:
            relay = self.relays[node]
            relay.send_credit -= 1
            block_id, rows, rng = relay.block_id, relay.ring, self.rng_relay
        weights = random_nonzero_vector(len(rows), rng).tolist()
        return block_id, weighted_row_sum(weights, rows, len(rows[0]))

    def land(self, rx, packet, interface):
        cfg = self.cfg
        if rx != self.dst:
            if rx not in self.relays:
                self.relays[rx] = Relay(cfg, self.topo.cellular_rates[rx] * self.rate_scale, rx)
            self.relays[rx].inbox.append((self.slot + 1 + cfg.processing_delay, packet))
            return
        (block_id, row), m = packet, cfg.block_size
        innovative = (block_id == self.expected
                      and rank([r[:m] for r in self.kept + [row]]) > len(self.kept))
        if innovative:
            self.kept.append(row)
        self.trace.append(TraceEvent(self.slot, self.dst, interface, block_id, innovative))
        if len(self.kept) == m:
            decoded = solve([r[:m] for r in self.kept], [r[m:] for r in self.kept])
            assert decoded == [r[m:] for r in self.block]
            self.decode_slots.append(self.slot)
            self.ack_slot = self.slot + 1 + cfg.ack_delay
            self.expected = (self.expected + 1) % BLOCK_IDS
            self.kept = []

    def interfaces(self, relay):
        policy = self.cfg.relay_policy
        if policy.endswith("-only"):
            return {policy.removesuffix("-only")}
        if policy == "duplicate":
            return {"wifi", "cellular"}
        if policy == "round-robin":
            relay.round_robin += 1
            return {"wifi"} if relay.round_robin % 2 else {"cellular"}
        return {"cellular"} if self.rng_relay.random() < self.cfg.relay_p else {"wifi"}

    def cellular_step(self):
        """(a): the source's pipe, then the relays' uplinks; returns the
        relays that go on to the radio step, each with the packet it also
        sent on cellular, else None."""
        if self.cell_up.rate > 0:
            self.cell_up.tick()
            self.cell_down.tick()
            for _ in range(self.cfg.block_size):
                if not self.cell_up.take():
                    break
                self.cell_queue.append(self.emit(self.src, "cellular"))
        if self.cfg.relay_policy == "wifi-only":
            radio = [(node, None) for node in sorted(self.relays)]
        else:
            radio = []
            plans = [(n, self.interfaces(self.relays[n])) for n in sorted(self.relays)
                     if self.can_send(n)]
            for node, interfaces in plans:
                packet = None
                if "cellular" in interfaces:
                    self.relays[node].cell_up.tick()
                    if self.relays[node].cell_up.take():
                        packet = self.emit(node, "cellular")
                        self.cell_queue.append(packet)
                if "wifi" in interfaces:
                    radio.append((node, packet))
        while self.cell_queue and self.cell_down.take():
            self.land(self.dst, self.cell_queue.pop(0), "cellular")
        return radio

    def wired_send(self, u, rng):
        """A u->v send over a random wired next hop whose edge (else the
        bus), u's out budget and v's in budget all hold a packet."""
        options = []
        for v in self.next_hops(u, wired=True):
            cost = [c for c in (self.edge.get((u, v), self.bus), self.out.get(u),
                                self.into.get(v)) if c is not None]
            if all(c.value >= 1.0 for c in cost):
                options.append((v, cost))
        if not options:
            return None
        v, cost = options[rng.integers(0, len(options))]
        for c in cost:
            c.value -= 1.0
        return v

    def wired_step(self):
        """(b): the source floods up to a block per slot, then each relay
        forwards within its processing rate and send credit."""
        for credit in filter(None, self.wired_credits):
            credit.tick()
        for _ in range(self.cfg.block_size):
            v = self.wired_send(self.src, self.rng_wifi)
            if v is None:
                break
            self.land(v, self.emit(self.src, "wired"), "wired")
        for node in sorted(self.relays):
            relay = self.relays[node]
            relay.proc.tick()
            while self.can_send(node) and relay.proc.value >= 1.0:
                v = self.wired_send(node, self.rng_relay)
                if v is None:
                    break
                relay.proc.value -= 1.0
                self.land(v, self.emit(node, "wired"), "wired")

    def radio_step(self, radio):
        """(c): one random next hop per transmitter that can send, relays in
        id order and then the source; a greedy feasible set fires, nearest
        the destination first."""
        if self.dist[self.src] < INF:
            radio.append((self.src, None))
        pending = []
        for node, packet in radio:
            hops = self.next_hops(node, wired=False)
            if hops and (packet is not None or self.can_send(node)):
                rng = self.rng_wifi if node == self.src else self.rng_relay
                pending.append((node, hops[rng.integers(0, len(hops))]))
        if not pending:
            return
        jitter = self.rng_sched.random(len(pending))
        admitted = []
        for i in sorted(range(len(pending)), key=lambda i: (self.dist[pending[i][0]], jitter[i])):
            busy = {node for pair in admitted for node in pair}
            if busy.isdisjoint(pending[i]) and brute_force_guard_ok(self.topo,
                                                                    admitted + [pending[i]]):
                admitted.append(pending[i])
        if admitted:
            self.schedule_log.append((self.slot, admitted))
        duplicates = dict(radio)
        for tx, rx in admitted:  # a relay's cellular duplicate, else a fresh packet
            if duplicates[tx] is not None:
                self.sent["wifi"] += 1
            self.land(rx, duplicates[tx] or self.emit(tx, "wifi"), "wifi")

    def run(self):
        cfg = self.cfg
        while self.slot < cfg.slot_budget and len(self.decode_slots) < cfg.block_target:
            self.slot += 1
            if self.ack_slot is not None and self.slot >= self.ack_slot:
                self.ack_slot = None
                self.block_id = (self.block_id + 1) % BLOCK_IDS
                self.block = self.make_block()
            for node in sorted(self.relays):  # arrivals due by this slot
                relay = self.relays[node]
                while relay.inbox and relay.inbox[0][0] <= self.slot:
                    if relay.offer(relay.inbox.pop(0)[1]):
                        relay.send_credit = min(cfg.buffer_capacity, relay.send_credit + 1)
            radio = self.cellular_step()
            if self.wired_active:
                self.wired_step()
            if cfg.wifi_enabled:
                self.radio_step(radio)
        stats = SessionStats(
            self.src, self.dst,
            self.decode_slots[-1] if self.decode_slots else cfg.slot_budget, self.sent["wifi"],
            self.sent["cellular"], self.sent["wired"], self.decode_slots, cfg.block_size)
        return stats, self.trace, self.schedule_log
