"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria with trend
assertions average 50 seeded trials; everything here is deterministic.
"""

import io
import math
import time

import numpy as np
import pytest

import oracles
from hetnetcode import gf256, presets, rlnc, topology
from hetnetcode.config import ScenarioConfig, SweepSpec, TopologyParams
from hetnetcode.presets import (
    TOPO2_RELAY_RATE,
    format_rows,
    preset_infra_sweep,
    preset_load_sweep,
    preset_rate_sweep,
    preset_topo2,
)
from hetnetcode.simengine import Draws, NoPathError, _raw_blocks, run_session

RATE_RATIOS = (0.1, 0.5, 1.0, 2.0)
TRIALS = 50


def report(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# --------------------------------------------------------------------------


def test_criterion_01_field_correctness():
    start = time.perf_counter()
    # shift-and-reduce long multiplication, vectorized over the whole grid
    elements = np.arange(256)
    prod = oracles.gf_mul(elements[:, None], elements[None, :])
    mul_mismatches = int((prod != gf256.MUL_TABLE).sum())
    add_ok = True  # addition is XOR by construction; spot the axioms anyway
    grid = np.arange(256, dtype=np.uint8)
    add_ok &= bool(np.all((grid[:, None] ^ grid[None, :]) == (grid[None, :] ^ grid[:, None])))
    add_ok &= bool(np.all((grid ^ grid) == 0))
    inv_bad = sum(1 for x in range(1, 256) if oracles.gf_mul(x, int(gf256.INV_TABLE[x])) != 1)
    elapsed = time.perf_counter() - start
    ok = mul_mismatches == 0 and inv_bad == 0 and add_ok and elapsed < 1.0
    report(1, "field correctness", ok,
           f"mul mismatches={mul_mismatches}, bad inverses={inv_bad}, {elapsed:.3f}s")


def test_criterion_02_codec_round_trip():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    failures = 0
    for bi in range(1000):
        block = rlnc.SourceBlock(bi % 65536,
                                 rng.integers(0, 256, size=(20, 1400), dtype=np.uint8))
        packets = [rlnc.encode(block, rng) for _ in range(26)]
        for _ in range(bi % 4):  # 0-3 layers of recoding
            buf = rlnc.RecodeBuffer(8)
            out = []
            for p in packets:
                buf.offer(p)
                out.append(rlnc.recode(buf, rng))
            packets = out
        rng.shuffle(packets)
        dec = rlnc.DecoderState(block.block_id, 20)
        for p in packets:
            if dec.rank < 20:
                dec.receive(p)
        if dec.rank < 20 or not np.array_equal(dec.decode().packets, block.packets):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    report(2, "codec round trip", ok, f"failures={failures}/1000, {elapsed:.2f}s")


def test_criterion_03_full_rank_probability():
    # the test owns this stream, so a Draws serves it: the same values as
    # default_rng(3)'s (bytes(20) is its integers(0, 256, (20, 1), uint8)), drawn faster
    rng = Draws(_raw_blocks(np.random.PCG64(3)))
    block = rlnc.SourceBlock(0, np.frombuffer(rng.bytes(20), np.uint8).reshape(20, 1))
    trials = 10_000
    full = 0
    for _ in range(trials):
        dec = rlnc.DecoderState(0, 20)
        got_all = True
        for _ in range(20):
            if not dec.receive(rlnc.encode(block, rng)):
                got_all = False
                break
        full += got_all
    frac = full / trials
    theory = math.prod(1.0 - 256.0 ** -i for i in range(1, 21))
    ok = frac >= 0.99 and abs(frac - theory) <= 0.005
    report(3, "full-rank probability", ok,
           f"measured={frac:.4f}, theory={theory:.4f}")


def test_criterion_04_header_overhead():
    got = rlnc.header_overhead(20, 1400)
    ok = abs(got - 1.428) <= 0.001
    report(4, "coding header overhead", ok, f"{got:.4f}% vs 1.428%")


def test_criterion_05_protocol_model_soundness():
    rng = np.random.default_rng(5)
    params = TopologyParams(cell_radius=150.0)
    checked = 0
    violations = 0
    sessions = 0
    for t in range(100):
        topo = topology.generate(10, np.random.default_rng(np.random.SeedSequence((5, t))),
                                 params)
        cfg = ScenarioConfig(node_count=10, cellular_enabled=False, min_hops=1,
                             block_target=2, slot_budget=300, seed=t)
        log = []
        try:
            run_session(cfg, topo, schedule_log=log)
        except NoPathError:
            continue  # no WiFi pair in this draw; topology still counts
        sessions += 1
        for _, admitted in log:
            checked += 1
            for i, (tx, rx) in enumerate(admitted):
                link = topo.distance(tx, rx)
                for j, (otx, orx) in enumerate(admitted):
                    if i == j or otx in (tx, rx):
                        continue
                    if topo.distance(rx, otx) < (1 + topo.params.delta) * link:
                        violations += 1
    ok = violations == 0 and checked > 500 and sessions > 50
    report(5, "protocol-model soundness", ok,
           f"{checked} admitted sets over {sessions} sessions, {violations} violations")


@pytest.fixture(scope="module")
def rate_sweep_rows():
    spec = SweepSpec(values=RATE_RATIOS, trials=TRIALS, seed=0)
    header, rows = preset_rate_sweep(spec)
    return rows


def test_criterion_06_rate_trend(rate_sweep_rows):
    start = time.perf_counter()
    by_ratio = {r[0]: r for r in rate_sweep_rows}
    dominance = all(comb >= cell for _, cell, comb, _ in rate_sweep_rows)
    gain_low = by_ratio[0.1][2] / by_ratio[0.1][1]
    gain_high = by_ratio[2.0][2] / by_ratio[2.0][1]
    elapsed = time.perf_counter() - start
    ok = dominance and gain_low >= 2.0 * gain_high
    report(6, "rate-ratio trend", ok,
           f"dominance={dominance}, gain@0.1={gain_low:.2f}, gain@2.0={gain_high:.2f}, "
           f"{TRIALS} seeds")


def test_criterion_07_loading_trend():
    spec = SweepSpec(values=(1, 2, 4, 8, 16, 32), trials=TRIALS, seed=0)
    _, rows = preset_load_sweep(spec)
    users = np.array([r[0] for r in rows], dtype=float)
    cell = np.array([r[1] for r in rows])
    comb = np.array([r[2] for r in rows])
    c_fit = (cell / users).sum() / (1.0 / users ** 2).sum()
    pred = c_fit / users
    r2 = 1.0 - ((cell - pred) ** 2).sum() / ((cell - cell.mean()) ** 2).sum()
    ratio32 = comb[-1] / cell[-1]
    ok = r2 > 0.99 and ratio32 >= 3.0
    report(7, "loading trend", ok, f"1/U fit R2={r2:.5f}, combined/cellular@U=32={ratio32:.1f}x")


def test_criterion_08_infrastructure_trend(rate_sweep_rows):
    spec = SweepSpec(trials=TRIALS, seed=0)
    _, rows = preset_infra_sweep(spec)
    vals = [v for _, v in rows]
    pairs = list(zip(vals, vals[1:]))
    decreases = sum(1 for a, b in pairs if b < a - 1e-12)
    frac_bad = decreases / len(pairs)
    adhoc = next(r[2] for r in rate_sweep_rows if r[0] == 0.1)  # combined at ratio 0.1
    plateau = vals[0]
    plateau_err = abs(plateau - adhoc) / adhoc
    ok = frac_bad <= 0.05 and plateau_err <= 0.10
    report(8, "infrastructure k/n trend", ok,
           f"adjacent decreases={decreases}/{len(pairs)}, plateau={plateau:.3f} "
           f"vs ad-hoc={adhoc:.3f} ({plateau_err:.1%})")


def test_criterion_09_relay_scaling_trend(monkeypatch):
    monkeypatch.setattr(presets, "TOPO2_RATES", (54,))
    spec = SweepSpec(values=(1, 2, 3, 4, 5, 6), trials=5, seed=0)
    _, rows = preset_topo2(spec)
    n = np.array([r[1] for r in rows], dtype=float)
    tput = np.array([r[2] for r in rows])
    slope, intercept = np.polyfit(n, tput, 1)
    pred = slope * n + intercept
    r2 = 1.0 - ((tput - pred) ** 2).sum() / ((tput - tput.mean()) ** 2).sum()
    doubling = tput[3] / tput[1]
    ok = slope > 0 and r2 > 0.95 and 1.8 <= doubling <= 2.2
    report(9, "relay-count scaling", ok,
           f"slope={slope:.4f}, R2={r2:.4f}, x2 ratio N2->N4={doubling:.2f}")


def test_criterion_10_stale_block_transitions():
    topo = topology.relay_star_topology(3, link_capacity=1.0)
    cfg = ScenarioConfig(node_count=5, cellular_enabled=False, min_hops=2, ack_delay=1,
                         wired_relay_rate=TOPO2_RELAY_RATE, block_target=4,
                         slot_budget=8000, seed=0)
    stats, trace = run_session(cfg, topo, pair=(0, 4))
    transitions_with_stale = 0
    innovative_ok = True
    for b, decode_slot in enumerate(stats.decode_slots[:-1]):
        stale = [ev for ev in trace
                 if ev.block_id == b and not ev.innovative and ev.slot > decode_slot]
        transitions_with_stale += bool(stale)
        innovative_ok &= sum(
            1 for ev in trace if ev.block_id == b + 1 and ev.innovative) == 20
    innovative_ok &= sum(1 for ev in trace if ev.block_id == 0 and ev.innovative) == 20
    n_transitions = stats.blocks_delivered - 1
    ok = (stats.blocks_delivered == 4
          and transitions_with_stale == n_transitions
          and innovative_ok)
    report(10, "stale-block transitions", ok,
           f"{transitions_with_stale}/{n_transitions} transitions show stale discards, "
           f"20 innovative per block={innovative_ok}")


def test_criterion_11_determinism(monkeypatch):
    small = {"node_count": 250, "cell_radius": 400.0}
    rate_spec = SweepSpec(values=(0.5,), trials=3, seed=42, scenario=small)
    a = format_rows(*preset_rate_sweep(rate_spec))
    b = format_rows(*preset_rate_sweep(rate_spec))
    monkeypatch.setattr(presets, "TOPO2_RATES", (54,))
    topo_spec = SweepSpec(values=(2,), trials=2, seed=42)
    c = format_rows(*preset_topo2(topo_spec))
    d = format_rows(*preset_topo2(topo_spec))
    # and a full CLI round trip through the trace writer
    topo = topology.chain_topology(3)
    cfg = ScenarioConfig(node_count=4, min_hops=3, link_rate_override=0.4, seed=7,
                         block_target=2, slot_budget=600)
    bufs = []
    for _ in range(2):
        _, trace = run_session(cfg, topo, pair=(0, 3))
        out = io.StringIO()
        trace.write_csv(out)
        bufs.append(out.getvalue())
    ok = a == b and c == d and bufs[0] == bufs[1]
    report(11, "byte-identical reruns", ok,
           f"rate-sweep={'=' if a == b else '!='}, topo2={'=' if c == d else '!='}, "
           f"trace={'=' if bufs[0] == bufs[1] else '!='}")
