"""Mutation harness: each mutant plants one named fault in a copy of src/,
and its oracle tests must fail against that copy.

    python tests/mutants.py            # the control run, then every mutant
    python tests/mutants.py early-ack  # the control run, then the named ones

pytest does not collect this file.  For each mutant the harness copies src/
to a temporary directory, checks that the mutant's old text occurs exactly
once in its file there (so a refactor that moves the code fails the harness
instead of letting the mutant pass unplanted), applies the mutant and runs
its oracle tests with -x and PYTHONPATH at the copy, under the hypothesis
profile "mutants" of tests/conftest.py: no example database and derandomized
generation, so a verdict does not depend on what earlier runs left in
.hypothesis/.  A mutant is killed when those tests fail.  One control run of
every oracle test on an unmutated copy must pass.  Exit status 0 when the
control passes and every mutant is killed, 1 otherwise.

No oracle may be a test of tests/test_golden.py: its golden files catch any
fault that moves a byte, and the point is that an independent check catches
this one.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = "hetnetcode/simengine.py"
GF256 = "hetnetcode/gf256.py"
REFERENCE = "tests/test_reference_engine.py"
CELLULAR_ENCODES = ("tests/test_simengine.py::"
                    "test_cellular_packets_are_the_encodes_of_the_cellular_stream")
REJECTED = "tests/test_rejected_inputs.py::test_rejected_input_exits_2_as_a_config_error[{}]"

# (name, file under src/, exact old text, new text, oracle tests)
MUTANTS = [
    ("tick-without-clip", ENGINE,
     "c.value = value if value < c.limit else c.limit",
     "c.value = value",
     [REFERENCE]),
    ("proc-ticked-before-flood", ENGINE,
     "        _tick(self._wired_credits)\n"
     "        # the source floods up to one block's worth per slot; relays are\n"
     "        # bounded by their processing rate and their send credit\n"
     "        for _ in range(self.cfg.block_size):\n"
     "            v = self._wired_pick(self.src)\n"
     "            if v is None:\n"
     "                break\n"
     "            self._land(v, self._emit(self.src, \"wired\"), \"wired\")\n"
     "        # each relay made so far, the flood's too; one made below waits a slot\n"
     "        _tick(self._procs)\n",
     "        _tick(self._wired_credits)\n"
     "        _tick(self._procs)\n"
     "        for _ in range(self.cfg.block_size):\n"
     "            v = self._wired_pick(self.src)\n"
     "            if v is None:\n"
     "                break\n"
     "            self._land(v, self._emit(self.src, \"wired\"), \"wired\")\n",
     [REFERENCE]),
    ("early-ack", ENGINE,
     "self.ack_slot = self.slot + 1 + self.cfg.ack_delay",
     "self.ack_slot = self.slot + self.cfg.ack_delay",
     ["tests/test_bounds.py"]),
    ("cellular-pipe-capped-below-a-block", ENGINE,
     "# like the wired flood, at most one block's worth per slot\n"
     "            for _ in range(self.cfg.block_size):",
     "# like the wired flood, at most one block's worth per slot\n"
     "            for _ in range(self.cfg.block_size - 1):",
     ["tests/test_bounds.py"]),
    ("wired-on-in-cellular-only", ENGINE,
     "self.wired_active = config.wifi_enabled and (",
     "self.wired_active = (",
     ["tests/test_metamorphic.py"]),
    ("draws-fill-keeps-from-the-read-position", ENGINE,
     "buf = self._buf[pos & ~7:]\n        pos &= 7\n",
     "buf = self._buf[pos:]\n        pos = 0\n",
     ["tests/test_rlnc.py"]),
    ("draws-random-drops-the-kept-word", ENGINE,
     "        if kept:\n"
     "            self._load(buf[:start] + buf[end:], pos)\n"
     "        else:\n"
     "            self._pos = end\n",
     "        self._pos = end\n",
     ["tests/test_rlnc.py"]),
    ("stream-resumed-one-output-early", ENGINE,
     "bitgen.advance(_BLOCK_OUTPUTS)",
     "bitgen.advance(_BLOCK_OUTPUTS - 1)",
     ["tests/test_rlnc.py::test_session_streams_draw_what_session_rngs_draw"]),
    ("stream-heads-keyed-by-the-seed-alone", ENGINE,
     "    head = heads.get(i)\n"
     "    if head is None:\n"
     "        head = heads[i] =",
     "    head = heads.get(0)\n"
     "    if head is None:\n"
     "        head = heads[0] =",
     ["tests/test_rlnc.py::test_session_streams_draw_what_session_rngs_draw"]),
    # the sessions and the presets' trials all pick their pair here
    ("session-pair-from-the-coefficient-stream", ENGINE,
     "_stream_bitgen(config.seed, 0)",
     "_stream_bitgen(config.seed, 1)",
     ["tests/test_simengine.py::test_the_pair_is_drawn_from_the_first_session_stream"]),
    ("wired-flood-bounded-by-block-target", ENGINE,
     "        # bounded by their processing rate and their send credit\n"
     "        for _ in range(self.cfg.block_size):\n",
     "        # bounded by their processing rate and their send credit\n"
     "        for _ in range(self.cfg.block_target):\n",
     ["tests/test_metamorphic.py"]),
    ("probabilistic-choice-draws-from-the-scheduler-stream", ENGINE,
     "cellular = self.rng_relay.random() < self.cfg.relay_p",
     "cellular = self.rng_sched.random() < self.cfg.relay_p",
     ["tests/test_reference_engine.py::test_probabilistic_relays_match_the_reference_engine"]),
    ("relay-p-ignored", ENGINE,
     "random() < self.cfg.relay_p",
     "random() < 0.5",
     ["tests/test_simengine.py::test_interfaces_probabilistic"]),
    ("round-robin-starts-on-cellular", ENGINE,
     "cellular = relay.round_robin % 2 == 1",
     "cellular = relay.round_robin % 2 == 0",
     ["tests/test_simengine.py::test_interfaces_round_robin_even_split"]),
    # tests/test_metamorphic.py passes this one
    ("relay-phases-spread-by-topology-size", ENGINE,
     "phase = (node * cfg.wired_relay_rate) % 1.0",
     "phase = (node * cfg.wired_relay_rate / len(self.topo)) % 1.0",
     [REFERENCE]),
    # no generated chain fills a relay's send credit; the relay star does
    ("send-credit-uncapped", ENGINE,
     "relay.send_credit = min(self.cfg.buffer_capacity, relay.send_credit + 1)",
     "relay.send_credit = relay.send_credit + 1",
     ["tests/test_reference_engine.py::"
      "test_relay_send_credit_cap_matches_the_reference_engine"]),
    ("skip-ahead-ignores-the-budget", ENGINE,
     "skipped = min(max(1, min(steps)) - 1, budget - self.slot - 1)",
     "skipped = max(1, min(steps)) - 1",
     ["tests/test_bounds.py"]),
    # the budget run then steps one slot past its budget
    ("skip-ahead-clamp-one-slot-late", ENGINE,
     "skipped = min(max(1, min(steps)) - 1, budget - self.slot - 1)",
     "skipped = min(max(1, min(steps)) - 1, budget - self.slot)",
     ["tests/test_metamorphic.py::test_a_lower_slot_budget_gives_a_prefix"]),
    ("topology-params-untyped", "hetnetcode/config.py",
     "        ranges.\"\"\"\n        check_types(self)\n",
     "        ranges.\"\"\"\n",
     ["tests/test_topology.py"]),
    ("sweep-spec-mutable", "hetnetcode/config.py",
     "@dataclass(frozen=True)\nclass SweepSpec:",
     "@dataclass\nclass SweepSpec:",
     ["tests/test_layering.py"]),
    ("hex-absolute-tolerance", "hetnetcode/topology.py",
     "tol = 1e-12 * radius",
     "tol = 1e-9",
     ["tests/test_topology.py"]),
    # rounding then pushes some gaps of the chain past the range
    ("chain-spaced-by-the-range", "hetnetcode/topology.py",
     "spacing = math.ldexp(1.0, math.frexp(params.wifi_range)[1] - 1)",
     "spacing = params.wifi_range",
     ["tests/test_topology.py::test_a_chain_is_a_chain_at_every_wifi_range"]),
    # the reference engine steps every slot, so a jump that credits one slot bites
    ("skip-ahead-ticks-one-slot-per-jump", ENGINE,
     "c.value = min(c.limit, c.value + c.rate * skipped)",
     "c.value = min(c.limit, c.value + c.rate)",
     ["tests/test_simengine.py"]),
    ("backbone-drawn-from-fresh-entropy", "hetnetcode/topology.py",
     "        rng.bit_generator.state = plain.placed_state\n",
     "",
     ["tests/test_topology.py"]),
    ("trials-share-topology", "hetnetcode/presets.py",
     "np.random.SeedSequence((seed, trial, 1))",
     "np.random.SeedSequence((seed, 0, 1))",
     ["tests/test_acceptance.py::test_criterion_08_infrastructure_trend"]),
    ("equal-rate-max", ENGINE,
     "return min(link_rate, config.r_cell / config.users_per_cell)",
     "return max(link_rate, config.r_cell / config.users_per_cell)",
     ["tests/test_acceptance.py::test_criterion_07_loading_trend"]),
    ("schedule-one-direction", ENGINE,
     "        if topo.protocol_model_ok(tx, rx, admitted_txs) and all(\n"
     "                topo.protocol_model_ok(atx, arx, (tx,)) for atx, arx in admitted):\n",
     "        if topo.protocol_model_ok(tx, rx, admitted_txs):\n",
     ["tests/test_simengine.py::test_schedule_is_feasible_and_maximal"]),
    ("priority-ignored", ENGINE,
     "order = sorted(zip(priorities, rng.random(n), range(n)))",
     "order = sorted(zip([0] * n, rng.random(n), range(n)))",
     ["tests/test_bounds.py::test_wifi_chain_stays_under_one_in_three_reuse"]),
    # a session's blocks carry no payload: the decode at full rank is its
    # one check that the kept coefficient rows are independent
    ("session-rank-check-dropped", ENGINE,
     "            self.decoder.decode()\n",
     "",
     ["tests/test_simengine.py::"
      "test_session_rank_check_catches_a_dependent_packet_counted_innovative"]),
    ("stale-counted-innovative", ENGINE,
     "self.decoder.block_id and self.decoder.receive(packet)",
     "self.decoder.block_id and (self.decoder.receive(packet) or True)",
     ["tests/test_bounds.py::test_cellular_only_pipe_follows_its_closed_form"]),
    ("ring-drops-newest", "hetnetcode/rlnc.py",
     "self.packets.pop(0)",
     "self.packets.pop()",
     ["tests/test_rlnc.py::test_stacked_ring_matches_packets_and_recode_oracle"]),
    ("unsent-cellular-packets-keep-the-old-block", ENGINE,
     "deque([CodedPacket(block_id, p.m, p.row)",
     "deque([CodedPacket(p.block_id, p.m, p.row)",
     [CELLULAR_ENCODES]),
    ("unsent-cellular-packets-redrawn", ENGINE,
     "deque([CodedPacket(block_id, p.m, p.row) for p in self._cell_ready])",
     "deque()",
     [CELLULAR_ENCODES]),
    ("cellular-batch-repeats-a-vector", ENGINE,
     "b\"\".join([rlnc.random_nonzero_bytes(m, rng) for _ in range(m)])",
     "rlnc.random_nonzero_bytes(m, rng) * m",
     ["tests/test_bounds.py::test_non_innovative_arrivals_match_their_exact_mean"]),
    ("receive-lead-one-byte-high", "hetnetcode/rlnc.py",
     "shift = ((res & -res).bit_length() - 1) & ~7",
     "shift = (((res & -res).bit_length() - 1) & ~7) + 8",
     ["tests/test_rlnc.py::test_receive_rank_monotone_and_flag_matches_delta"]),
    ("stderr-population", "hetnetcode/presets.py",
     "var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)",
     "var = sum((x - m) ** 2 for x in xs) / len(xs)",
     ["tests/test_presets_cli.py::test_rate_sweep_stderr_is_the_combined_trials_standard_error"]),
    ("stderr-of-cellular", "hetnetcode/presets.py",
     "yield _mean(cell), _mean(comb), _stderr(comb)",
     "yield _mean(cell), _mean(comb), _stderr(cell)",
     ["tests/test_presets_cli.py::test_rate_sweep_stderr_is_the_combined_trials_standard_error"]),
    ("combine-drops-the-first-row", "hetnetcode/rlnc.py",
     "for w, row in zip(weights, rows):",
     "for w, row in zip(weights[1:], rows[1:]):",
     ["tests/test_rlnc.py::"
      "test_encode_is_the_batch_kernels_packet_and_the_oracles_combination"]),
    # the header still holds the weights drawn
    ("encode-payload-from-other-weights", "hetnetcode/rlnc.py",
     "weights + _combined(block.rows, weights))",
     "weights + _combined(block.rows, weights[::-1]))",
     ["tests/test_rlnc.py::"
      "test_encode_is_the_batch_kernels_packet_and_the_oracles_combination"]),
    ("block-id-window-inclusive", "hetnetcode/rlnc.py",
     "< _HALF_WINDOW",
     "<= _HALF_WINDOW",
     ["tests/test_rlnc.py::test_block_id_wraparound"]),
    ("wired-hops-unsorted", "hetnetcode/routing.py",
     "return sorted(set(hops))",
     "return list(dict.fromkeys(hops))",
     ["tests/test_routing.py::test_wired_next_hops_are_ascending_and_unique"]),
    ("bus-members-two-hops-out", "hetnetcode/routing.py",
     "dist[fresh] = nxt",
     "dist[fresh] = nxt + 1",
     ["tests/test_routing.py::test_bus_routes_match_explicit_clique"]),
    # killed by the reference engine alone, which shares no codec and no
    # routes with the engine: under the first, each offer empties a ring
    ("same-block-id-counts-as-newer", "hetnetcode/rlnc.py",
     "0 < (a - b)",
     "0 <= (a - b)",
     [REFERENCE]),
    ("bus-members-two-hops-out-in-sessions", "hetnetcode/routing.py",
     "dist[fresh] = nxt",
     "dist[fresh] = nxt + 1",
     [REFERENCE]),
    ("run-fields-unchecked", "hetnetcode/presets.py",
     "if named := [name for name in fixed if name in section]:",
     "if named := []:",
     [REJECTED.format(f"refuses-{run}") for run in (
         "rate-sweep", "load-sweep", "infra-sweep", "topo1", "topo2", "chain", "star")]),
    ("load-sweep-users-unlisted", "hetnetcode/presets.py",
     '("seed", "users_per_cell")',
     '("seed",)',
     [REJECTED.format("refuses-load-sweep")]),
    ("json-syntax-error-exits-1", "hetnetcode/cli.py",
     "except (ValueError, RecursionError) as exc:",
     "except RecursionError as exc:",
     [REJECTED.format("not-json")]),
    ("solve-without-row-swap", GF256,
     "            aug[[col, piv]] = aug[[piv, col]]\n",
     "",
     ["tests/test_gf256.py::test_solve_swaps_rows_under_an_all_zero_diagonal"]),
    ("solve-pivot-row-scaled-by-inverse", GF256,
     "f[col] = 1 ^ inv",
     "f[col] = inv",
     ["tests/test_gf256.py::test_solve_round_trip_random"]),
    ("reducing-poly-0x11d", GF256,
     "REDUCING_POLY = 0x11B",
     "REDUCING_POLY = 0x11D",
     ["tests/test_gf256.py::test_mul_exhaustive_against_oracle"]),
]


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _plant(src: Path, path: str, old: str, new: str):
    target = src / path
    text = target.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{path}: the mutant's old text occurs {count} times, not once")
    target.write_text(text.replace(old, new), encoding="utf-8")


def _run_oracles(src: Path, oracles: list[str]) -> int:
    """pytest's exit status on oracles against the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import hetnetcode; print(hetnetcode.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hetnetcode imports from {where.strip()}, not from the copy {src}")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-profile", "mutants", *oracles]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _timed_run(mutant) -> tuple[int, float]:
    """(pytest exit status, seconds) of the oracles on a copy of src/ with
    mutant planted, or on an unmutated copy when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="hetnetcode-mutant-") as tmp:
        src = _copy_src(Path(tmp))
        if mutant is None:
            oracles = sorted({test for *_, tests in MUTANTS for test in tests})
        else:
            _, path, old, new, oracles = mutant
            _plant(src, path, old, new)
        start = time.perf_counter()
        status = _run_oracles(src, oracles)
        return status, time.perf_counter() - start


def main(names: list[str]) -> int:
    for name, *_, oracles in MUTANTS:
        if any(oracle.split("::")[0] == "tests/test_golden.py" for oracle in oracles):
            raise SystemExit(f"{name}: tests/test_golden.py may not be an oracle")
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    status, seconds = _timed_run(None)
    print(f"control: {'passed' if status == 0 else f'FAILED (pytest exit {status})'} "
          f"in {seconds:.1f} s", flush=True)
    ok = status == 0
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        status, seconds = _timed_run(mutant)
        # 1 is pytest's "tests failed"; a collection or usage error is no kill
        killed = status == 1
        ok &= killed
        verdict = "killed" if killed else f"SURVIVED (pytest exit {status})"
        print(f"{mutant[0]}: {verdict} by {' '.join(mutant[4])} in {seconds:.1f} s", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
