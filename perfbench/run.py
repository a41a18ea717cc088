"""hetnetcode benchmark: three paper sweeps driven through ``hetnetcode.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload adhoc-rate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10   # every workload, one table
    python3 perfbench/run.py --write-golden                # re-baseline golden.json

With ``--trace 0`` the sweeps are timed untraced and the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced sweeps alternate and the
per-layer metrics are printed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every sweep is
checked against a reference, and a sweep that raises, exits non-zero or
writes other bytes counts as failed.  See README.md in this directory for
why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0  # the CLI's default seed

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hetnetcode  # noqa: E402
from hetnetcode import cli  # noqa: E402
from hostspeed import Sampler, normalised, probe  # noqa: E402
from tracer import Tracer  # noqa: E402

# CLI arguments of each workload, default scenario (750 nodes, M=20, 1400 B).
# The trial counts hold the seed's effect on a sweep's time to a few per cent
# (see README.md); one untraced sweep lasts 1.3-12 s on one core.
WORKLOADS = {
    "adhoc-rate": ["rate-sweep", "--values", "0.1", "0.5", "1.0", "2.0", "--trials", "16"],
    "infra-backbone": ["infra-sweep", "--values", "0.01", "0.1", "0.4", "1.0", "--trials", "24"],
    "relay-star": ["topo2", "--values", "1", "2", "4", "6", "--trials", "1"],
}
CSV_ROWS = {"adhoc-rate": 4, "infra-backbone": 4, "relay-star": 24}
GOLDEN_KEYS = ("csv_sha256", "simengine.slots", "simengine.blocks_delivered",
               "rlnc.receive.innovative_ratio")
LAYER_GROUPS = {"codec": ("gf256.", "rlnc."), "setup": ("topology.", "routing."),
                "engine": ("simengine.", "presets", "cli")}
LEADING_GROUP = {"adhoc-rate": "codec", "infra-backbone": "setup", "relay-star": "codec"}
MIN_SWEEPS = 2  # timed sweeps per run, even when --seconds has passed
SETUP_REPEATS = 7  # fresh interpreters timed for setup_s, after one warm-up
# numpy is imported before the clock starts: its import is mostly file reads
# whose time swings by a third from minute to minute on a shared host, and no
# change to hetnetcode alters it.  Any other import hetnetcode makes is timed.
SETUP_CODE = ("import time, numpy; t0 = time.perf_counter(); import hetnetcode; "
              "t1 = time.perf_counter(); print(t1 - t0, hetnetcode.__file__)")


def csv_problems(workload: str, csv: bytes) -> list[str]:
    """Shape and sanity checks that hold for every seed."""
    lines = csv.decode().splitlines()
    if len(lines) != 1 + CSV_ROWS[workload]:
        return [f"expected {CSV_ROWS[workload]} CSV rows, got {len(lines) - 1}"]
    if workload == "adhoc-rate":
        for line in lines[1:]:
            _, cellular, combined, _ = (float(v) for v in line.split(","))
            if combined < cellular:
                return [f"combined < cellular-only in row {line!r}"]
    return []


def fingerprint(csv: bytes, tracer: Tracer | None) -> dict:
    """CSV digest, plus every exact count when the sweep was traced."""
    fp = {"csv_sha256": hashlib.sha256(csv).hexdigest()}
    if tracer is not None:
        fp.update(tracer.counts())
        fp["rlnc.receive.innovative_ratio"] = tracer.metrics()["rlnc.receive.innovative_ratio"][0]
    return fp


class Bench:
    """One benchmark run of one workload: its sweeps and their failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def sweep(self, seed: int, tracer: Tracer | None = None, expect: dict | None = None):
        """One CLI sweep.  Returns (seconds, fingerprint, unit_s), or None if
        it failed.

        An untraced sweep runs under a host-speed Sampler: ``seconds`` is its
        wall time less the sampler's, and ``unit_s`` the mean unit time while
        it ran.  A traced sweep is not sampled, so its spans hold only the
        program; ``seconds`` is its wall time and ``unit_s`` is None.  Every
        key of ``expect`` that the sweep's fingerprint also has must match it
        exactly.
        """
        self.attempted += 1
        label = f"{'traced' if tracer else 'untraced'} sweep {self.attempted} (seed {seed})"
        out = OUT / f"{self.workload}-seed{seed}.csv"
        out.unlink(missing_ok=True)
        argv = [*WORKLOADS[self.workload], "--workers", "1", "--seed", str(seed), "--out", str(out)]
        gc.collect()
        sampler = None if tracer else Sampler()
        try:
            with tracer or sampler:
                t0 = time.perf_counter()
                status = cli.main(argv)
                seconds = time.perf_counter() - t0
            csv = out.read_bytes()
            if sampler:
                seconds -= sampler.overhead_s
                unit_s = sampler.unit_s
            else:
                unit_s = None
        except Exception:  # a sweep that raises is a failed sweep, not a failed run
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        problems = [f"exit status {status}"] if status != 0 else []
        problems += csv_problems(self.workload, csv)
        fp = fingerprint(csv, tracer)
        for key, want in (expect or {}).items():
            if key in fp and fp[key] != want:
                problems.append(f"{key} is {fp[key]!r}, expected {want!r}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return None
        return seconds, fp, unit_s

    def references(self, seed: int) -> dict | None:
        """Check the golden sweep, then return the fingerprint for ``seed``."""
        golden = json.loads(GOLDEN.read_text())
        entry = golden["workloads"][self.workload]
        if entry["argv"] != WORKLOADS[self.workload]:
            sys.exit(f"golden.json was recorded for other {self.workload} arguments; "
                     "record it again with --write-golden")
        golden_run = self.sweep(GOLDEN_SEED, Tracer(), expect={k: entry[k] for k in GOLDEN_KEYS})
        if seed == GOLDEN_SEED:
            return golden_run and golden_run[1]
        ref = self.sweep(seed, Tracer())
        return ref and ref[1]


def layer_split(workload: str, metrics: dict) -> tuple[dict, bool]:
    """Share of summed self time per layer group, and whether the layer split
    the workload was chosen for still holds."""
    self_s = {name.removesuffix(".self_s"): v for name, (v, _) in metrics.items()
              if name.endswith(".self_s")}
    total = sum(self_s.values())
    shares = {group: sum(v for name, v in self_s.items() if name.startswith(prefixes)) / total
              for group, prefixes in LAYER_GROUPS.items()}
    held = max(shares, key=shares.get) == LEADING_GROUP[workload]
    if workload == "relay-star":
        held = held and self_s["gf256.weighted_row_sum"] > self_s["gf256.solve"]
    return shares, held


def measure_setup() -> tuple[float, list[float]]:
    """Seconds for a fresh interpreter to import hetnetcode: the median of
    the normalised times, and every raw time.  A child interpreter cannot be
    sampled from here, so each import is normalised by the mean of the
    probes just before and just after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, times = [], []
    before = probe()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported hetnetcode from {path}")
        after = probe()
        if i:  # the first import also compiles bytecode
            raw.append(float(seconds))
            times.append(normalised(float(seconds), (before + after) / 2))
        before = after
    return statistics.median(times), raw


def environment() -> dict:
    commit = "unknown"  # a checkout without .git, or no git program
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Time one workload; returns the result object, or None if nothing ran."""
    env = environment()
    bench = Bench(workload)
    setup_s, setup_raw = (None, None) if trace else measure_setup()
    ref = bench.references(seed)
    untraced, traced = [], []  # seconds, and (seconds, tracer), of correct sweeps
    units, untraced_norm = [], []  # mean unit time, and normalised seconds, per untraced sweep
    deadline = time.perf_counter() + seconds
    rounds = 0
    while ref is not None and (rounds < MIN_SWEEPS or time.perf_counter() < deadline):
        rounds += 1
        done = bench.sweep(seed, expect=ref)
        if done:
            untraced.append(done[0])
            units.append(done[2])
            untraced_norm.append(normalised(done[0], done[2]))
        if trace:
            tracer = Tracer(keep_spans=not traced)
            done = bench.sweep(seed, tracer, expect=ref)
            if done:
                traced.append((done[0], tracer))
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not untraced or (trace and not traced):
        return None

    sweep_s = statistics.median(untraced_norm)
    if trace:
        # times are medians over the traced sweeps; counts agree in every sweep
        per_sweep = [tr.metrics() for _, tr in traced]
        metrics = {name: (statistics.median(m[name][0] for m in per_sweep)
                          if unit in ("s", "ms") else value, unit)
                   for name, (value, unit) in per_sweep[0].items()}
        # each traced sweep against the untraced sweep just before it
        metrics["trace.overhead_s"] = (
            statistics.median(t - u for u, (t, _) in zip(untraced, traced)), "s")
        metrics["host.sweep_wall_s"] = (statistics.median(untraced), "s")
        metrics["host.unit_s"] = (statistics.median(units), "s")
        shares, held = layer_split(workload, metrics)
        split = {"shares": shares, "held": held}
        with open(OUT / f"spans-{workload}-seed{seed}.csv", "w") as fh:
            traced[0][1].write_spans(fh)
    else:
        split = None
        metrics = {
            "sweep_s": (sweep_s, "s"),
            "slots_per_s": (ref["simengine.slots"] / sweep_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "untraced_sweep_s": untraced,
              "untraced_sweep_normalised_s": untraced_norm, "unit_s": units,
              "setup_raw_s": setup_raw,
              "traced_sweep_s": [t for t, _ in traced], "failures": bench.failures,
              "split": split, "result": result}
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    if split is not None:
        print("self-time shares " + json.dumps({k: round(v, 3) for k, v in shares.items()}))
        print(f"split {'held' if held else 'NOT held'}: expected {LEADING_GROUP[workload]} "
              f"to lead" + (", weighted_row_sum > solve" if workload == "relay-star" else ""))
    return result


def print_result(workload: str, result: dict):
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:42s} {m['value']:>16.6f} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:15s} {'error_rate':42s} {rate:>16.6f} "
          f"({result['failed']} of {result['attempted']} sweeps failed)")


def run_all(seed: int, seconds: float, trace: bool) -> dict | None:
    """Every workload in its own process, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited with status {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        print_result(workload, result)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def write_golden():
    """Record the reference outputs at the default seed (re-baselining)."""
    entries = {}
    for workload, argv in WORKLOADS.items():
        bench = Bench(workload)
        done = bench.sweep(GOLDEN_SEED, Tracer())
        if done is None:
            sys.exit("\n".join(bench.failures))
        entries[workload] = {"argv": argv, **{k: done[1][k] for k in GOLDEN_KEYS}}
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED, "workloads": entries}, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="timed sweeps last this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record golden.json from the current program and exit")
    args = ap.parse_args(argv)

    if not Path(hetnetcode.__file__).resolve().is_relative_to(SRC):
        print(f"hetnetcode was imported from {hetnetcode.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden()
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is not None:
            print_result(args.workload, result)
    if result is None:
        print("no sweep completed; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
