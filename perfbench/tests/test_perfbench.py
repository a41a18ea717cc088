"""Tests of the benchmark itself: tracer determinism, restoration, output.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracer_mod  # noqa: E402
from hetnetcode import cli, presets  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_SWEEPS = [
    ["rate-sweep", "--values", "0.5", "2.0", "--trials", "1"],
    ["infra-sweep", "--values", "0.1", "1.0", "--trials", "1"],
    ["topo2", "--values", "1", "2", "--trials", "1"],
]


def _traced_sweep(argv, out):
    tr = Tracer()
    with tr:
        assert cli.main([*argv, "--seed", "3", "--out", str(out)]) == 0
    return tr, out.read_bytes()


def _namespaces():
    """Every namespace the tracer may patch, as {id: dict copy}."""
    spaces = [vars(m) for name, m in sys.modules.items()
              if name == "hetnetcode" or name.startswith("hetnetcode.")]
    spaces += [vars(owner) for _, owner, _, _ in tracer_mod.TARGETS if isinstance(owner, type)]
    spaces.append(presets.PRESETS)
    return [(space, dict(space)) for space in spaces]


@pytest.mark.parametrize("argv", SMALL_SWEEPS, ids=lambda a: a[0])
def test_two_traced_runs_agree_count_for_count(argv, tmp_path):
    first, csv1 = _traced_sweep(argv, tmp_path / "a.csv")
    second, csv2 = _traced_sweep(argv, tmp_path / "b.csv")
    assert csv1 == csv2
    assert first.counts() == second.counts()
    assert first.counts()["simengine.slots"] > 0
    assert first.stats["cli"][0] == first.stats["presets"][0] == 1


def test_traced_and_untraced_csv_are_identical(tmp_path):
    argv = [*SMALL_SWEEPS[0], "--seed", "3"]
    assert cli.main([*argv, "--out", str(tmp_path / "plain.csv")]) == 0
    _, traced = _traced_sweep(SMALL_SWEEPS[0], tmp_path / "traced.csv")
    assert (tmp_path / "plain.csv").read_bytes() == traced


def test_every_layer_is_reached_through_the_cli(tmp_path):
    tr, _ = _traced_sweep(SMALL_SWEEPS[1], tmp_path / "x.csv")
    assert all(calls > 0 for calls, _ in tr.stats.values()), tr.stats
    assert sum(self_s for _, self_s in tr.stats.values()) > 0


def test_tracer_restores_every_attribute(tmp_path):
    before = _namespaces()
    original = presets.run_session
    tr = Tracer(keep_spans=True)
    with pytest.raises(RuntimeError):
        with tr:
            assert presets.run_session is not original
            raise RuntimeError("leave the block by an exception")
    with tr:
        assert cli.main([*SMALL_SWEEPS[2], "--out", str(tmp_path / "y.csv")]) == 0
    for space, saved in before:
        assert space.keys() == saved.keys()
        changed = [k for k in saved if space[k] is not saved[k]]
        assert not changed, changed
    assert tr.spans and all(parent is None or parent < span_id
                            for span_id, _, _, _, parent in tr.spans)


def test_self_time_excludes_children(tmp_path):
    tr = Tracer()
    with tr:
        cli.main([*SMALL_SWEEPS[2], "--out", str(tmp_path / "z.csv")])
    cli_calls, cli_self = tr.stats["cli"]
    assert cli_calls == 1 and 0 <= cli_self < sum(tr.session_s)


def _run_bench(trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "relay-star",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_every_metric_with_its_unit(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    stdout, result = _run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(m["unit"])
                   for line in stdout.splitlines()), m["name"]
    assert "error_rate" in stdout


def test_host_probe_is_independent_of_the_program():
    code = ("import sys, hostspeed; assert hostspeed.probe(5) > 0; "
            "assert not [m for m in sys.modules if m.startswith('hetnetcode')]")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, check=True, timeout=120)


def test_sampler_times_units_and_restores_the_signal_state():
    import signal

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert 0 < sampler.unit_s and sampler.overhead_s == sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
