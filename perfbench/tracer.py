"""Outside-in tracer for hetnetcode: wraps public layer functions in place.

The program carries no instrumentation of its own, so the tracer replaces
each traced function at every attribute that binds it (the defining module,
modules that imported the name directly, the package namespace and the
``presets.PRESETS`` table) with one wrapper that records a span.  Leaving
the ``with`` block puts every original object back, so code timed outside a
tracer never runs through a wrapper.

Self time of a span is its duration minus the durations of the traced calls
made inside it.  Aggregates are kept per layer name; the full span list
(id, name, start, end, parent id) is kept only when asked for, because a
single sweep makes hundreds of thousands of traced calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

import numpy as np

from hetnetcode import cli, gf256, presets, rlnc, routing, simengine, topology


def _bytes_combined(tracer, args, result):
    weights, rows_index = args[0], args[1]
    tracer.counters["gf256.weighted_row_sum.bytes"] += (
        int(np.count_nonzero(weights)) * rows_index.shape[1])


def _receive(tracer, args, result):
    tracer.counters["rlnc.receive.innovative"] += bool(result)


def _session(tracer, args, result):
    stats = result[0]
    tracer.counters["simengine.slots"] += stats.slots_elapsed
    tracer.counters["simengine.blocks_delivered"] += stats.blocks_delivered


def _schedule(tracer, args, result):
    tracer.counters["simengine.schedule_wifi_slot.pending"] += len(args[0])
    tracer.counters["simengine.schedule_wifi_slot.admitted"] += len(result)


# (span name, owner, attribute, hook run on (tracer, args, result) after the call)
TARGETS = (
    ("gf256.solve", gf256, "solve", None),
    ("gf256.weighted_row_sum", gf256, "weighted_row_sum", _bytes_combined),
    ("rlnc.encode", rlnc, "encode", None),
    ("rlnc.recode", rlnc, "recode", None),
    ("rlnc.receive", rlnc.DecoderState, "receive", _receive),
    ("rlnc.decode", rlnc.DecoderState, "decode", None),
    ("topology.generate", topology, "generate", None),
    ("topology.wired_peers", topology.HetNetTopology, "wired_peers", None),
    ("routing.build_routes", routing, "build_routes", None),
    ("routing.distances_to", routing.RouteTable, "distances_to", None),
    ("routing.next_hops", routing.RouteTable, "next_hops", None),
    ("simengine.run_session", simengine, "run_session", _session),
    ("simengine.schedule_wifi_slot", simengine, "schedule_wifi_slot", _schedule),
    ("cli", cli, "main", None),
)
# every preset function is one "presets" span
PRESET_NAMES = tuple(presets.PRESETS)
LAYERS = tuple(name for name, *_ in TARGETS) + ("presets",)


def _bindings(original):
    """(module, name) of every hetnetcode module-level name bound to original."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hetnetcode" or mod_name.startswith("hetnetcode.")):
            continue
        for key, value in vars(mod).items():
            if value is original:
                found.append((mod, key))
    return found


class Tracer:
    """Context manager that traces the layers in TARGETS while active.

    ``stats[name]`` is ``[calls, self seconds]``; ``session_s`` lists the
    whole duration of every ``run_session`` call, for its percentiles.
    """

    def __init__(self, keep_spans: bool = False):
        self.stats = {name: [0, 0.0] for name in LAYERS}
        self.session_s: list[float] = []
        self.counters: Counter = Counter()
        self.spans: list | None = [] if keep_spans else None
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        durations = self.session_s if name == "simengine.run_session" else None
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if durations is not None:
                    durations.append(duration)
                if spans is not None:
                    spans.append((span_id, name, t0, t1, parent))
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _patch(self, owner, key, replacement):
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        self._patched.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already active")
        try:
            for name, owner, attr, hook in TARGETS:
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original, hook)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    for mod, key in _bindings(original):
                        self._patch(mod, key, wrapper)
            for key in PRESET_NAMES:
                original = presets.PRESETS[key]
                wrapper = self._wrap("presets", original, None)
                self._patch(presets.PRESETS, key, wrapper)
                for mod, mod_key in _bindings(original):
                    self._patch(mod, mod_key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    # -- derived per-layer metrics ------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric name -> (value, unit), as listed in BENCHMARK.json."""
        out = {}
        for name in LAYERS:
            calls, self_s = self.stats[name]
            if name not in ("presets", "cli"):
                out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        c = self.counters
        out["gf256.weighted_row_sum.bytes"] = (c["gf256.weighted_row_sum.bytes"], "B")
        out["rlnc.receive.innovative_ratio"] = (
            _ratio(c["rlnc.receive.innovative"], self.stats["rlnc.receive"][0]), "ratio")
        out["simengine.schedule_wifi_slot.admit_ratio"] = (
            _ratio(c["simengine.schedule_wifi_slot.admitted"],
                   c["simengine.schedule_wifi_slot.pending"]), "ratio")
        p50, p90 = _percentiles_ms(self.session_s)
        out["simengine.run_session.p50_ms"] = (p50, "ms")
        out["simengine.run_session.p90_ms"] = (p90, "ms")
        out["simengine.slots"] = (c["simengine.slots"], "count")
        out["simengine.blocks_delivered"] = (c["simengine.blocks_delivered"], "count")
        out["simengine.sessions"] = (self.stats["simengine.run_session"][0], "count")
        return out

    def counts(self) -> dict:
        """Every exact count of the traced run: what two runs must agree on."""
        out = {name: calls for name, (calls, _) in self.stats.items()}
        out.update(self.counters)
        return out

    def write_spans(self, fh):
        """Spans as CSV: id, name, start and end (perf_counter s), parent id."""
        fh.write("id,name,start_s,end_s,parent\n")
        for span_id, name, t0, t1, parent in sorted(self.spans or ()):
            fh.write(f"{span_id},{name},{t0:.9f},{t1:.9f},{'' if parent is None else parent}\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _percentiles_ms(durations: list) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    if len(durations) == 1:
        return durations[0] * 1e3, durations[0] * 1e3
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return statistics.median(durations) * 1e3, deciles[8] * 1e3
