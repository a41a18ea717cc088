"""Host-speed sampling: a fixed unit of work timed while a sweep runs.

The shared host this benchmark runs on changes speed by up to a factor of
two from one second to the next (the same code runs in about 1 ms or about
2 ms), and CPU time follows wall time, so it is a slower core, not waiting
for one.  A sweep's wall time therefore says as much about the host as about
the program.  ``Sampler`` measures the host's speed during the sweep itself:
an interval timer interrupts the sweep every ``INTERVAL_S`` seconds and a
signal handler times one ``unit`` of fixed work.  The sweep's own time is its
wall time minus the time spent in the handler; divided by the mean unit time
it no longer depends on how fast the host was while the sweep ran.

The unit mixes the two kinds of work the simulator does: numpy GF(2^8)-style
table gathers on 1400-byte rows and pure-Python breadth-first searches over a
small graph.  Of the units tried, it tracked the sweeps' own slowdowns best
over both ``adhoc-rate`` and ``relay-star``; a pure-Python unit and one with a
working set of megabytes each did worse on one of them.  Its inputs come from
a fixed seed, it imports nothing from ``hetnetcode`` and it runs with the
garbage collector off, so no change to the program can change its work.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# Mean unit time, in seconds, that normalised times are scaled to: about what
# the unit takes on the host the benchmark was tuned on (2 shared cores of an
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4).  A normalised time is
# seconds * NOMINAL_S / (mean unit time while those seconds were measured).
NOMINAL_S = 0.0012
INTERVAL_S = 0.05  # one unit per 50 ms of sweep: about 3 % of its wall time

_rng = np.random.default_rng(20141110)
_TABLE = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_ROWS = _rng.integers(0, 256, size=(20, 1400)).astype(np.intp)
_NODES = 375
_GRAPH = [sorted(set(_rng.integers(0, _NODES, size=8).tolist())) for _ in range(_NODES)]


def _unit() -> int:
    acc = np.zeros(_ROWS.shape[1], dtype=np.uint8)
    for i in range(40):
        acc ^= _TABLE[i % 255 + 1][_ROWS[i % 20]]
    reached = 0
    for src in (0, _NODES // 3, 2 * _NODES // 3, _NODES - 1):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        reached += len(dist)
    return reached + int(acc[0])


def unit() -> float:
    """Seconds one unit of fixed work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _unit()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe(units: int = 100) -> float:
    """Mean seconds of ``units`` back-to-back units, for work that cannot be
    sampled from inside, such as a child interpreter."""
    return statistics.fmean(unit() for _ in range(units))


def normalised(seconds: float, unit_s: float) -> float:
    """``seconds`` measured while a unit took ``unit_s``, scaled to a host on
    which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / unit_s


class Sampler:
    """Context manager that times one unit every INTERVAL_S of wall time.

    It installs a SIGALRM handler and an interval timer on entry and puts
    back the previous handler and a stopped timer on exit.  ``samples``
    holds every unit time; their sum is time the sweep did not spend on its
    own work.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(unit())

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def overhead_s(self) -> float:
        return sum(self.samples)

    @property
    def unit_s(self) -> float:
        """Mean unit time while the sampler was on."""
        if not self.samples:
            raise RuntimeError("the sampled interval was shorter than one sampling period")
        return statistics.fmean(self.samples)
