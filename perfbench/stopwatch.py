"""Segment timing corrected for how fast the host core runs right now.

The machines this benchmark runs on share physical cores with other
tenants, and a core's speed changes by up to 1.8x, for anything from a
fraction of a second to a minute; CPU time follows wall time, so this is slower execution, not
preemption. A median over a run cannot hide a change that lasts the whole
run, so every timed segment is followed by a short fixed probe that
mimics ovml's own work (small graph nodes over 10x16 arrays, each checked
for finiteness), and the segment is rescaled by the probe's current time:

    reference seconds = segment seconds * PROBE_REF_S / probe seconds

where the probe time is the mean of the probes just before and just after
the segment, so the two bracket the work they rescale.

PROBE_REF_S is the probe's time on an uncontended core of the machine the
benchmark was calibrated on (a 2-vCPU Intel Xeon VM), so the figures read
as seconds on that core. Probe time is excluded from every segment.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

PROBE_REF_S = 4.2e-4

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(10, 16))
_W = [_rng.normal(size=(16, 16)) / 4.0 for _ in range(4)]


class _Node:
    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("probe produced a non-finite value")
        self.data = arr
        self.parents = parents
        self.vjp = vjp


def probe() -> float:
    """Run the fixed probe; return its wall time in seconds."""
    t0 = perf_counter()
    x = _Node(_X)
    for i in range(20):
        w = _W[i % 4]
        y = _Node(x.data @ w, (x,), lambda g, w=w: g @ w.T)
        z = _Node(np.tanh(y.data), (y,), lambda g: g)
        x = _Node(z.data - z.data.mean(axis=1, keepdims=True), (z,), lambda g: g)
    return perf_counter() - t0


class Stopwatch:
    """Splits work into segments with `lap`; each lap returns the segment's
    time in reference seconds and keeps the raw and probe times too.
    """

    def __init__(self, clock=perf_counter, probe=probe):
        self.clock = clock
        self.probe = probe
        self.raw_s = 0.0  # summed raw segment time
        self.probes: list[float] = []  # every probe time, in seconds
        self._start = None

    def start(self) -> None:
        self.probes.append(self.probe())
        self._start = self.clock()

    def lap(self) -> float:
        raw = self.clock() - self._start
        self.probes.append(self.probe())
        self.raw_s += raw
        self._start = self.clock()
        return raw * PROBE_REF_S / statistics.fmean(self.probes[-2:])


def percentiles(samples: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (linear interpolation between samples)."""
    p50, p90 = np.percentile(np.asarray(samples, dtype=np.float64), [50, 90])
    return float(p50), float(p90)
