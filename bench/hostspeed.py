"""Timing that takes a shared host's changing speed out.

A shared host can slow all the work of this process by up to about 1.6x,
in spells that last from a fraction of a second to minutes, while CPU
time keeps pace with wall time. A whole run can fall inside one spell,
so no statistic over a run's own batch times removes the slow-down, and
runs of the same code spread by more than a regression worth catching.

The probe is a fixed piece of work in the same mix as the adaptation
loop: small numpy products and reductions, and interpreter-bound dict
updates. It runs at marks between stretches of program work, such as
before every batch request. Each stretch is scaled by ``REF_S`` over the
mean time of the probes on either side of it, which gives the time it
would have taken on a host where the probe takes ``REF_S``. Probe time
itself is left out of every stretch.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# about the probe's time on an uncontended vCPU of the host the benchmark
# was defined on (Intel Xeon, Python 3.11, numpy 2.4, one OpenBLAS thread)
REF_S = 0.40e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 32))
_W = _rng.standard_normal((32, 32)) * 0.1


def probe() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    start = time.perf_counter()
    x, counts = _X, {}
    for i in range(20):
        x = np.tanh(x @ _W)
        x = x - x.sum(axis=0) * 1e-3
        for j in range(20):
            counts[j] = counts.get(j, 0) + i
    return time.perf_counter() - start


class Marks:
    """Probe times and the instants they ended, one per mark."""

    def __init__(self):
        self.ends: list[float] = []
        self.probe_s: list[float] = []

    def mark(self) -> None:
        self.probe_s.append(probe())
        self.ends.append(time.perf_counter())

    def every(self, fn, k: int):
        """``fn`` wrapped so that every k-th call, from the first, marks first."""
        calls = 0

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            nonlocal calls
            if calls % k == 0:
                self.mark()
            calls += 1
            return fn(*args, **kwargs)

        return marked


def raw_intervals(ends: list[float], probe_s: list[float]) -> list[float]:
    """Wall time from the end of probe i to the start of probe i+1."""
    return [b - pb - a for a, b, pb in zip(ends, ends[1:], probe_s[1:])]


def scaled_intervals(ends: list[float], probe_s: list[float], ref_s: float = REF_S) -> list[float]:
    """Each raw interval times ``ref_s`` over the mean of its two probes."""
    return [
        t * 2.0 * ref_s / (pa + pb)
        for t, pa, pb in zip(raw_intervals(ends, probe_s), probe_s, probe_s[1:])
    ]
