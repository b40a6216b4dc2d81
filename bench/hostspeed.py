"""How fast the benchmark's CPU runs, sampled all through a run.

On a shared host the core the benchmark runs on is slowed, for seconds to
minutes at a time, by load that other tenants put on the same physical core
or socket: the same pass of a workload then takes up to three times as long,
and process CPU time grows with it (no steal time is reported), so neither
wall nor CPU time tells a slower program from a busier host. ``HostSpeed``
samples the speed in the benchmark's own thread of control: a timer signal
every ``INTERVAL_S`` runs a fixed probe kernel of about 20 us (dict updates
and small numpy operations) twice and keeps both durations. The first run
finds its data evicted by the program's last 5 ms and is slowed most by
load on the memory system; the second finds it in cache and is slowed by
load on the core. The kernel calls nothing of ikge, so a change to the
program does not change the probe.

``seconds(t0, t1)`` is then the time ``[t0, t1]`` would have taken at the
reference speed: the interval's wall time, without the probes that ran
inside it, times the host's speed over the probes in and next to the
interval. The speed seen by one run of the probe is its reference time
(``REF_COLD_S``, ``REF_WARM_S``) ÷ its duration, and the host's speed is
the geometric mean of the cold and the warm probe's mean speeds. On the host
the benchmark was tuned on, the cold probe alone over-corrected stages that
work from cache (request handling) and the warm probe alone under-corrected
stages that scan memory (filtered ranking); their geometric mean held every
stage's pass-to-pass spread within 8 % while raw wall times spread by 30-40 %.

The references are constants, not the fastest probes of the run, since in a
run spent in a slow phase even those are slow. They are the probe's times on
an unloaded core of the 2-core Xeon VM (Python 3.11, numpy 2.4) that the
benchmark was tuned on, so there the figures are close to the wall seconds of
a quiet host; on other hardware they are in the same units, not in that
host's seconds. The correction is not exact, and where it falls short part of
the host's load still shows.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.005
# Probes this far either side of an interval count towards its speed, so
# that a request of a few ms still has several.
PAD_S = 2 * INTERVAL_S
REF_COLD_S, REF_WARM_S = 23e-6, 15e-6

_V = np.zeros(4)


def probe_kernel() -> float:
    d: dict[int, int] = {}
    s = 0.0
    for i in range(24):
        d[i & 7] = d.get(i & 7, 0) + i
        if i & 3 == 0:
            s += float((_V + i).sum())
    return s


class HostSpeed:
    """Context manager: samples the CPU's speed while it is entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.cold: list[float] = []
        self.warm: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        probe_kernel()
        t2 = time.perf_counter()
        self.cold.append(t1 - t0)
        self.warm.append(t2 - t1)
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        cold, warm = np.asarray(self.cold), np.asarray(self.warm)
        cumsum = lambda xs: np.concatenate([[0.0], np.cumsum(xs)])
        self._own = cumsum(cold + warm)
        self._cold_speed = cumsum(REF_COLD_S / cold)
        self._warm_speed = cumsum(REF_WARM_S / warm)

    def scale(self, t0: float, t1: float, seconds: float) -> float:
        """``seconds`` spent in ``[t0, t1]`` (wall or CPU), without the
        probes inside it, at the reference speed. Unchanged when no probe
        ran near the interval (runs shorter than a few intervals)."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        net = max(seconds - (self._own[j] - self._own[i]), 0.0)
        lo, hi = bisect.bisect_left(self.starts, t0 - PAD_S), bisect.bisect_left(self.starts, t1 + PAD_S)
        if hi == lo:
            return net
        cold = (self._cold_speed[hi] - self._cold_speed[lo]) / (hi - lo)
        warm = (self._warm_speed[hi] - self._warm_speed[lo]) / (hi - lo)
        return net * math.sqrt(cold * warm)

    def seconds(self, t0: float, t1: float) -> float:
        return self.scale(t0, t1, t1 - t0)

    def summary(self) -> dict:
        """Sample count, the probes' share of the run, and per probe its
        reference, 1st-percentile and median times and mean slowdown."""
        if not self.starts:
            return {"samples": 0}
        span = self.starts[-1] - self.starts[0]
        out = {"samples": len(self.starts), "interval_s": self.interval,
               "probe_share": (sum(self.cold) + sum(self.warm)) / span if span else None}
        for name, ref, d in (("cold", REF_COLD_S, self.cold), ("warm", REF_WARM_S, self.warm)):
            d = np.asarray(d)
            out[name] = {"ref_us": ref * 1e6, "p1_us": float(np.percentile(d, 1)) * 1e6,
                         "median_us": float(np.median(d)) * 1e6, "mean_slowdown": float(np.mean(d / ref))}
        return out
