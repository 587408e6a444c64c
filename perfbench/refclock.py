"""Reference clock: wall time corrected for the host's changing speed.

On a shared virtual machine a CPU runs for stretches of milliseconds to
seconds at one of two speeds about 1.65x apart, and the share of slow time
drifts over minutes, so raw wall times of the same work spread by a third
between runs.  A `Probe` measures the speed of the CPU that the timed code
runs on, while it runs: every PERIOD_S of wall time a SIGALRM handler in the
same thread runs a fixed piece of work (a small sparse-polynomial product
over Fractions, close in kind to varmult's kernel) and records how long it
took.  A `RefClock` built from those samples maps perf_counter times onto
reference seconds: a probe's speed is REF_S over its duration, between two
probes the clock advances at the mean of their speeds, and it stands still
while a probe runs, so the probe time is not charged to the timed code.  A reference second is a second of
the host at the speed where the probe takes REF_S.  A change that makes the
program do less work shortens its reference time in proportion; the host's
speed changes cancel out.

    probe = Probe(); probe.start()
    ...timed code...
    probe.stop()
    clock = RefClock(probe.samples())
    clock.span(t0, t1)    # reference seconds between two perf_counter times

In a child process, `start_child()` starts a probe that writes its samples
at exit to the file named by the PERFBENCH_PROBE environment variable.
perf_counter is the system-wide monotonic clock, so the parent can measure a
child's times with its own perf_counter and the child's samples.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import signal
import time
from array import array
from fractions import Fraction

#: wall time between two probes
PERIOD_S = 0.002
#: duration of one probe at the reference speed: about its duration on a
#: 2.0 GHz Xeon when the host is fast (40-63 us were measured, fast to slow)
REF_S = 40e-6
#: a probe that took longer than this many times the median was preempted
#: or interrupted; it counts as a probe of median length
OUTLIER = 4.0
#: environment variable naming a child's sample file
ENV = "PERFBENCH_PROBE"

_TERMS = {(i, 0): Fraction(i + 1, 2) for i in range(3)}


def _work() -> dict:
    out: dict = {}
    for (a, b), x in _TERMS.items():
        for (c, d), y in _TERMS.items():
            k = (a + c, b + d)
            out[k] = out.get(k, 0) + x * y
    return out


class Probe:
    """Periodic speed samples of the calling thread's CPU."""

    def __init__(self):
        self.starts = array("d")
        self.durs = array("d")
        self._busy = False

    def _tick(self, signum, frame) -> None:
        # a handler can be entered again from inside itself; skip that tick
        if self._busy:
            return
        self._busy = True
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        if gc_on:
            gc.enable()
        self.durs.append(t1 - t0)
        self.starts.append(t0)
        self._busy = False

    def start(self) -> None:
        for _ in range(20):
            _work()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def samples(self) -> dict:
        # a tick may land while this runs: take the samples complete so far
        n = len(self.starts)
        return {"starts": self.starts[:n].tolist(), "durs": self.durs[:n].tolist()}


def start_child() -> Probe:
    """Start a probe that writes its samples to $PERFBENCH_PROBE at exit."""
    probe = Probe()
    path = os.environ.get(ENV)
    if path:
        def dump() -> None:
            probe.stop()
            with open(path, "w") as fh:
                json.dump(probe.samples(), fh)
        atexit.register(dump)
    probe.start()
    return probe


def load_samples(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class RefClock:
    """perf_counter time -> reference seconds, from a probe's samples."""

    def __init__(self, samples: dict):
        import numpy as np

        starts = np.asarray(samples["starts"], dtype=float)
        durs = np.asarray(samples["durs"], dtype=float)
        if len(starts) == 0:
            raise ValueError("no probe samples: the timed interval was too short")
        med = float(np.median(durs))
        speed = REF_S / np.where(durs > OUTLIER * med, med, durs)
        # the clock stands still over [start_i, end_i] and runs at the mean
        # speed of probes i and i+1 between end_i and start_{i+1}
        ends = starts + durs
        gap = np.maximum(starts[1:] - ends[:-1], 0.0)
        run = gap * (speed[:-1] + speed[1:]) / 2
        at_start = np.concatenate(([0.0], np.cumsum(run)))
        self._t = np.empty(2 * len(starts))
        self._t[0::2], self._t[1::2] = starts, ends
        self._r = np.repeat(at_start, 2)
        self._first, self._last = float(speed[0]), float(speed[-1])
        self.speed = float(np.mean(speed))

    def ref(self, t):
        """Reference time of perf_counter time(s) t; outside the sampled
        interval the clock runs at the nearest probe's speed."""
        import numpy as np

        t = np.asarray(t, dtype=float)
        r = np.interp(t, self._t, self._r)
        r = np.where(t < self._t[0], self._r[0] - (self._t[0] - t) * self._first, r)
        return np.where(t > self._t[-1], self._r[-1] + (t - self._t[-1]) * self._last, r)

    def span(self, t0: float, t1: float) -> float:
        return float(self.ref(t1) - self.ref(t0))
