"""Host-speed correction for wall times.

The reference box is a 2-core VM whose per-core speed switches between a fast
and a slow state, about 2x apart, for seconds at a time as its neighbours'
load changes; identical runs minutes apart then disagree by more than any
useful regression bound, and one 15-second op can fall partly in each state.
So while a run measures, a timer signal interrupts it every SAMPLE_EVERY_S
and times a fixed calibration mix that does not touch icbounds on the same
core, in the middle of whatever op is running.  The slow state slows
pure-Python work about 1.8x but NumPy batch arithmetic only about 1.4x, so
there are two mixes: "python" (Fraction, int and dict work) for Python-bound
workloads and set-up, and "numpy" (int64 matmul and remainders on an array
shaped like the decoding simulation's batches) for the NumPy-bound one.
Each sample gives a speed, the mix's REFERENCE_S / its time after a running
median over neighbouring samples has removed single-sample jitter.  A
reference clock runs at the mean speed of the two samples around each
moment and stops while a sample is taken, and a wall interval is converted
to reference seconds by reading that clock at both ends.  A faster program
still reads faster: the mixes do not depend on it.

    with HostSpeed("python") as host:
        t0 = perf_counter(); work(); t1 = perf_counter()
    seconds = host.correct(t0, t1)
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = {"python": 0.002, "numpy": 0.0015}  # mix times on the reference box, fast state
SAMPLE_EVERY_S = 0.2
SMOOTH = 2  # samples on each side of the running median


def python_mix() -> int:
    x = Fraction(0)
    seen: dict[int, int] = {}
    for i in range(1, 800):
        x += Fraction(i % 7 + 1, i % 11 + 1)
        seen[i * i % 997] = i
    return len(seen) + x.numerator % 3


def numpy_mix():
    """A call of the NumPy mix; numpy is imported only when it is asked for,
    after the caller has pinned its thread count."""
    import numpy as np

    a = np.arange(8192 * 10, dtype=np.int64).reshape(8192, 10) * 7919 % 5
    b = np.arange(10 * 10, dtype=np.int64).reshape(10, 10) * 31 % 5
    return lambda: int(((a @ b) % 5 + a % 3).sum())


class HostSpeed:
    """Calibration samples taken while the context is open, and the
    correction they imply for any interval inside it."""

    def __init__(self, mix: str) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._mix = python_mix if mix == "python" else numpy_mix()
        self._reference_s = REFERENCE_S[mix]
        self._mix()  # the first call pays for cold caches

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self._mix()
        self.starts.append(t0)
        self.ends.append(perf_counter())

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        cals = [b - a for a, b in zip(self.starts, self.ends)]
        self.speed = [self._reference_s / statistics.median(cals[max(0, k - SMOOTH):k + SMOOTH + 1])
                      for k in range(len(cals))]
        # Between two samples the clock runs at the mean of their speeds and
        # during a sample it stops; _at[k] is the reference time at sample k.
        self._gap_speed = [(u + v) / 2 for u, v in zip(self.speed, self.speed[1:])]
        self._at = [0.0]
        for k, v in enumerate(self._gap_speed):
            self._at.append(self._at[-1] + (self.starts[k + 1] - self.ends[k]) * v)

    def factor(self) -> float:
        """Mean reference seconds per wall second over the whole context."""
        return statistics.fmean(self.speed)

    def clock(self, t: float) -> float:
        """Reference seconds at wall time t, on a clock that runs at the
        host's measured speed and stops while a sample is taken."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self.speed[0]
        if t <= self.ends[k]:
            return self._at[k]
        speed = self._gap_speed[k] if k < len(self._gap_speed) else self.speed[k]
        return self._at[k] + (t - self.ends[k]) * speed

    def correct(self, start: float, end: float) -> float:
        """The wall time end - start, less the samples taken in it, at the
        reference speed.  Additive, so that a span's self time (its time
        less its children's) is never negative.  Valid once the context has
        closed."""
        return self.clock(end) - self.clock(start)
