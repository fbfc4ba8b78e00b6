"""A fixed reference computation that rescales measured times to one CPU speed.

On a shared 2-vCPU Xeon VM the speed of the CPU switches between regimes
every few seconds: in a slow stretch every op, its CPU time too, takes
1.4-1.8 times as long as in a fast one, and whole 25 s runs can fall in a
slow stretch (NOTES.md).  No statistic over one run's raw times can undo
that.  The ruler measures the regime instead: a short adaptive Simpson rule
on a Bessel integrand, in plain Python and ``scipy.special``, which is the
kind of work magcone's kernels and sweeps do.  It calls nothing of magcone,
so a change to magcone moves the measured times and never the ruler.

While the ruler runs, a wall-clock timer interrupts the measured code every
``INTERVAL_S`` and takes a sample in the signal handler, so samples fall
inside long calls too.  A stretch of time between two samples is rescaled
by ``NOMINAL_S`` over the mean of the two; the stretch before the first and
after the last sample takes that sample alone.  ``rescale`` adds this up
over any interval, leaving the samples' own time out, so a time reads as
seconds at the speed where one sample takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np
from scipy import special

# About one sample in the fast regime of the host above; the reported times
# are in seconds at that speed.  The constant only sets the scale: both
# sides of a comparison use it.
NOMINAL_S = 0.002
INTERVAL_S = 0.1  # s of measured work between two samples
REPEATS = 2  # a sample is the least of this many evaluations


def _integrand(t: float) -> float:
    return special.jv(1.25, 5.0 * t) * np.exp(-t * t)


def _simpson(f, a, b, fa, fm, fb, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    if depth > 12 or abs(left + right - whole) < 15.0 * tol:
        return left + right
    return (_simpson(f, a, m, fa, flm, fm, tol / 2.0, depth + 1)
            + _simpson(f, m, b, fm, frm, fb, tol / 2.0, depth + 1))


def evaluate() -> float:
    """The fixed computation: the integral of J_1.25(5t) exp(-t^2) over [0, 4]."""
    f = _integrand
    return _simpson(f, 0.0, 4.0, f(0.0), f(2.0), f(4.0), 1e-9, 0)


class Ruler:
    """The ruler samples of one process, on the perf_counter time line."""

    def __init__(self) -> None:
        self.values: list[float] = []  # s per evaluation
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpus: list[float] = []  # process CPU s each sample took
        self._running = False
        self._handler_set = False

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        best = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            evaluate()
            best = min(best, time.perf_counter() - t0)
        self.cpus.append(time.process_time() - c0)
        self.values.append(best)
        self.starts.append(w0)
        self.ends.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        if self._running:  # a late signal after stop() takes no sample
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        """Sample every INTERVAL_S until stop(), wherever the main thread is."""
        if not self._handler_set:
            # left installed: a signal still pending at stop() finds it
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._handler_set = True
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._running = False

    def rescale(self, a: float, b: float) -> tuple[float, float]:
        """(s at the reference speed, s measured) of [a, b], both without the samples in it."""
        n = len(self.values)
        first = max(bisect.bisect_right(self.ends, a) - 1, 0)  # gap i lies between samples i-1 and i
        scaled = measured = 0.0
        for i in range(first, n + 1):
            lo = self.ends[i - 1] if i > 0 else -math.inf
            hi = self.starts[i] if i < n else math.inf
            if lo >= b:
                break
            overlap = min(b, hi) - max(a, lo)
            if overlap <= 0.0:
                continue
            around = [self.values[j] for j in (i - 1, i) if 0 <= j < n]
            scaled += overlap * NOMINAL_S * len(around) / sum(around)
            measured += overlap
        return scaled, measured

    def cpu_within(self, a: float, b: float) -> float:
        """Process CPU s of the samples that started in [a, b]."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)
        return sum(self.cpus[lo:hi])
