"""Machine-speed probe: scales measured times to a fixed machine speed.

On a shared host, other tenants slow this process down by up to half
for seconds at a time.  CPU time slows with wall time, so the slowdown is
in the hardware, not in scheduling, and no statistic of wall times
alone removes it: on a shared two-core machine, the fastest pass of a
run still spread 20-38% between runs.

While a ``SpeedProbe`` is started, a SIGALRM every ``INTERVAL_S`` runs a
fixed probe and records how long it took.  The probe does the two kinds
of arithmetic the workloads do: exact rationals and 55-digit mpmath
numbers.  A tight integer loop followed the slowdown of the workloads
less closely.  A timed interval is then reported at reference speed:

    scaled = (wall - probe time inside it) * mean(REF_S / probe time)

over the probe samples taken inside the interval.  Samples are evenly
spaced in time, so the mean is the average speed over the interval, and
the result is the wall time the same work takes on a machine where the
probe takes ``REF_S``.  The probe costs 2-4% of the wall time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import mpmath

INTERVAL_S = 0.01
#: Typical time of the probe when it interrupts a workload (Python 3.11,
#: mpmath 1.3, a 2-core Xeon VM); it only sets the scale of the reported times.
REF_S = 4.0e-4
#: Samples used for an interval too short to contain one.
FALLBACK = 8

_FRACTIONS = [Fraction(3 * i + 1, 7 * i + 5) for i in range(20)]


def _probe():
    s = Fraction(0)
    for a in _FRACTIONS:
        s = s * a + a
    # workdps restores the precision of any code the signal interrupted
    with mpmath.workdps(55):
        x = mpmath.mpf(1) / 3
        t = mpmath.mpf(0)
        for i in range(30):
            t = t * x + mpmath.mpf(i) / 7
    return s, t


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        _probe()  # the first call pays for mpmath's first use
        for _ in range(FALLBACK):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Position to pass to ``scale`` at the start of an interval."""
        return len(self.samples)

    def scale(self, wall: float, mark: int) -> float:
        """``wall`` seconds measured since ``mark``, at reference speed."""
        inside = self.samples[mark:]
        basis = inside or self.samples[-FALLBACK:]
        factor = sum(REF_S / d for d in basis) / len(basis)
        return (wall - sum(inside)) * factor
