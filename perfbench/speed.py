"""The interpreter's speed, sampled while the benchmark's inputs run.

On a shared host the speed of the same single-threaded Python code
drifts by tens of percent, within seconds and from one run to the next,
while CPU time tracks wall time: the drift comes from contention for the
cores' shared resources, not from waiting for a core.  It moves all
interpreted code alike, so a fixed piece of reference work timed at the
same moments as the program measures it.

While a ``Probe`` is active, a profiling timer interrupts the program
after every ``SAMPLE_EVERY_S`` of CPU time and times one reference unit:
a product of two 8x8 matrices of ``Fraction`` entries through
``numpy.einsum``, the operation hopfcross spends most of its time in.
The samples are spread evenly over the measured work, so their mean is
the speed the work ran at.  ``at_nominal`` scales a time measured at
that speed to the speed at which one unit takes ``NOMINAL_UNIT_S``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

SAMPLE_EVERY_S = 0.05
# One reference unit on a 2-core x86 box at its usual speed; it only
# fixes the scale of the reported seconds.
NOMINAL_UNIT_S = 3.0e-3

_UNIT = np.array([[Fraction(7 * i + j, j + 2) for j in range(8)]
                  for i in range(8)], dtype=object)
# Bound here, before any tracer replaces numpy.einsum.
_einsum = np.einsum


class Probe:
    """Context manager that samples the reference unit while it is
    active.  ``ref_s`` and ``units`` only grow, so a caller reads them
    before and after a stretch of work to get that stretch's samples.
    ``on_sample(start, end)``, when given, is told of each sample."""

    def __init__(self, on_sample=None):
        self.ref_s = 0.0
        self.units = 0
        self.on_sample = on_sample

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _einsum("ij,jk->ik", _UNIT, _UNIT)
        end = time.perf_counter()
        self.ref_s += end - start
        self.units += 1
        if self.on_sample is not None:
            self.on_sample(start, end)

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False


def at_nominal(seconds, ref_s, units):
    """``seconds`` measured while ``units`` reference units took
    ``ref_s``, scaled to nominal speed; unscaled without samples."""
    if units == 0 or ref_s <= 0:
        return seconds
    return seconds * NOMINAL_UNIT_S * units / ref_s
