"""The machine's speed, sampled while the queries run.

A shared host runs the same Python code up to twice as fast at one
moment as at another: the speed flips between states within fractions of
a second, and the share of time in each drifts over minutes.  A wall
time alone therefore tells the program's cost and the host's load apart
by no more than that.  So while a query runs, a profiling timer
(SIGPROF, every INTERVAL_S of CPU time) interrupts it with one unit: a
fixed computation of the benchmark's own, timed.  Each timing metric is
scaled to a reference speed:

    scaled time = wall time * REFERENCE_UNIT_S / harmonic mean unit time

The samples are spread evenly over the time, so the harmonic mean of the
unit times gives the mean speed over the time measured.  The unit is a
product of two fixed polynomials with the benchmark's own arithmetic
(oracle.py): pure-Python dict and Fraction work, as the program does,
but no orediamond code, so no change to the program makes it faster or
slower.  The collector is off while a unit runs, so that the program's
live objects do not enter its time, and the time spent in units is
taken out of the query's time.
"""

import gc
import signal
import statistics
import time

import oracle

# Unit time on the 2-core machine the benchmark was written on, in its
# slower state; scaled times are seconds at that speed.
REFERENCE_UNIT_S = 0.0004

# CPU seconds between two units while a query runs: a unit costs about
# 0.2-0.4 ms, so the sampler takes about 2% of the time.
INTERVAL_S = 0.02

_A = oracle.parse_poly("2*x^2*y - 3*x*y + y^2 - 1 + 5*x^3 - 7*y^3")
_B = oracle.parse_poly("x^3 - 2*x*y^2 + 5*y - 4*x^2*y^2 + 3*x^2 - y + 2 + x*y")


def unit():
    """Seconds taken by one unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        oracle.mul(_A, _B)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Unit times, from the sampler while it is on."""

    def __init__(self):
        self.units = []
        self.spent = 0.0  # seconds the sampler has taken from the program
        self._busy = False

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.units.append(unit())
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        """A position in the samples, for factor()."""
        return len(self.units)

    def factor(self, start=0, end=None):
        """REFERENCE_UNIT_S / harmonic mean unit time of the samples
        between two marks: the factor that scales a wall time taken
        meanwhile.  With no sample there, one is taken now."""
        units = self.units[start:end]
        if not units:
            units = [unit()]
            self.units += units
        return REFERENCE_UNIT_S / statistics.harmonic_mean(units)
