"""A speedometer for the CPU this process runs on.

On the shared host the baseline comes from, the speed of one vCPU switches
between two levels about 1.7 times apart, every few seconds, and the two
vCPUs switch independently. CPU time moves with it, so neither wall nor CPU
time of a job repeats between runs; what share of a run falls in the slow
level sets its median.

While a job runs, a profiling timer interrupts the process every
``INTERVAL_S`` of its CPU time and runs ``calibrate``, a fixed loop of
interpreter work like the program's. Each sample measures the speed at that
moment. A job's own time is its wall time minus the time spent in samples;
its reference time is its own time times the mean of ``REFERENCE_S /
sample`` over the samples taken just before and during it: the time the job
would take on a CPU that runs the loop in ``REFERENCE_S``. Only the parent
process is sampled; time a job waits on pool workers is scaled by the
parent's speed.
"""

from __future__ import annotations

import contextlib
import signal
import time

INTERVAL_S = 0.05
# the loop's time at the fast level of the 2-vCPU Xeon VM of the baseline
REFERENCE_S = 0.001
_LOOPS = 1000


def calibrate():
    """Seconds one fixed loop of dict, set and tuple work takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOPS):
        d = {("a", i % 7): i, ("b", i % 5): i}
        s = set(d) | {("c", i % 3)}
        acc += len(s) + sum(k[1] for k in d)
    return time.perf_counter() - start


class Speedometer:
    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent sampling, handler included

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def mark(self):
        """Sample once, then return where a job that starts now begins."""
        self._sample()
        return len(self.samples) - 1, self.spent

    def timed(self, fn):
        """Call ``fn`` with the speedometer running; (result, own s, reference s)."""
        with self.running():
            mark = self.mark()
            start = time.perf_counter()
            result = fn()
            own, reference = self.job(mark, time.perf_counter() - start)
        return result, own, reference

    def job(self, mark, wall_s):
        """(own s, reference s) of a job that began at ``mark`` and took ``wall_s``."""
        first, spent = mark
        own = wall_s - (self.spent - spent)
        samples = self.samples[first:]
        return own, own * sum(REFERENCE_S / s for s in samples) / len(samples)
