"""A speed probe that turns measured seconds into reference seconds.

On a shared virtual machine the processor's speed changes while a run goes
on: on the 2-vCPU Xeon this benchmark was written on, the same code runs
about 1.5 times slower in some stretches than in others, and those stretches
last from under a second to minutes.  Raw times then spread between runs of
the same code by more than any regression worth catching.

The probe samples that speed inside the worker while it works.  A timer
signal interrupts the main thread every ``interval_s`` seconds and runs a
fixed piece of pure-Python code (``probe_work``: small objects, method calls
and frozensets, as the package itself does), once to warm the caches and once
timed.  The probe code never calls the package, so a change to the package
cannot change the yardstick.

A time measured while the probe ran is turned into reference seconds as

    (measured - time spent in the probe) * REFERENCE_S * mean(1 / probe time)

that is, the time the same work would take at the speed where the probe takes
REFERENCE_S.  With samples evenly spaced in time, ``mean(1 / probe time)`` is
the average speed over the span.  Because both the work and the probe slow
down together, reference seconds stay steady where raw seconds drift.
"""

import signal
import statistics
import time

# The probe's duration at the reference speed: about its median on the
# 2-vCPU Xeon the benchmark was written on, so reference seconds read close
# to seconds there.
REFERENCE_S = 500e-6


class _Node:
    __slots__ = ('rank', 'labels')

    def __init__(self, rank, labels):
        self.rank = rank
        self.labels = labels

    def meet(self, other):
        return _Node(min(self.rank, other.rank), self.labels & other.labels)


def probe_work():
    'The fixed work the probe times.'
    nodes = [_Node(i, frozenset((i % 5, i % 3))) for i in range(60)]
    seen = set()
    for x in nodes[:20]:
        for y in nodes[20:40]:
            seen.add(x.meet(y).labels)
    return len(seen)


class Probe:
    'Samples the speed every interval_s seconds between start() and stop().'

    def __init__(self, interval_s):
        self.interval_s = interval_s
        self.samples = []     # seconds per timed probe_work()
        self.spent_s = 0.0    # time the probe itself took, warm-up included
        self._previous = None

    @staticmethod
    def _time_probe():
        'Run probe_work twice; return (total seconds, seconds of the timed run).'
        began = time.perf_counter()
        probe_work()
        timed = time.perf_counter()
        probe_work()
        ended = time.perf_counter()
        return ended - began, ended - timed

    def _on_timer(self, signum, frame):
        spent, timed = self._time_probe()
        self.samples.append(timed)
        self.spent_s += spent

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a span shorter than the interval: sample right after it, which
            # is close enough in time and is not part of the measured span
            self.samples.append(self._time_probe()[1])

    def reference_seconds(self, measured_s):
        'Convert seconds measured while the probe ran (its own time included).'
        speed = statistics.fmean(1.0 / d for d in self.samples)
        return (measured_s - self.spent_s) * REFERENCE_S * speed
