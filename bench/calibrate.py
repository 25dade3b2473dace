"""A fixed reference kernel that scales CPU times to one host speed.

The benchmark runs on virtual machines of a shared host, where the CPU time
of the same single-threaded work changed by a factor of up to two between
runs, and within one run from one second to the next, with no steal time
to show for it (presumably other tenants share the host's cores and
caches).  The kernel below is plain Python exact arithmetic of the kind
tdpair does (``fractions.Fraction`` elimination on a sparse dict matrix),
and it uses nothing from tdpair, so a change to the program does not
change it.

While a ``Sampler`` is active, a profiling-timer signal runs the kernel
every ``INTERVAL_S`` of the process's CPU time, in the middle of whatever
the process is doing, so the samples see the host's speed where the
measured work saw it.  A step's CPU time, less the handler's, times
``REFERENCE_S`` over the harmonic mean of the kernel times sampled during
the step, is its CPU time at the speed at which one kernel run takes
``REFERENCE_S`` seconds, about that of a quiet host.  (The samples fall
evenly in CPU time, so slow stretches get more of them; the harmonic mean
undoes that weighting, and also weighs a sample that an interrupt held up
the least.)
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.00125
INTERVAL_S = 0.01
MIN_SAMPLES = 8
SIZE = 9
SEED = 7


def _eliminate(rng: random.Random) -> dict:
    m = {
        (r, c): Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        for r in range(SIZE)
        for c in range(SIZE)
    }
    for i in range(SIZE):
        pivot = next(r for r in range(i, SIZE) if m.get((r, i), 0) != 0)
        for c in range(SIZE):
            m[i, c], m[pivot, c] = m.get((pivot, c), 0), m.get((i, c), 0)
        for r in range(i + 1, SIZE):
            f = m.get((r, i), 0) / m[i, i]
            if f:
                for c in range(i, SIZE):
                    m[r, c] = m.get((r, c), 0) - f * m.get((i, c), 0)
    return m


def kernel() -> float:
    """Run the fixed work once; return its CPU time in seconds."""
    # the thread's clock: while the timer is armed, the process's clock
    # advances only at scheduler ticks, coarser than one kernel run
    start = time.thread_time()
    _eliminate(random.Random(SEED))
    return time.thread_time() - start


class Sampler:
    """Samples the kernel from a ``SIGPROF`` handler while active.

    ``samples`` holds the kernel's CPU times and ``spent`` the CPU time of
    every handler call; ``mark()`` and ``scaled()`` turn a CPU time
    measured from a mark into seconds at the reference speed.  Entering
    takes ``MIN_SAMPLES`` samples at once, so a step too short to be
    sampled is scaled by the latest ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives while the kernel runs
            return
        self._busy = True
        start = time.thread_time()
        self.samples.append(kernel())
        self.spent += time.thread_time() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        for _ in range(MIN_SAMPLES):
            self._tick()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def own(self, cpu: float, since: tuple[int, float]) -> float:
        """``cpu`` measured from mark ``since`` to now, less the handler's."""
        return cpu - (self.spent - since[1])

    def scaled(self, cpu: float, since: tuple[int, float]) -> float:
        """``cpu`` measured from mark ``since`` to now, less the handler's,
        at the reference speed."""
        window = self.samples[since[0]:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        return self.own(cpu, since) * REFERENCE_S / statistics.harmonic_mean(window)
