"""Host-speed sampler: a fixed reference kernel timed every 25 ms.

The shared 2-vCPU host this benchmark was written on alternates between
two CPU speeds about 1.8x apart, in phases of seconds to minutes; CPU time
moves with wall time, so equal work measured 2.0 s in one 30 s window and
3.2 s in the next.  To compare runs, a job's time is scaled by the speed
of a fixed pure-Python kernel measured during that same job.  A SIGALRM
handler runs the kernel between bytecodes of the job; its own time is
recorded, so callers subtract it from the job's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
STRIDE = 150


class SpeedSampler:
    """While entered, times the reference kernel every ``PERIOD_S`` seconds.

    The kernel adds 200 of 30000 preallocated Fractions, walking memory
    with a stride, so that its time follows the host's cache pressure the
    way carnot's does (a cache-resident kernel tracked the ``R^8`` job
    three times worse).  It takes about 0.3 ms on a fast phase, 0.6 ms on a
    slow one.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.ticked_s = 0.0
        self._data = [Fraction(i, i % 7 + 1) for i in range(STRIDE * 200)]
        self._previous = None

    def _kernel(self) -> Fraction:
        acc = Fraction(0)
        for x in self._data[len(self.samples) % STRIDE::STRIDE]:
            acc += x
        return acc

    def _tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.ticked_s += took

    def clock(self) -> float:
        """``time.perf_counter()`` minus all the time spent sampling so far."""
        return time.perf_counter() - self.ticked_s

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(3):  # a reference for the first jobs, before any tick
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float]:
        """Sampling time spent since ``mark``, and the mean kernel rate (1/s) since then.

        Ticks come at even times, so the mean of 1/kernel-time is the
        time-average speed: a job's time times that rate counts how many
        kernels the host could have run instead, however the speed moved
        during the job.  A job shorter than the period has no tick of its
        own; it takes the latest ones.
        """
        taken = self.samples[mark:]
        return sum(taken), statistics.fmean(1 / k for k in taken or self.samples[-3:])
