"""Machine speed, read from one fixed reference computation.

On a shared host the speed of a core can change by 1.5x or more within a few
seconds, for minutes at a time, and this moves every wall-clock figure
together. Every timed call is therefore followed by a short reference
computation. The call's wall time is divided by the mean of the reference
times just before and just after it, then multiplied by the reference's
nominal duration. The result is the call's duration at the speed at which the
reference takes its nominal time. The raw wall times are reported next to the
scaled ones.

Every call is scaled by the same reference, whatever its code does. The
reference mixes a pure-Python loop with small- and medium-array numpy calls,
the two kinds of work the package does, so that a change of a call's code mix
does not change the yardstick it is measured with.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.arange(256.0)
_MEDIUM = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)

# Runs of the reference per sample; the sample is their median.
REPEATS = 5
# Nominal duration: a scaled time is the call's duration at the speed at which
# the reference takes this long. On the 2-vCPU Xeon host the benchmark was
# defined on, in-run medians of the reference were 2.2-2.8 ms.
NOMINAL_S = 0.0025


def reference_work() -> float:
    """A pure-Python loop, like the MCMC chains and the CSV parser, then
    numpy calls, like the sequential samplers."""
    acc = 0
    for i in range(16_000):
        acc += i * i % 7
    total = float(acc)
    for i in range(30):
        total += float(np.exp(-_SMALL * (i % 7)).sum())
        if i % 10 == 0:
            total += float(np.cumsum(_MEDIUM * (i % 5), axis=1)[:, -1].sum())
    return total


class Pace:
    def __init__(self):
        self.samples: list[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        """Median duration of ``REPEATS`` runs of the reference, now."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
        now = statistics.median(times)
        self.samples.append(now)
        return now

    def restart(self) -> None:
        """Sample anew before the next timed call, after untimed work."""
        self.last = self.sample()

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self, seconds: float) -> float:
        """Rescale the wall time of a call that has just returned."""
        before, self.last = self.last, self.sample()
        return seconds * NOMINAL_S / ((before + self.last) / 2)
