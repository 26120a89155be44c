"""A fixed reference computation that tracks how fast the host runs now.

The benchmark's hosts share their cores: the same ``run_trial_grid``
call was measured at 640 ms and at 1110 ms a few seconds apart, and
whole 20-second runs drifted by 15-20% with their seed fixed. So every
timed run interleaves this loop with its own work and scales each
stretch of work by ``REFERENCE_S / (mean time of the loops run just
before it)``: work done while the host is slow is scaled down by the
factor the loop was slowed by. The loop mixes interpreted Python, dict updates and NumPy
gathers and sorts, like the code it stands beside, and calls nothing
from the package under test, so both sides of a comparison run the
identical loop.
"""

from __future__ import annotations

import time

import numpy as np

#: the loop's duration on the reference host; scaled times are "ms as
#: if the loop took exactly this long"
REFERENCE_S = 0.020

#: calibrate again once the loop's share of the run falls below this
SHARE = 0.08

_rng = np.random.default_rng(20050606)
_VALUES = _rng.random(100_000)
_INDEX = _rng.integers(0, 100_000, size=100_000)


def loop_seconds() -> float:
    """Run the reference loop once; returns its wall time."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table: dict = {}
    for i in range(5_000):
        table[i % 97] = table.get(i % 97, 0) + 1
    np.sort(_VALUES[_INDEX])
    np.unique(_INDEX)
    return time.perf_counter() - start


class Calibration:
    """Interleaves the reference loop with measured work.

    Each stretch of work is scaled by the loops run just before it, so
    a slow spell of the host is scaled by what the loop saw during it.
    """

    def __init__(self) -> None:
        self.loops = 0
        self.loop_s = 0.0
        self.work_s = 0.0
        self._latest = REFERENCE_S

    def maybe_run(self) -> None:
        """Run the loop until its share of the time so far is ``SHARE``.

        Long stretches of work are followed by many loops, so the
        estimate has as many samples per second of work whatever the
        length of one call.
        """
        if not self.loops:
            loop_seconds()  # the first run pays for page faults and caches
        batch = []
        while not self.loops or self.loop_s < SHARE * (self.loop_s + self.work_s):
            batch.append(loop_seconds())
            self.loop_s += batch[-1]
            self.loops += 1
        if batch:
            self._latest = sum(batch) / len(batch)

    def scaled(self, seconds: float) -> float:
        """Count ``seconds`` of work; return them in reference seconds."""
        self.work_s += seconds
        return seconds * REFERENCE_S / self._latest

    @property
    def scale(self) -> float:
        """The run's mean factor from host seconds to reference seconds."""
        return REFERENCE_S / (self.loop_s / self.loops) if self.loops else 1.0
