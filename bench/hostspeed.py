"""Host-speed sampling for the benchmark's timings.

On a shared host the same work runs at very different speeds, depending on
what other tenants do: at full speed or up to about 2x slower, in spells
that last from a fraction of a second to more than a whole run.  So every
timed process also measures how fast the host runs ``probe()``, a fixed
slice of pure Python shaped like the package's hot loop (a sparse product
of dict polynomials), while the timed work runs.  ``run.py`` scales each
time by ``NOMINAL_S / probe time``: the time the work would have taken at
the host's full speed.  The raw times stay in the report.
"""

from __future__ import annotations

import signal
import time

# probe() at full speed on the host the benchmark was built on: one vCPU of
# a 2-vCPU x86-64 VM at 2.0 GHz, CPython 3.11.7 (the fastest of 1000 calls).
NOMINAL_S = 0.00112

_TERMS = list({(i, j): (7 * i + j) % 11 + 1 for i in range(30) for j in range(10)}.items())
_ROWS = _TERMS[:20]


def probe() -> float:
    """Seconds taken by a fixed 20 x 300-term slice of a dict-polynomial product."""
    start = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in _ROWS:
        for (a2, b2), c2 in _TERMS:
            key = (a1 + a2, b1 + b2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return time.perf_counter() - start


class SpeedSampler:
    """Runs ``probe()`` every PERIOD_S from a SIGALRM timer while the block runs.

    The probes take about 3% of the time.  ``clock()`` excludes them, so
    work timed with it does not include the sampling.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        elapsed = probe()
        self.times.append(elapsed)
        self.spent += elapsed

    def clock(self) -> float:
        """perf_counter() minus the time spent in probes so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no probe ran in between
                return now - spent

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
