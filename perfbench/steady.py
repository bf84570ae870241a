"""Program time, and the same time at a fixed reference speed of the host.

The host the benchmark was tuned on changes speed by up to 1.5 to 2
times, in states that last from well under a second to minutes, so
plain wall-clock times of the same code vary by more than any bound
the benchmark may set.  ``SteadyClock`` interleaves a fixed pure-Python
calibration loop with the code under test: a ``SIGALRM`` timer stops the
code every ``INTERVAL_S`` seconds and runs the loop once.  The time the
loop takes, against ``REFERENCE_S``, says how fast the host is running
at that moment, and the mean over all samples of a measurement gives the
factor that scales the measured time to the reference speed.

``now()`` reads ``time.perf_counter()`` less the time spent in the
calibration loop, so differences of ``now()`` are the time the code
under test ran.  The loop does not touch the package, so a change to
the package moves the scaled time as much as it moves the plain one.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# About the mean duration of one calibration() interleaved with the
# enumerate workload on the tuning host (Python 3.11.7, 2 shared vCPUs
# at 2.1 GHz), so scaled times read close to that host's wall-clock
# seconds.  It is a unit: changing it rescales every time metric.
REFERENCE_S = 0.0030

_GRAPH = (
    0b0110101, 0b1011010, 0b1100111, 0b0001011,
    0b1110100, 0b0101100, 0b1010001,
)


def _mix() -> int:
    seen: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(800):
        m = (i * 2654435761) & 0xFFFF
        b = bin(m).count("1")
        key = (m & 0xFF, b, m >> 8)
        seen[key] = seen.get(key, 0) + 1
        acc ^= (m << 3) | b
    order = sorted(seen, key=lambda k: (seen[k], k))
    return acc + len(order)


def _search() -> int:
    """Least row sequence over orderings of 4 of the 7 vertices of _GRAPH."""
    n, adj = len(_GRAPH), _GRAPH
    best: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []

    def descend(mask: int) -> None:
        nonlocal best
        if len(placed) == 4:
            if best is None or rows < best:
                best = rows.copy()
            return
        candidates = []
        for v in range(n):
            if mask >> v & 1:
                continue
            row = 0
            for q, w in enumerate(placed):
                if adj[v] >> w & 1:
                    row |= 1 << q
            candidates.append((row, v))
        candidates.sort()
        for row, v in candidates:
            placed.append(v)
            rows.append(row)
            descend(mask | 1 << v)
            rows.pop()
            placed.pop()

    descend(0)
    return sum(best)


def calibration() -> int:
    """The fixed loop whose duration measures the host's speed."""
    return _mix() + _search()


class SteadyClock:
    """Interleaves calibration with the code run inside ``with``."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def now(self) -> float:
        """perf_counter seconds, less the time spent calibrating."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.paused += took

    def _alarm(self, signum, frame) -> None:
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SteadyClock":
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.calibrate()

    def factor(self) -> float:
        """Multiply a time measured with now() by this to get reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)


# A fresh interpreter's first runs of the loop are slower than later ones.
for _ in range(3):
    calibration()
