"""Machine-speed calibration: times scaled to a fixed machine speed.

On a small shared host the speed of a fixed loop is not fixed.  It switches
between states that last from half a second to minutes, and a pure-Python
loop runs up to 1.8 times slower in the slow state than in the fast one.
That swing is wider than any bound a benchmark can set, and it moves CPU time
as much as wall time, so no statistic over a run removes it.

A ``SpeedClock`` therefore runs a fixed probe, which is frozen benchmark code
that never calls the program, at most every ``EVERY_S`` seconds between the
program's operations, and scales each measured duration by
``nominal / probe time``, with the probe time taken as the mean of the probes
just before and just after the duration.  The program's cost relative to the
frozen probe then stays put while the host changes state.  A change to the
program moves the scaled times and leaves the probe as it is.  The scaled
times read as seconds on the host described at ``NOMINAL``, in its fast
state: ``NOMINAL`` holds the probe times measured there.

Two probes match the two kinds of work.  ``numpy`` copies the shape of the
lex best-reply kernel on the 120/6 game: five max-plus stages through
sliding windows, then the argmax backtrack.  ``python`` is a pure-Python
max-plus loop over small ints, like the exact side's budget DP, with a
little ``Fraction`` arithmetic.  A probe takes a quarter of a millisecond in
the fast state; probing often with one run per sample follows short slow
spells better than probing seldom with several runs per sample.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

EVERY_S = 0.007  # probe at most this often: about 4% of the run

_N, _K = 120, 6
_VALUES = np.random.default_rng(12345).integers(0, 10**9, _N + 1).astype(np.int64)
_ROW = [int(v) % 997 for v in _VALUES]


def _numpy_probe() -> int:
    n = _N
    stages = np.empty((_K, n + 1), dtype=np.int64)
    stages[0] = _VALUES
    pad = np.empty(2 * n + 1, dtype=np.int64)
    pad[:n] = -(2**62)
    head = _VALUES[:, None]
    for c in range(1, _K):
        pad[n:] = stages[c - 1]
        windows = np.lib.stride_tricks.sliding_window_view(pad, n + 1)
        stages[c] = (head + windows[::-1]).max(axis=0)
    r, total = n, 0
    for c in range(_K - 1, 0, -1):
        cand = _VALUES[: r + 1] + stages[c - 1][r::-1]
        x = int(np.nonzero(cand == stages[c][r])[0][0])
        total += x
        r -= x
    return total


def _python_probe() -> Fraction:
    row = _ROW
    prev = row
    prev = [max(row[x] + prev[r - x] for x in range(0, r + 1, 8)) for r in range(_N + 1)]
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(prev[i], 3 * i + 1)
    return acc


PROBES = {"numpy": _numpy_probe, "python": _python_probe}
# Probe times (seconds) in the fast state of a 2-vCPU shared x86-64 host,
# Python 3.11, numpy 2.4: the 10th percentile over 20 s of back-to-back runs.
# They only fix the scale of the reports.
NOMINAL = {"numpy": 220e-6, "python": 245e-6}


def probe_time(kind: str) -> float:
    """Seconds one run of a probe takes."""
    probe = PROBES[kind]
    start = perf_counter()
    probe()
    return perf_counter() - start


class SpeedClock:
    """Probe samples in time order, and durations scaled by the samples around them."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal = NOMINAL[kind]
        self.times: "list[float]" = []  # when each sample ended
        self.samples: "list[float]" = []  # probe time of each sample
        self.probe_s = 0.0  # time spent probing

    def sample(self, force: bool = False) -> None:
        """Take a probe sample if ``EVERY_S`` has passed since the last one."""
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= EVERY_S:
            self.samples.append(probe_time(self.kind))
            self.times.append(perf_counter())
            self.probe_s += self.times[-1] - now

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in fast-state seconds.

        The interval is cut at the samples that end inside it.  Each piece is
        scaled by the mean probe time of the samples on either side of it, or
        by the one that exists before the first or after the last sample.
        """
        first = bisect.bisect_right(self.times, start)
        edges = [start, *self.times[first : bisect.bisect_left(self.times, end)], end]
        total = 0.0
        for piece, (a, b) in enumerate(zip(edges, edges[1:])):
            before = first - 1 + piece
            around = [self.samples[i] for i in (before, before + 1) if 0 <= i < len(self.samples)]
            total += (b - a) * len(around) / sum(around)
        return total * self.nominal

    def speed(self) -> float:
        """Median probe speed so far, relative to the fast state."""
        return self.nominal / statistics.median(self.samples)
