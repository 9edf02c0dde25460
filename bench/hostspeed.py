"""Host-speed probe: samples how fast the host runs a fixed piece of
interpreter work while a pass is running.

The hosts this benchmark runs on change speed by up to 2x within a second
(shared cores), with process CPU time tracking wall time, so a time measured
in seconds mostly measures the neighbours.  The probe runs a fixed piece of
work from a SIGALRM handler every ``INTERVAL_S`` of wall time, under 0.5 % of
the time, and records how long it took.  The mean over an interval estimates
the host's slowdown over that interval, and a time is reported scaled to the
reference speed: ``seconds * REFERENCE_S / mean sample``.

The work mixes an interpreter loop with float formatting (``json.dumps``),
the two kinds of work the program spends most of its time in outside BLAS;
on the 2-core host the benchmark was tuned on, that mix tracked the slowdown
of both the stepping loop and JSON-lines emission better than either part
alone.  The handler only reads the clock and appends to a list, so the
program's state and outputs are untouched; interrupted system calls are
retried by the interpreter.
"""

from __future__ import annotations

import json
import signal
import time

INTERVAL_S = 0.025
LOOP = 500
FLOATS = [i * 0.1 for i in range(200)]
#: the sample's duration at the reference speed; it fixes the unit of the
#: scaled times (seconds on a host that runs the sample in this time), about
#: the fast state of a 2-core x86-64 cloud host under CPython 3.11
REFERENCE_S = 80e-6


class SpeedProbe:
    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        start = clock()
        x = 0
        for i in range(LOOP):
            x += i
        json.dumps(FLOATS)
        self.samples.append(clock() - start)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, first: int, last: int) -> float:
        """REFERENCE_S over the mean sample in [first, last); 1.0 when the
        interval was too short to hold a sample."""
        window = self.samples[first:last]
        return REFERENCE_S * len(window) / sum(window) if window else 1.0
