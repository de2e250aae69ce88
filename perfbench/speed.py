"""The host's speed, measured while the program runs, and times scaled by it.

The benchmark runs on a few cores of a shared host, whose speed drifts by up
to 2x in spells of seconds to minutes, alike for any pure-Python code.  A
probe times a fixed reference loop, apart from the program, every
``PROBE_PERIOD`` seconds while a command runs.  Each stretch of the command's
time is scaled by ``REF_S`` over the loop's time at the stretch's end: what
the stretch would take on a host running the loop in ``REF_S`` seconds.  The
probe's own time is left out of both the measured and the scaled time.

A change to the program moves the scaled time as it moves the measured time;
only the host's drift, which moves the reference loop too, is taken out.
"""

from __future__ import annotations

import signal
import time

# The reference loop's median time on the host the bounds were set on
# (2 vCPUs of a shared Xeon VM, CPython 3.11), so a scaled time reads in
# seconds of that host.
REF_S = 6.0e-4
PROBE_PERIOD = 0.05


def reference_loop() -> int:
    """Big-integer arithmetic, a small dict and tuples: the kind of work the
    pure-Python program does, on none of its code."""
    s, d = 0, {}
    a = 12345678901234567890
    for i in range(1500):
        s = (s * 31 + a * i) % 1000000007
        d[i & 15] = (s, i)
    return s


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Probe:
    """Between ``start()`` and ``stop()``, a timer signal times the reference
    loop every ``period`` seconds, and ``stop()`` times it once more.
    ``stop()`` returns the measured and the scaled time of the interval, both
    without the probe's own time.  With ``period`` 0 the loop runs only at
    ``stop()``."""

    def __init__(self, period: float = PROBE_PERIOD):
        self.period = period
        self.samples = 0
        self._running = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self) -> None:
        self.measured = self.scaled = 0.0
        self._since = time.perf_counter()
        self._running = True
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def _close(self) -> None:
        stretch = time.perf_counter() - self._since
        ref = reference_time()
        self.measured += stretch
        self.scaled += stretch * REF_S / ref
        self.samples += 1
        self._since = time.perf_counter()

    def _sample(self, signum, frame) -> None:
        if self._running:       # a signal may still arrive after stop()
            self._close()

    def stop(self) -> tuple[float, float]:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close()
        return self.measured, self.scaled
