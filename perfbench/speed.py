"""A clock that measures work in nominal seconds, at a fixed machine speed.

On a shared host the speed of plain Python code drifts by up to 1.6x over
seconds to minutes, so wall times of the same work spread widely from run
to run.  ``NominalClock`` follows the drift with a fixed calibration loop:
every ``TICK_S`` seconds a timer signal runs the loop once, and the clock
then advances at the rate of one ``NOMINAL_S`` per loop time measured.
Work timed with it reads the same whether the machine ran fast or slow,
while a change to the code under test moves it as it moves wall time.

Time spent in the signal handler is not counted.  The loop does what
interpreted code mostly does: it builds small tuples and lists and looks
them up in a dict.  On a shared host that slows down with zetakit's own
code, while a loop of plain integer arithmetic slows less and a loop over
a large array slows differently.  The collector is off while the loop
runs, and the loop frees all it allocates, so it neither starts nor puts
off a collection in the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

_wall = time.perf_counter

CHUNK = 550  # loop iterations; about 100 us at full speed on a Xeon vCPU with Python 3.11
NOMINAL_S = 100e-6  # nominal seconds the clock advances per loop time
TICK_S = 0.01  # wall seconds between two runs of the loop
SMOOTHING = 0.3  # weight of the newest loop time in the speed estimate
_TABLE = {(i, i + 1): i for i in range(CHUNK)}


def _calibration_loop() -> int:
    s = 0
    table = _TABLE
    for i in range(CHUNK):
        key = (i, i + 1)
        pair = [key, key]
        s += table[key] + len(pair)
    return s


def _loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = _wall()
        _calibration_loop()
        return _wall() - t0
    finally:
        if enabled:
            gc.enable()


class NominalClock:
    """Start it, read ``now()`` around the work, stop it.

    The loop time is smoothed over the last few ticks, so one tick that an
    interrupt lengthened moves the speed estimate only a little.
    """

    def __init__(self):
        self.ticks = 0
        self._units = 0.0  # loop times elapsed up to self._last
        self._last = 0.0
        self._loop_s = 0.0
        self._previous = None

    def start(self) -> "NominalClock":
        self._loop_s = statistics.median(_loop_seconds() for _ in range(5))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = _wall()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        entered = _wall()
        self._units += (entered - self._last) / self._loop_s
        loop_s = _loop_seconds()
        self._loop_s += SMOOTHING * (loop_s - self._loop_s)
        self._last = _wall()
        self.ticks += 1

    def now(self) -> float:
        """Nominal seconds since ``start``."""
        while True:
            ticks = self.ticks
            units = self._units + (_wall() - self._last) / self._loop_s
            if ticks == self.ticks:  # no tick came between the reads
                return units * NOMINAL_S
