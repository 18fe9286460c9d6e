"""A clock that reads seconds at a fixed reference CPU speed.

Shared small machines change speed by 1.5x and more for seconds to minutes
at a time, as other tenants come and go; raw wall times of the same job list
then spread by 30-50% between runs.  ``RefClock`` measures the machine's
current speed with a fixed, stdlib-only interpreter loop (row reduction of
a 20x20 matrix mod a prime, then Fraction and dict work) that shares no code
with periodica, so a change to periodica cannot move it.  SIGALRM runs the loop
every ``PERIOD_S``; between samples the clock advances at
``REF_LOOP_S / t_loop``, with ``t_loop`` the median of the last few loop
times, and it stands still while the loop itself runs.  A job that takes
``t`` raw seconds while the loop takes ``t_loop`` reads
``t * REF_LOOP_S / t_loop``: the time it would take where the loop takes
``REF_LOOP_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
REF_LOOP_S = 0.0006       # the loop's time on a quiet 2-core sandbox
WINDOW = 3                # loop samples in the running median


_SIZE = 20
_P = 1000003
_MATRIX = [[(i * 7919 + j * 104729 + i * j) % _P for j in range(_SIZE)]
           for i in range(_SIZE)]


def calibration_loop():
    """Row-reduce a fixed 20x20 matrix mod a prime, then some Fraction and
    dict work: list-heavy interpreter code of the kind periodica runs."""
    rows = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_SIZE):
        piv = next((i for i in range(r, _SIZE) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], _P - 2, _P)
        top = rows[r] = [x * inv % _P for x in rows[r]]
        for i in range(_SIZE):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % _P for a, b in zip(rows[i], top)]
        r += 1
    q = Fraction(0)
    table = {}
    for i in range(1, 40):
        q += Fraction(i, i + 1) * Fraction(rows[i % _SIZE][0] % 13 + 1, i + 2)
        table[(i, q.denominator % 7)] = q
    return r, q, len(table)


class RefClock:
    """Reference-speed seconds; ``start()`` before use, ``stop()`` after."""

    def __init__(self):
        self.samples = []
        self._ref = 0.0           # reference seconds up to ``_last``
        self._last = 0.0          # perf_counter when the last sample ended
        self._rate = 1.0
        self._gen = 0             # bumped by every sample

    def _sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self._ref += (t0 - self._last) * self._rate
        self.samples.append(t1 - t0)
        self._rate = REF_LOOP_S / statistics.median(self.samples[-WINDOW:])
        self._last = t1
        self._gen += 1

    def start(self) -> None:
        self._last = time.perf_counter()
        for _ in range(WINDOW):
            self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:               # retry if a sample lands mid-read
            gen = self._gen
            value = self._ref + (time.perf_counter() - self._last) * self._rate
            if gen == self._gen:
                return value
