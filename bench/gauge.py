"""CPU-speed gauge: rescales measured times to a fixed reference speed.

On a shared host the same computation runs at very different speeds from
one moment to the next.  On the two-CPU host this benchmark was built on, a
fixed pure-Python loop of about 0.07 s took up to 0.19 s within one minute,
and whole ``t38-twisted2`` passes at fixed inputs took from 24 s to 43 s, in
spells of slow and fast minutes that no run length within the benchmark's
time budget averages out.  So while a measurement runs, a timer interrupts
it every ``INTERVAL_S`` seconds and times a fixed spin in the same thread
(about 0.12 ms, so the gauge takes about 2.5 % of the time).  The spin
samples the speed at which the measured code ran around it.  The time of a
span, spin time excluded, times the mean of ``REFERENCE_S / spin`` over the
span's samples, estimates how long the span would have taken at the
reference speed, at which the spin takes ``REFERENCE_S``.  A faster or
slower program moves that estimate in full; the host's speed drops out, as
far as the spin slows down by the same factor as the program.

Usage::

    with Gauge() as gauge:
        before = gauge.reading()
        work()
        span = gauge.span(before)   # span.raw_s, span.ref_s
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.005
# The spin multiplies two fixed sparse polynomials the way the package's
# polynomial product does: packed-integer exponent keys, (re, im) integer
# coefficient pairs, a dict of partial sums.  A plain integer loop tracked the
# program's slowdowns less well: over 30 repeats of one cell its rescaled
# times spread 2.6 % (interquartile range over median), this spin's 1.0 %,
# the raw times 12.6 %.  It is the benchmark's own code and never changes
# with the package.
LEFT = [((i * 0x10003) << 16 * (i % 3), (1000003 * i - 7, 999983 - 13 * i)) for i in range(6)]
RIGHT = [((j * 0x20001) << 16 * (j % 4), (-65537 * j + 11, 1048573 + 5 * j)) for j in range(12)]
ROUNDS = 4
# Seconds the spin takes at the reference speed: its typical fastest time on
# the two-CPU Xeon host (Python 3.11) this benchmark was built on.
REFERENCE_S = 1.2e-4


@dataclass(frozen=True)
class Reading:
    clock: float
    samples: int
    speed_sum: float
    spin_s: float


@dataclass(frozen=True)
class Span:
    raw_s: float  # wall time, spin time excluded
    ref_s: float  # the same, rescaled to the reference speed
    samples: int


def spin() -> float:
    """Seconds one fixed set of polynomial products takes."""
    start = perf_counter()
    for _ in range(ROUNDS):
        out = {}
        get = out.get
        for ea, (a1, b1) in LEFT:
            for eb, (a2, b2) in RIGHT:
                code = ea + eb
                ar = a1 * a2 - b1 * b2
                br = a1 * b2 + b1 * a2
                cur = get(code)
                out[code] = (ar, br) if cur is None else (ar + cur[0], br + cur[1])
    return perf_counter() - start


class Gauge:
    """Samples the speed of its own thread while installed (main thread only)."""

    def __init__(self):
        self.samples = 0
        self.speed_sum = 0.0
        self.spin_s = 0.0
        self._active = False
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        self.speed_sum += REFERENCE_S / spin()
        self.samples += 1
        # Re-armed after the spin, so samples never nest; not after __exit__,
        # where a sample already due may still run.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.spin_s += perf_counter() - start

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self) -> Reading:
        return Reading(perf_counter(), self.samples, self.speed_sum, self.spin_s)

    def span(self, before: Reading) -> Span:
        """The time since before, raw and at the reference speed.

        A span too short to hold a sample takes the mean speed of the whole
        gauge so far.
        """
        after = self.reading()
        raw = after.clock - before.clock - (after.spin_s - before.spin_s)
        samples = after.samples - before.samples
        if samples:
            speed = (after.speed_sum - before.speed_sum) / samples
        elif self.samples:
            speed = self.speed_sum / self.samples
        else:
            speed = REFERENCE_S / spin()
        return Span(raw, raw * speed, samples)
