"""Timing in reference seconds, which factor out the speed of a shared
machine.

On a virtual machine that shares its cores with other tenants, the speed of
the same pure-Python code swings by a quarter or more between seconds, far
more than a change to the program should be allowed to hide in.  The swings
are slow, though: two probes of about 2 ms taken one after the other agree
within a few per cent.  So while a Probe runs, a timer interrupts the program
every INTERVAL_S and runs a fixed probe computation that does not depend on
posetres.  Every stretch of time between two probes is rescaled by how long
the probes on either side took, against the NOMINAL_S they take on a machine
at reference speed:

    reference seconds = wall seconds * NOMINAL_S / probe seconds

where a probe's time is the median over it and its WINDOW neighbours on
either side, so that one probe held up by the host does not bend the time
around it.  The probes themselves are not counted.  A program that does
half the work takes half the reference seconds whatever the machine's speed
at the time; a machine that slows down slows the probes as much as the
program.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# Probe time at reference speed, the median probe time measured alone on a
# 2.1 GHz Xeon vCPU with Python 3.11.  Only a scale: every reference time is
# proportional to it.
NOMINAL_S = 0.002
# Neighbours on either side of a probe whose median gives its speed.
WINDOW = 2

_ROWS = [[Fraction((i * i + 3 * j * j + i * j) % 7 - 3) for j in range(8)]
         for i in range(6)]


def probe_work():
    """Fixed interpreter work in the mix posetres does: Fraction row
    reduction, dicts and sets of exponent tuples, and int bit masks."""
    rows = [list(r) for r in _ROWS]
    r = 0
    for c in range(8):
        piv = next((i for i in range(r, 6) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(6):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    counts = {}
    for i in range(400):
        t = tuple((i * j + j * j) % 4 for j in range(6))
        counts[t] = counts.get(t, 0) + 1
    keys = {tuple(sorted(k)) for k in counts}
    mask = 0
    for i in range(400):
        mask ^= (mask << 1 | i) & 0xFFFFFFFFFFFF
    return r, len(keys), mask


class Probe:
    """Run probe_work every INTERVAL_S on SIGALRM; log is a list of
    (start, end) perf_counter times of each probe."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.log = []
        self._old = None

    def _handler(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.log.append((start, end))

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        self._handler(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        self._handler(None, None)


class Timeline:
    """Reference seconds of wall intervals, from a probe log of the time
    around them."""

    def __init__(self, log, window=WINDOW):
        if not log:
            raise ValueError("no probes were taken")
        self.log = log
        self.starts = [s for s, _ in log]
        took = [e - s for s, e in log]
        self.speed = [NOMINAL_S / statistics.median(took[max(0, k - window):
                                                         k + window + 1])
                      for k in range(len(took))]

    def seconds(self, a, b):
        """Reference seconds of [a, b].  A gap between probes is scaled by
        the mean speed of the probes at its two ends, time before the first
        or after the last probe by that probe's speed; time inside probes is
        not counted."""
        log, speed = self.log, self.speed
        total = 0.0
        # Gap k runs from the end of probe k-1 to the start of probe k, open
        # before the first probe and after the last; a lies in gap k or in
        # probe k-1.
        k = bisect.bisect_right(self.starts, a)
        while k <= len(log):
            lo = log[k - 1][1] if k > 0 else float("-inf")
            if lo >= b:
                break
            hi = log[k][0] if k < len(log) else float("inf")
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                if k == 0:
                    factor = speed[0]
                elif k == len(log):
                    factor = speed[-1]
                else:
                    factor = (speed[k - 1] + speed[k]) / 2
                total += overlap * factor
            k += 1
        return total
