"""Machine-speed calibration interleaved with the measured work.

The reference machine (see REFERENCE_UNIT_S) shares its cores with
other tenants.  Their load changes the speed of pure-Python code by
30 % and more, in phases from a fraction of a second to minutes long,
so a phase can cover a whole run and no median or minimum within the
run removes it.  A fixed unit of the same kind of work slows down with
them.  While timing, an interval timer (SIGALRM, handled in the main
thread between bytecodes) runs the unit every INTERVAL_S, inside the
requests as well as between them, and the units' own time is taken
out of the request it interrupted.  End-to-end times are reported in
reference seconds: each measured interval is scaled by
REFERENCE_UNIT_S over the mean time of the units that ran during it
and of the last unit before it and the first after it.  The unit uses
only the standard library and calls no `pachner` code, so a change to
the program cannot move it.  README.md gives the measured effect.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import random
import signal
import statistics
import time

# Period of the unit while the timer runs.
INTERVAL_S = 0.2

# Duration of one unit on a quiet core of the reference machine (2 cores
# at 2.1 GHz, Python 3.11.7), so that reference seconds read as seconds
# there.
REFERENCE_UNIT_S = 0.011

_FACES = [tuple(sorted(random.Random(i).sample(range(40), 5)))
          for i in range(150)]


def unit():
    """Close a set of simplices under faces and count vertex degrees: the
    set, tuple and dict work of the move layers."""
    for _ in range(9):
        faces = set()
        for f in _FACES:
            for r in range(6):
                faces.update(itertools.combinations(f, r))
        degree = {}
        for f in faces:
            for v in f:
                degree[v] = degree.get(v, 0) + 1


class Calibrator:
    """Runs units on demand or from a timer, and keeps each unit's start
    and duration over one run."""

    def __init__(self):
        self.units = []      # durations, in start order
        self._starts = []
        self._timed = [0.0]  # running total of the timer's units
        self._timed_starts = []
        self._busy = False

    def _unit(self):
        self._busy = True
        start = time.perf_counter()
        unit()
        seconds = time.perf_counter() - start
        self._starts.append(start)
        self.units.append(seconds)
        self._busy = False
        return start, seconds

    def run(self):
        """Run one unit now."""
        self._unit()

    def _on_alarm(self, signum, frame):
        if not self._busy:
            start, seconds = self._unit()
            self._timed_starts.append(start)
            self._timed.append(self._timed[-1] + seconds)

    @contextlib.contextmanager
    def interleaved(self):
        """Run a unit every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def seconds(self, start, end):
        """The time from `start` to `end` (perf_counter readings) less
        the time of the timer's units in between."""
        first = bisect.bisect_left(self._timed_starts, start)
        last = bisect.bisect_right(self._timed_starts, end)
        return end - start - (self._timed[last] - self._timed[first])

    def covered(self, end):
        """Whether a unit has started after `end`."""
        return bool(self._starts) and self._starts[-1] > end

    def scale(self, seconds, start, end):
        """Reference seconds for `seconds` of work done from `start` to
        `end`; a unit must have run before `start` and after `end`."""
        first = bisect.bisect_right(self._starts, start) - 1
        last = bisect.bisect_right(self._starts, end)
        assert first >= 0 and last < len(self.units), "unbracketed interval"
        return seconds * REFERENCE_UNIT_S / statistics.fmean(
            self.units[first:last + 1])

    def factor(self):
        """Reference seconds per measured second at the run's median
        unit, for the record only."""
        return REFERENCE_UNIT_S / statistics.median(self.units)
