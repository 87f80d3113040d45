"""Drift correction: a fixed pure-Python reference slice timed in thread CPU time.

A shared virtual machine slows down and speeds up by tens of percent,
over minutes and within a second, and the guest clocks cannot see it:
process CPU time tracks wall time throughout and steal time stays
small.  So every timed interval is bracketed by a fixed *reference slice*,
timed in thread CPU time once just before and once just after the
interval, and the interval is rescaled to the speed at which the slice
runs in nominal conditions::

    corrected = wall * S0 / mean(slice_before, slice_after)

An interval longer than :data:`SAMPLE_PERIOD_S` also gets a slice every
period while it runs, from a timer signal; the mean then runs over those
slices too, and their time is taken out of ``wall``.  Without them, a
2 s detection request would be rescaled by the speed of its first and
last millisecond.

Thread CPU time follows host slowdowns (the slice's instructions take
longer), but it is not inflated when the system under test competes for
the guest's cores, for example a daemon forking workers: time the
benchmark thread spends descheduled is not charged to the slice.  Such
competition therefore cannot make a change look faster.

This module must never import ``repro``: the ruler cannot depend on the
program it measures.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import Callable, List, Optional, Sequence, Tuple

#: Nominal slice time in seconds.  Fixed once; changing it rescales every
#: corrected time, so it is a constant, not a setting.
S0 = 0.0012

#: while an interval runs, a slice is also taken this often
SAMPLE_PERIOD_S = 0.025

_WORDS = tuple(f"w{i:03d}" for i in range(64))


def reference_slice() -> int:
    """A fixed mix of the operations the minimizer spends its time in.

    Integer bit operations on cube-sized masks, dict probes and inserts,
    list building, sorting and string joins.  Returns a checksum so the
    work cannot be skipped.
    """
    acc = 0
    memo = {}
    for i in range(600):
        a = (i * 2654435761) & 0xFFFFFFFF
        b = a ^ (a >> 7) ^ (i << 3)
        c = (a & b) | (~a & 0x5555)
        key = c & 0x3FF
        hit = memo.get(key)
        if hit is None:
            memo[key] = a
        else:
            acc ^= hit
        acc += bin(c).count("1")
    rows = [(x * 7919) % 1009 for x in range(400)]
    rows.sort()
    acc += rows[200]
    acc += len("".join(_WORDS[r & 63] for r in rows[:200]))
    return acc


def time_slice(slice_fn: Callable[[], object] = reference_slice) -> float:
    """Thread CPU seconds one call of ``slice_fn`` takes.

    The collector is off during the slice, so garbage the program left
    behind is never collected on the slice's clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        slice_fn()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def correct(wall: float, slices: Sequence[float]) -> float:
    """Rescale ``wall`` to nominal speed: ``wall * S0 / mean(slices)``."""
    return wall * S0 * len(slices) / sum(slices)


class DriftClock:
    """Times closed-loop intervals with a slice between consecutive ones.

    The slice after one interval is the slice before the next, so ``n``
    short intervals cost ``n + 1`` slices.  With a ``period``, create and
    use it in the main thread: it installs a ``SIGALRM`` handler for the
    in-interval slices.  Pass ``period=None`` when the timed work runs in
    another process: a slice taken while this thread waits would run
    alongside that work and compete with it.
    """

    def __init__(
        self,
        slice_fn: Callable[[], object] = reference_slice,
        period: Optional[float] = SAMPLE_PERIOD_S,
    ):
        self._slice_fn = slice_fn
        self.period = period
        #: (thread CPU s, wall s) of the slices taken inside the running interval
        self._inner: List[Tuple[float, float]] = []
        self._armed = False
        self._last = time_slice(slice_fn)
        #: every slice time taken, in order (kept for auditing)
        self.slices: List[float] = [self._last]

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._armed = False  # a slow slice must not nest
            start = time.perf_counter()
            spent = time_slice(self._slice_fn)
            self._inner.append((spent, time.perf_counter() - start))
            self._armed = True

    def measure(self, fn: Callable[[], object]) -> Tuple[object, float, float, float]:
        """Run ``fn``; return (result, corrected_s, wall_s, factor).

        ``wall_s`` excludes the in-interval slices, and
        ``corrected_s = wall_s * factor``.  Garbage is collected first, so
        an interval never pays for garbage an earlier one left behind: as
        in a fresh process, its collector work depends on itself alone.
        """
        gc.collect()
        self._inner = []
        if self.period:
            # never restored: a late signal must find a handler, which
            # ignores it, not the default action, which ends the process
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.period:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._armed = False
            end = time.perf_counter()
        wall = end - t0 - sum(w for _, w in self._inner)
        before = self._last
        self._last = after = time_slice(self._slice_fn)
        taken = [before] + [t for t, _ in self._inner] + [after]
        self.slices.extend(taken[1:])
        factor = correct(1.0, taken)
        return result, wall * factor, wall, factor
