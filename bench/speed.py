"""Machine speed, measured next to every timing the benchmark takes.

The virtual machines this benchmark runs on share their physical cores with
other tenants.  Their load slows all pure-Python work alike, by up to half,
for seconds at a time, and no steal time shows it; raw wall times of the same
requests then differ by 20-30% from one run to the next.  So every timing is
reported at a fixed reference speed: its wall time multiplied by
``REFERENCE_NS`` over the time a fixed reference loop takes at that moment.

The reference loop is the benchmark's own code and never touches permdl, so
a change that makes permdl slower or faster moves the scaled timings exactly
as it moves the raw ones; only the machine's momentary speed is divided out.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

# What the reference loop takes on an unloaded moment of the machine the first
# baseline was measured on (2-vCPU Xeon VM, CPython 3.11), so that scaled
# timings read close to raw ones there.
REFERENCE_NS = 900_000
TICK_S = 0.05
REUSE_NS = 10_000_000


def _reference_work() -> int:
    # Dict updates, tuple building and integer arithmetic: the same kind of
    # interpreter work permdl does, in a fixed amount.
    acc: dict[tuple[int, int], int] = {}
    word: tuple[int, ...] = ()
    for i in range(2500):
        key = (i & 255, i >> 8)
        acc[key] = acc.get(key, 0) + i
        word = tuple(range(i & 15)) if i & 1 else word
    return len(acc) + len(word)


def reference_ns(repeats: int = 2) -> int:
    """Fastest of a few runs of the reference loop, which drops one-off interruptions."""
    best = None
    for _ in range(repeats):
        start = perf_counter_ns()
        _reference_work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class SpeedTrack:
    """Reference samples before, during and after each timing.

    During a timing a timer signal takes a sample every ``TICK_S``, so a
    request lasting seconds is scaled by the speed the machine had while it
    ran, not only at its ends; the time those samples take is subtracted
    from the timing.  (Widening the average to samples taken around
    neighbouring requests made scaled timings noisier, not steadier.)
    """

    def __init__(self) -> None:
        self._samples: list[int] = []
        self._stolen_ns = 0
        self._last = (0, 0)  # (time, sample) of the last "after" sample

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        self._samples.append(reference_ns())
        self._stolen_ns += perf_counter_ns() - start

    def before(self) -> None:
        # Back-to-back timings share a sample: the last one's "after" is this one's "before".
        taken, sample = self._last
        self._samples = [sample if perf_counter_ns() - taken < REUSE_NS else reference_ns()]
        self._stolen_ns = 0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def after(self, wall_ns: int) -> tuple[int, float]:
        """(raw, scaled) nanoseconds of a timing of ``wall_ns`` that began at ``before``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._samples.append(reference_ns())
        self._last = (perf_counter_ns(), self._samples[-1])
        own_ns = wall_ns - self._stolen_ns
        return own_ns, own_ns * sum(REFERENCE_NS / ns for ns in self._samples) / len(self._samples)
