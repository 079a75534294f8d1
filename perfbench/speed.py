"""A speed probe: a fixed pure-Python job timed next to every timed op.

The speed of a shared VM changes many times a minute, in stretches of
0.1 s to tens of seconds, and a whole 40 s run can fall in a slow one
(see README.md, "How a run measures"). Each op is therefore timed between
two probes, and every `INTERVAL_S` of CPU time inside it a signal handler
runs one more. Each stretch between two probes is scaled by `REFERENCE_S`
over the faster of them, and the op's latency is the sum: the time the op
would have taken with the machine in the state in which the probe runs in
`REFERENCE_S`. The probes inside the op are subtracted from its time. The
probe does not touch fdc, so work the program adds or removes shows in
full.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# The probe's best time on the 2-core VM the README's figures come from.
REFERENCE_S = 66e-6
REPEATS = 3
INTERVAL_S = 0.02


def _job() -> int:
    table = {}
    for i in range(400):
        table[i] = (i, str(i))
    return sum(len(v[1]) for v in table.values())


def probe() -> float:
    """Best of REPEATS timed runs of the job, in seconds, with the cyclic
    collector off so that the heap the program leaves does not show."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            _job()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between probes that took
    `before` and `after` to the reference state."""
    return REFERENCE_S / min(before, after)


class Meter:
    """Times the code in its `with` block at the reference speed. `marks`
    holds one (start, end, probe time) triple per probe: the first just
    before the block, the last just after it, the others from the handler
    inside it."""

    def __enter__(self):
        self.marks = []
        p = probe()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        now = perf_counter()
        self.marks.append((now, now, p))
        return self

    def _sample(self, signum, frame):
        start = perf_counter()
        p = probe()
        self.marks.append((start, perf_counter(), p))

    def __exit__(self, *exc):
        now = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.marks.append((now, now, probe()))
        return False

    def _stretches(self):
        for (_, end, p0), (start, _, p1) in zip(self.marks, self.marks[1:]):
            yield start - end, scale(p0, p1)

    @property
    def wall(self) -> float:
        """Seconds the block took, less the probes inside it."""
        return sum(t for t, _ in self._stretches())

    @property
    def scaled(self) -> float:
        """The block's time at the reference speed, in seconds."""
        return sum(t * f for t, f in self._stretches())
