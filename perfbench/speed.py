"""Reference loops that measure how fast the machine runs right now.

The benchmark's host changes speed by 20 to 70 percent from one minute to
the next (other tenants share its cores and memory), which no run length
averages away.  So each timed segment is bracketed by a fixed reference
loop, and its time is rescaled to the speed at which that loop takes its
nominal time:

    t_ref = t_segment * NOMINAL_S / mean(loop before, loop after)

Interpreter-bound work is referred to a pure-Python loop, work that
streams large arrays to an allocate-fill-multiply loop over a 16 MB matrix.
The nominal times are the loops' median times on the 2-core machine where
the bounds were set, so a value in reference seconds reads close to wall
seconds there.  None of the loops touches polyagraph, so a change to the
library moves the rescaled time exactly as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

PYTHON_NOMINAL_S = 0.016
STREAM_NOMINAL_S = 0.020


def python_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - t0


def stream_loop() -> float:
    import numpy as np

    x = np.ones(2000)
    t0 = perf_counter()
    for _ in range(8):
        a = np.empty((1000, 2000))
        a.fill(1.0)
        a @ x
    return perf_counter() - t0


REFERENCES = {
    "python": (python_loop, PYTHON_NOMINAL_S),
    "stream": (stream_loop, STREAM_NOMINAL_S),
}


class Clock:
    """Accumulates segment times, raw and rescaled by the reference loop."""

    def __init__(self, kind: str):
        self.loop, self.nominal = REFERENCES[kind]
        self.raw = 0.0
        self.ref = 0.0
        self.loop_times: list[float] = []
        self._before = self.loop()

    def segment(self, seconds: float) -> float:
        """Close a segment of ``seconds`` that started after the last loop;
        returns it in reference seconds."""
        after = self.loop()
        self.loop_times.append(after)
        ref = seconds * self.nominal / ((self._before + after) / 2)
        self.raw += seconds
        self.ref += ref
        self._before = after
        return ref
