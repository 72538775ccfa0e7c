"""Host-speed sampler for a noisy shared host.

A timer signal interrupts the process SAMPLE_HZ times a second and times a
fixed reference loop in its handler, on the same thread and core as the work
being measured. The loop's duration at a moment says how fast the host runs
then, so each measured interval carries its own reading of host speed, and a
time can be scaled to what it would be on the reference host. The handler
costs about 1% of the process's time, the same share on every commit.

The module imports only builtins at load time, so a fresh interpreter can
sample while it times `import pairtrade.cli` without preloading anything that
import needs.
"""

from __future__ import annotations

import math
import signal
import time

SAMPLE_HZ = 20
# Durations of the loops on an idle core of the reference host; see README.
REF_S = 4.0e-4
OBJECT_REF_S = 2.3e-4


class _Point:
    """A small validated immutable object, like the program's price points."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(x)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError(name)


def object_loop() -> float:
    """Duration of the pure-Python half of the reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        p = _Point(1.0 + i, 2.0)
        acc += math.log(p.x) - 2.0 * math.log(p.y)
    return time.perf_counter() - t0


_grid = None


def spin() -> float:
    """Duration of the reference loop: small-array numpy calls, then
    object_loop, the two kinds of work the workloads do. On the reference
    host the workloads' round times followed this loop one for one (slopes
    0.97 to 1.13) and more closely than a bare integer loop; see README."""
    global _grid
    if _grid is None:
        import numpy as np

        _grid = np.linspace(0.95, 1.05, 43)
    t0 = time.perf_counter()
    for _ in range(8):
        float(abs(_grid[:, None] * _grid[None, :] - 1.0).max())
    return time.perf_counter() - t0 + object_loop()


class HostClock:
    """Samples a reference loop from SIGALRM between start() and stop()."""

    def __init__(self, loop=spin, ref_s: float = REF_S) -> None:
        self.loop = loop
        self.ref_s = ref_s
        self.samples: list[tuple[float, float]] = []  # (when, loop duration)

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        self.samples.append((now, self.loop()))

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / SAMPLE_HZ, 1.0 / SAMPLE_HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference host the host ran over
        [start, end): the time-weighted harmonic mean of the loop durations
        over the reference, so that time / slowdown is the time on the
        reference host. Falls back to every sample when none fell inside."""
        inside = [d for t, d in self.samples if start <= t < end]
        return _harmonic_mean(inside or [d for _, d in self.samples]) / self.ref_s

    def mean_loop_s(self) -> float:
        return _harmonic_mean([d for _, d in self.samples])


def _harmonic_mean(values: list[float]) -> float:
    return len(values) / sum(1.0 / v for v in values)
