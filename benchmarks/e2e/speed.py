"""An in-run probe of how fast the machine is right now.

On the shared 2-core box this benchmark was written on, the CPU's
effective speed wanders by a factor of two from one quarter-minute to the
next (a fixed kernel took 4.1–9.7 ms over one quarter-hour; see the
README), and every wall-clock number of the program wanders with it:
identical runs gave 54–136 workloads/s.  No number of repeats averages
that away, so each timed region carries a :class:`SpeedProbe`, and times
are reported as they would read on a machine of the reference speed:
``measured × REFERENCE_KERNEL_MS / (mean kernel time while measuring)``.

A sample is the **CPU time of the sampling thread** for one run of a
fixed small numpy + pure-python kernel — waiting for a core or for the
interpreter lock does not count, so it reads the machine, not the load
beside it.  The two virtual CPUs of the box do not slow down together, so
the probe has to sample where the work is: a single-client loop samples
inline, on its own thread, between two scripts (:meth:`SpeedProbe.sample`);
while tenant threads and servers keep both CPUs busy a background thread
samples every :data:`PERIOD_S` (:meth:`SpeedProbe.background`, about 2 %
of one core).  The kernel is never changed: it is the yardstick.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["REFERENCE_KERNEL_MS", "PERIOD_S", "SAMPLES_PER_TICK", "SpeedProbe", "kernel_ms"]

#: the kernel's CPU time on the reference machine (this box on a quiet spell, one thread busy)
REFERENCE_KERNEL_MS = 0.30
PERIOD_S = 0.02
SAMPLES_PER_TICK = 5

_VALUES = np.linspace(-3.0, 3.0, 20_000)


def kernel_ms() -> float:
    """CPU milliseconds the calling thread spends on the fixed kernel."""
    started = time.thread_time()
    total = float(np.tanh(_VALUES).sum())
    counts: dict[int, float] = {}
    for index in range(3000):
        counts[index % 97] = counts.get(index % 97, 0.0) + total
    return 1000.0 * (time.thread_time() - started)


class SpeedProbe:
    """Collects :func:`kernel_ms` samples over one timed region."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = SAMPLES_PER_TICK) -> None:
        """Take ``count`` samples on the calling thread, now."""
        self.samples.extend(kernel_ms() for _ in range(count))

    @contextmanager
    def background(self) -> Iterator[None]:
        """Sample from a thread of the probe's own while the block runs."""
        stop = threading.Event()

        def run() -> None:
            self.samples.append(kernel_ms())
            while not stop.wait(PERIOD_S):
                self.samples.append(kernel_ms())

        thread = threading.Thread(target=run, name="speed-probe", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    @property
    def kernel_ms(self) -> float:
        """Mean kernel time over the region: the machine's mean slowness."""
        return statistics.fmean(self.samples)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference machine the region ran; divide
        a measured time by it (multiply a rate) to read it at reference speed."""
        return self.kernel_ms / REFERENCE_KERNEL_MS
