"""Machine-speed probes, timed right before every operation.

The shared host this benchmark was built on changes speed by up to +-30%
over tens of seconds (co-tenants on the same cores; process CPU time moves
with wall time, so nothing inside the run can filter it out).  A fixed
piece of work that uses no ldacs_sync code slows down with the machine.
Dividing each operation's time by the probe time taken just before it
cancels most of that drift: on the build host, the run-to-run spread of
sweep throughput fell from 0.15-0.20 raw to 0.05-0.09, and a 13% slowdown
of the machine between two sets of stream_scan runs showed as 4%.

Two probes, matched to what the workload spends its time on:

    cpu  Python loop plus numpy exp on 2 k-element arrays (interpreter and
         small-array dispatch, like a campaign trial)
    mem  cumsum between two preallocated 8 MiB arrays (streaming memory
         traffic past L2, like the metric kernel over a long capture).
         Preallocated because the cost of fresh large allocations depends
         on the allocator's state, which differs from process to process.

A normalised time is a set-up or operation time in units of the probe
time, multiplied by the probe's reference_s (about its median on the build
host, a 2-CPU shared Xeon VM), so times read as if the machine always ran
at the speed where the probe takes exactly reference_s.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_X = np.arange(2048) * 0.01
_MEM_SAMPLES = 1 << 20  # float64: 8 MiB


def _cpu_work() -> None:
    s = 0j
    for k in range(8):
        s += np.exp(1j * (_X * k)).sum()
    t = 0
    for i in range(3000):
        t += i * i


class _MemWork:
    def __init__(self):
        self.buffers = None

    def __call__(self) -> None:
        if self.buffers is None:
            self.buffers = (np.ones(_MEM_SAMPLES), np.empty(_MEM_SAMPLES))
        src, dst = self.buffers
        for _ in range(2):
            np.cumsum(src, out=dst)


class Probe:
    def __init__(self, work, reps: int, reference_s: float):
        self.work = work
        self.reps = reps
        self.reference_s = reference_s

    def __call__(self) -> float:
        """Median seconds of `reps` back-to-back runs of the probe work."""
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


PROBES = {
    "cpu": Probe(_cpu_work, reps=5, reference_s=1.0e-3),
    "mem": Probe(_MemWork(), reps=3, reference_s=10.0e-3),
}
