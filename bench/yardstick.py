"""The host-speed yardstick every reported timing is scaled by.

The benchmark machine is two shared vCPUs whose speed changes by up to
2x, in bursts of a few seconds and in phases of several minutes, with
CPU time slowing down together with wall time.  Over ten runs of the
same code raw timings spread 15-40%, wider than any bound the benchmark
may declare, and no statistic taken inside a run helps when the whole
run falls in a slow phase.

So the benchmark times a fixed *reference chunk* of numpy work before
and after every timed sample (each tick block, batch round and group of
set-up calls), and scales the sample by ``REFERENCE_S`` over the mean
of those two times.  Reported timings are therefore seconds at the host speed at
which the chunk takes :data:`REFERENCE_S`, its time on a quiet host of
the benchmark's kind; there they match wall time.  The chunk is
benchmark code with fixed inputs, so no change to the program can move
it except through the caches, which the untimed touch before each probe
refills.  Each result keeps the raw timings and the chunk's times under
``detail``.

The chunk is small-array calls (a sorted search and a kernel sum per
64-value row, like the detectors' per-stream queries) plus array scans.
Measured on the benchmark host, it slows down by 1.7x in the slow
phases where the workloads slow down by 1.55-1.8x (a pure-interpreter
chunk: 1.9-2.2x, so it over-corrects).  Over two sets of ten 10 s runs
per workload, the quartile spread of the throughput and latency medians
was 8-39% unscaled and 3-10% scaled.
"""

from __future__ import annotations

import time

import numpy as np

#: The reference chunk's time on a quiet 2-vCPU host of the benchmark's
#: kind ("Intel(R) Xeon(R) Processor", python 3.11, numpy 2.4).
REFERENCE_S = 0.004


class Yardstick:
    """Times the reference chunk; scales samples by the times around them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240101)
        self._rows = rng.random((16, 64))
        self._sorted = np.sort(rng.random(1000))
        self._block = rng.random((64, 1000))
        #: Seconds each probe's chunk took.
        self.times: "list[float]" = []

    def probe(self) -> float:
        """Time the chunk once; the seconds it took."""
        _touch(self._rows, self._sorted, self._block)
        t0 = time.perf_counter()
        _chunk(self._rows, self._sorted, self._block)
        took = time.perf_counter() - t0
        self.times.append(took)
        return took

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for a sample timed between probes that took ``before``
        and ``after`` seconds."""
        return 2 * REFERENCE_S / (before + after)


def _touch(*arrays: np.ndarray) -> float:
    return sum(float(a.sum()) for a in arrays)


def _chunk(rows: np.ndarray, sorted_values: np.ndarray,
           block: np.ndarray) -> float:
    total = 0.0
    for i in range(300):
        row = rows[i & 15]
        total += float(np.searchsorted(sorted_values, row).sum())
        total += float(np.exp(-(row - 0.5) ** 2).sum())
    for j in range(10):
        total += float(np.abs(block - block[j]).sum())
    return total
