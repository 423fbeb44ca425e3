"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose throughput swings
by up to 1.7x, in phases that last from seconds to minutes, because of what
the other tenants run.  A round of fixed work takes as much longer in a slow
phase, so raw wall times of two runs of the same code can differ by more
than any useful bound.  To take the phase out, every run interleaves short
slices of a fixed calibration kernel with its rounds.  The kernel uses none
of secrelay and mixes the kinds of work the package does: interpreted
Python, elementwise transcendental functions over an array larger than a
core's cache, small matrix products and Philox normals.  A timing is then
reported in reference seconds: wall seconds times REFERENCE_SLICE_S over the
run's median slice time, that is, the time the same work would take on the
same host in a phase where one slice takes REFERENCE_SLICE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round number near the median slice time on the reference host (2 vCPUs
# of a shared Xeon host, Python 3.11, numpy 2.4: 0.04 to 0.05 s); only
# ratios of timings matter.
REFERENCE_SLICE_S = 0.05

_PY_STEPS = 80_000
# 4 MB: past the 2 MB per-core cache, like the package's larger arrays (the
# 2^K subset sums of closed-forms, the sampling buffers of sim-sampling),
# whose speed depends on the shared cache and memory that other tenants use.
_ARRAY_LEN = 1 << 19


def factor(slices: list[float]) -> float:
    """Multiply a wall time by this to get reference seconds."""
    return REFERENCE_SLICE_S / statistics.median(slices)


class Calibration:
    """Times slices of the calibration kernel."""

    def __init__(self):
        self.slices: list[float] = []
        self._array = np.random.default_rng(20260101).standard_normal(_ARRAY_LEN)
        self._matrix = self._array[: 96 * 96].reshape(96, 96).copy()
        self.kernel()  # warm-up: first-call costs are not the machine's speed

    def kernel(self) -> float:
        """One slice of fixed work; returns a checksum so nothing is skipped."""
        acc = 0
        for i in range(_PY_STEPS):
            acc += i * i % 7
        total = float(acc)
        for _ in range(2):
            total += float(np.log1p(np.exp(-np.abs(self._array))).sum())
        m = self._matrix
        for _ in range(150):
            m = np.tanh(m @ self._matrix)
        total += float(m.sum())
        rng = np.random.Generator(np.random.Philox(key=7))
        total += float(rng.standard_normal(450_000).sum())
        return total

    def slice(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - t0
        self.slices.append(took)
        return took
