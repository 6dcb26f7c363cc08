"""Machine-speed probe that puts timings on one scale.

On a shared 2-vCPU Xeon host, speed switches between a fast and a slow phase
(about 1.7x apart) every few seconds, as other tenants load the same cores.
Between runs the share of slow phases varied enough to move a run's median
pass time by 30%, which no longer run or median removes.

So the benchmark runs a fixed kernel -- Python dict updates and small NumPy
einsums, the two kinds of work dwellgain's ops are made of -- before every op,
and scales each op's latency by REFERENCE_S / (median kernel time of the two
probes before and the two after the op).  A scaled time reads as "seconds at
the speed where the kernel takes REFERENCE_S".  The kernel does not use
dwellgain, so a change to the program moves the scaled time by the same factor
as the raw one.  Raw times are kept beside the scaled ones in the result file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 6e-4  # kernel time in that host's fast phase
WINDOW = 2  # probes on each side of an op


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._m = np.full((64, 2, 2), 0.01)
        self._v = np.ones((64, 2))

    def probe(self) -> int:
        """Time the kernel once; returns the probe's index."""
        t0 = perf_counter()
        acc = {}
        for i in range(2000):
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        x = self._v
        for _ in range(60):
            x = np.einsum("mij,mj->mi", self._m, x) + self._v
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def bracket(self) -> int:
        """Probe 2 * WINDOW times before a timed stretch; returns the first probe's index."""
        first = len(self.samples)
        for _ in range(2 * WINDOW):
            self.probe()
        return first

    def scale_since(self, first: int) -> float:
        """Factor for a stretch timed after bracket() returned `first`: probes
        2 * WINDOW times more and uses the median of the probes on both sides."""
        self.bracket()
        return REFERENCE_S / statistics.median(self.samples[first:])

    def scale(self, k: int) -> float:
        """Factor that puts a time measured next to probe k on the reference scale."""
        return REFERENCE_S / statistics.median(self.samples[max(0, k - WINDOW + 1):k + WINDOW + 1])
