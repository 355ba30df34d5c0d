"""Host speed, measured by a fixed reference workload between samples.

The shared host the benchmark was tuned on changes speed by up to a third
every few seconds (other tenants share its cores), and every operation
slows down and speeds up together. `probe` is a fixed workload that uses
numpy only, never prunelora, so no change to the package can move it; a
sample divided by the probe times around it is the sample at a steady
reference speed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

# `probe` time on a 2-vCPU Intel Xeon (2.0 GHz) VM in its fast state, with
# one BLAS thread; normalised samples are seconds at this speed
PROBE_REFERENCE_S = 0.020
# a probe older than this is too far from the next sample to stand for it
PROBE_MAX_AGE_S = 0.1

_rng = np.random.default_rng(0)
_SMALL_X = _rng.standard_normal((320, 64))
_SMALL_W = _rng.standard_normal((64, 64)) * 0.1
_WIDE_X = _rng.standard_normal((264, 256))
_WIDE_W = _rng.standard_normal((256, 1024)) * 0.05
_BLOB = _rng.standard_normal(1 << 19)  # 4 MB


def probe(directory: Path) -> float:
    """Small array operations in a Python loop (interpreter-bound, like the
    toy model), one mid-size GEMM pair (like the wide model), then a 4 MB
    array copied to fresh memory, written to a file in `directory` and read
    back (like a checkpoint save and load); returns a checksum."""
    total = 0.0
    x = _SMALL_X
    for _ in range(60):
        h = np.maximum(x @ _SMALL_W, 0.0)
        x = x + 1e-3 * ((h > 0) @ _SMALL_W.T)
        total += float(h[0, 0])
    y = _WIDE_X @ _WIDE_W
    total += float((y.T @ _WIDE_X)[0, 0])
    path = directory / "probe.bin"
    path.write_bytes(_BLOB.tobytes())
    back = np.frombuffer(path.read_bytes(), dtype=np.float64)
    os.unlink(path)
    return total + float(back[-1])


def probe_seconds(directory: Path) -> float:
    t0 = time.perf_counter()
    probe(directory)
    return time.perf_counter() - t0


class Speed:
    """Probe times paired with samples: `begin` before a timed call,
    `factor` right after it. The probe's file goes in `directory`."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.before = None    # (probe seconds, perf_counter at its end)
        self.probes: list[float] = []

    def _probe(self) -> float:
        seconds = probe_seconds(self.directory)
        self.probes.append(seconds)
        self.before = (seconds, time.perf_counter())
        return seconds

    def begin(self) -> None:
        """Probe now unless the last probe ended just before."""
        if (self.before is None
                or time.perf_counter() - self.before[1] > PROBE_MAX_AGE_S):
            self._probe()

    def factor(self) -> float:
        """Reference time over the mean of the probes before and after the
        sample that just ended: multiply the sample by it."""
        before = self.before[0]
        after = self._probe()
        return PROBE_REFERENCE_S / ((before + after) / 2)
