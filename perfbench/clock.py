"""Wall clock rescaled to a reference kernel's speed.

On a shared virtual machine the effective CPU speed drifts by 20-40% over
minutes, so raw wall times of one run differ from the next by more than any
useful regression bound. Timing a fixed reference kernel just before each
measured interval, and scaling the interval by ``nominal / measured`` kernel
time, cancels most of that drift: an interval reads as the seconds it would
take when the kernel runs at its nominal speed.

The kernel mixes what a training step does: many small NumPy calls with
interpreter work between them, and a larger matmul now and then. It lives in
the benchmark, so a change to the package cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_A = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
_B = np.linspace(1.0, -1.0, 32 * 16).reshape(32, 16)
_C = np.linspace(-1.0, 1.0, 256 * 96).reshape(256, 96)
KERNEL_REPEATS = 3  # a calibration takes the median of this many kernel runs
RECALIBRATE_S = 1.0  # longest stretch ``calibrate_if_stale`` lets pass uncalibrated


def reference_kernel() -> float:
    acc = 0.0
    for i in range(500):
        x = np.tanh(_A @ _B)
        acc += float(x.sum())
        entry = {"step": i, "acc": acc}
        acc -= entry["step"] * 1e-9
        if i % 30 == 0:
            acc += float((_C @ _C.T).trace()) * 1e-6
    return acc


class Clock:
    """Seconds counted between calibrations, normalised and raw.

    ``calibrate`` times the reference kernel and returns the reading at that
    instant. The stretch since the previous calibration is scaled by the mean
    of the scales measured at its two ends, so a measured interval runs from
    one calibration to another. Kernel time counts in neither reading.
    """

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.scale: float | None = None
        # (inside a training?, kernel seconds) of every calibration, in order
        self.kernel_s: list[tuple[bool, float]] = []
        self.reading = (0.0, 0.0)
        self._mark = time.perf_counter()

    def calibrate(self, inside: bool = False) -> tuple[float, float]:
        """(normalised, raw) seconds counted so far.

        ``inside`` marks a calibration made while the program under test is
        mid-training; ``divergence`` compares those kernel times with the others.
        """
        stretch = time.perf_counter() - self._mark
        samples = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            samples.append(time.perf_counter() - t0)
        measured = statistics.median(samples)
        self.kernel_s.append((inside, measured))
        scale = self.nominal_s / measured
        previous = scale if self.scale is None else self.scale
        norm, raw = self.reading
        self.reading = (norm + stretch * (previous + scale) / 2, raw + stretch)
        self.scale = scale
        self._mark = time.perf_counter()
        return self.reading

    def calibrate_if_stale(self) -> None:
        """Calibrate when RECALIBRATE_S has passed since the last calibration.

        Called between optimizer steps, so a long training is scaled by the
        speed measured across it rather than only at its two ends.
        """
        if time.perf_counter() - self._mark > RECALIBRATE_S:
            self.calibrate(inside=True)

    def divergence(self) -> float | None:
        """How much slower the kernel runs inside trainings than between them.

        Each kernel time taken inside a training is divided by the nearest
        kernel times taken between trainings, before and after it; the
        result is the median of these ratios, minus 1. It is near 0 when the
        program leaves the kernel alone. Anything the program does that slows
        the kernel (a busy helper thread, changed NumPy state) shows here,
        because it would otherwise read as machine drift and shrink the
        program's reported time. Neighbours are compared, not the two groups'
        medians or minima: a shared machine flips between speed states about
        40% apart for seconds at a time, so group statistics land in
        different states by chance. None without inside samples.
        """
        ratios = []
        for j, (inside, seconds) in enumerate(self.kernel_s):
            if not inside:
                continue
            before = (t for was_inside, t in reversed(self.kernel_s[:j]) if not was_inside)
            after = (t for was_inside, t in self.kernel_s[j + 1:] if not was_inside)
            ratios += [seconds / t for t in (next(before, None), next(after, None))
                       if t is not None]
        return statistics.median(ratios) - 1.0 if ratios else None


def elapsed(start: tuple[float, float], end: tuple[float, float]) -> tuple[float, float]:
    return end[0] - start[0], end[1] - start[1]
