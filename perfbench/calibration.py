"""A fixed amount of work that does not use the program under test.

On a shared machine the speed of a process drifts by tens of percent from
minute to minute and from process to process, and a repetition's wall time
follows the speed of its own process. Each benchmark process therefore
times this mix of interpreter loops, small-vector arithmetic, sorting and
fancy indexing before it imports ``frechet_sets``, where the program
cannot affect it, and ``setup_s`` and ``wall_s`` are reported at the
reference speed: measured seconds times ``REFERENCE_S`` over the mean
calibration time. The first calibration in a process runs slower by a
varying amount and only warms the process up. The unscaled times are recorded next to the scaled ones.

The arrays are kept small (about 1.6 MB above ``import numpy``) so that
the calibration's peak memory stays below what importing ``frechet_sets``
alone reaches, and never sets a process's ``peak_rss_mb``; each process
records its peak right after calibrating so that this can be checked.
"""

import time

import numpy as np

#: Calibration seconds that define the reference speed; about the median
#: calibration time on the 2-core x86_64 machine the benchmark was set up on.
REFERENCE_S = 0.15
#: Timed calibrations per process, after one that warms the process up;
#: the scale uses their mean.
REPEATS = 2


def calibrate() -> float:
    """Seconds this process takes for the fixed work."""
    start = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i % 7
    row = np.sin(np.arange(201.0))
    acc = np.zeros(201)
    comp = np.zeros(201)
    for _ in range(16_000):
        delta = row - comp
        bumped = acc + delta
        comp = (bumped - acc) - delta
        acc = bumped
    values = np.sin(np.arange(20_000.0))
    for _ in range(150):
        np.sort(values)
    matrix = np.abs(np.subtract.outer(values[:200], values[:200]))
    idx = np.arange(0, 200, 3)
    for _ in range(700):
        matrix[np.ix_(idx, idx)].max()
    return time.perf_counter() - start


def calibrate_process() -> list[float]:
    """Seconds of the warm-up calibration, then of each timed one."""
    return [calibrate() for _ in range(1 + REPEATS)]
