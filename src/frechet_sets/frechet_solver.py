"""Population and empirical Frechet objectives and their epsilon-argmin sets.

Objectives are vectors of cost values over a candidate grid. A sample
of a finite law is an array of indices into its support, so an empirical
objective needs one cost row per support point; the rows are summed with
compensation in sample order so that the same sample produces
bit-identical values on every platform, and one pass over a sample yields
the objective of every requested prefix, since the state of the
compensated sum after n rows is the prefix-n sum. The pass walks the
sample segment by segment between checkpoints, over one block that holds
the cost rows and the sum state with every row on a 64-byte boundary, so
its speed does not depend on where the heap places its buffers. The module
also provides the exact epsilon-argmin interval of the 1-D absolute-loss
objective over the whole real line, and the Cartesian composition of
per-axis mean sets into a product grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cost_model import CostFunction
from .metric_core import (
    CandidateGrid,
    GridMismatchError,
    Point,
    PointSet,
)

#: Absolute tolerance added to the epsilon-argmin threshold so that grid
#: points mathematically tied at the minimum are never excluded by
#: floating-point noise. Documented so golden outputs are stable.
ARGMIN_ABS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A finitely supported distribution over data points."""

    support: tuple
    weights: np.ndarray

    def __post_init__(self) -> None:
        support = tuple(self.support)
        weights = np.asarray(self.weights, dtype=float)
        if not support:
            raise ValueError("support must be nonempty")
        if weights.shape != (len(support),):
            raise ValueError("weights must match the support length")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @staticmethod
    def uniform(support: Iterable) -> "FiniteDistribution":
        pts = tuple(support)
        if not pts:
            raise ValueError("support must be nonempty")
        return FiniteDistribution(pts, np.full(len(pts), 1.0 / len(pts)))


@dataclass(frozen=True, eq=False)
class Objective:
    """Cost values over a grid, one finite value per grid point."""

    grid: CandidateGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.grid),):
            raise ValueError("values must have one entry per grid point")
        if not np.all(np.isfinite(values)):
            raise ValueError("objective values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class EpsilonSchedule:
    """The slack sequence eps_n: constant, or c * n**(-exponent)."""

    kind: str
    c: float = 0.0
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power-decay"):
            raise ValueError("schedule kind must be 'constant' or 'power-decay'")
        if not math.isfinite(self.c):
            raise ValueError("schedule constant must be finite")
        if self.c < 0:
            raise ValueError("schedule constant must be >= 0")
        if not math.isfinite(self.exponent):
            raise ValueError("schedule exponent must be finite")
        if self.exponent < 0:
            raise ValueError("schedule exponent must be >= 0")

    @staticmethod
    def constant(c: float) -> "EpsilonSchedule":
        return EpsilonSchedule("constant", c=c)

    @staticmethod
    def power_decay(c: float, exponent: float) -> "EpsilonSchedule":
        return EpsilonSchedule("power-decay", c=c, exponent=exponent)

    def values(self, ns: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(ns), self.c)
        return self.c * np.asarray(ns, dtype=float) ** (-self.exponent)


def population_objective(
    dist: FiniteDistribution, cost: CostFunction, grid: CandidateGrid
) -> Objective:
    """Exact weighted cost sum of a finite-support distribution on a grid."""
    total = np.zeros(len(grid))
    for y, w in zip(dist.support, dist.weights):
        total += w * cost.row(y, grid)
    return Objective(grid, total)


def _aligned_block(rows: int, cols: int) -> np.ndarray:
    """Zeroed float64 (rows, cols) array whose rows start on 64-byte boundaries."""
    stride = -(-cols // 8) * 8  # row stride padded to whole 64-byte lines
    raw = np.zeros(rows * stride + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + rows * stride].reshape(rows, stride)[:, :cols]


def empirical_objective(
    support: Sequence,
    sample: "np.ndarray | Sequence[int]",
    cost: CostFunction,
    grid: CandidateGrid,
    ns: "Sequence[int] | None" = None,
) -> "Objective | list[Objective]":
    """Mean cost of a sample on a grid, via compensated summation.

    ``support`` lists the data points (``Point``s or integer data indices)
    and ``sample`` is an integer array of indices into it, as a finite law
    draws them. One cost row is computed per support point; the rows are
    then accumulated in sample order with Kahan compensation, so the result
    is bit-reproducible.

    Without ``ns`` the objective of the whole sample is returned. With
    ``ns``, a nondecreasing list of prefix lengths in [1, len(sample)], the
    sample is walked once and the list of prefix objectives, one per entry
    of ``ns``, is returned: the compensated sum is a left fold, so its state
    after n rows is exactly the prefix-n sum.
    """
    sample = np.asarray(sample)
    if sample.ndim != 1 or not sample.size or sample.dtype.kind not in "iu":
        raise ValueError("sample must be a nonempty 1-D array of support indices")
    if sample.min() < 0 or sample.max() >= len(support):
        raise ValueError("sample indices must lie in [0, len(support))")
    checkpoints = [len(sample)] if ns is None else [int(n) for n in ns]
    if (
        not checkpoints
        or checkpoints != sorted(checkpoints)
        or checkpoints[0] < 1
        or checkpoints[-1] > len(sample)
    ):
        raise ValueError(
            "ns must be a nonempty nondecreasing list of prefix lengths "
            "in [1, len(sample)]"
        )
    # one aligned block: the cost rows, then the Kahan state
    block = _aligned_block(len(support) + 4, len(grid))
    for row, y in zip(block, support):
        row[:] = cost.row(y, grid)
    *rows, total, comp, delta, bumped = block
    objectives = []
    start = 0
    for n in checkpoints:
        for i in sample[start:n].tolist():
            # Kahan step in place: delta = row - comp, bumped = total + delta,
            # comp = (bumped - total) - delta, in that order, then swap
            np.subtract(rows[i], comp, out=delta)
            np.add(total, delta, out=bumped)
            np.subtract(bumped, total, out=comp)
            np.subtract(comp, delta, out=comp)
            total, bumped = bumped, total
        start = n
        objectives.append(Objective(grid, total / n))
    return objectives[0] if ns is None else objectives


def eps_argmin(obj: Objective, eps: float) -> PointSet:
    """Grid points with value within eps of the minimum.

    Membership uses the documented absolute tolerance ARGMIN_ABS_TOL on top
    of the threshold, so exact ties survive floating-point noise.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    threshold = obj.values.min() + eps + ARGMIN_ABS_TOL
    return PointSet(obj.grid, np.flatnonzero(obj.values <= threshold))


def median_interval_1d(sample: Sequence[float], eps: float = 0.0) -> tuple[float, float]:
    """Exact eps-argmin of q -> mean |y_i - q| over the whole real line.

    With eps = 0 this is the classical median interval read off the order
    statistics. With eps > 0 the piecewise-linear objective is solved in
    closed form: the interval boundary lies where the unscaled objective
    G(q) = sum |y_i - q| crosses min G + n * eps, found by walking the
    sorted knots and inverting the linear segment that crosses; the result
    always has finite endpoints containing the eps = 0 interval.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):  # NaN sorts last
        raise ValueError("sample values must be finite")
    if eps == 0.0:
        if n % 2 == 1:
            mid = xs[(n - 1) // 2]
            return float(mid), float(mid)
        return float(xs[n // 2 - 1]), float(xs[n // 2])

    prefix = np.concatenate([[0.0], np.cumsum(xs)])
    total = prefix[-1]
    j = np.arange(n)
    # G at each knot: sum of |y_i - xs[j]| with exact prefix arithmetic
    g_knots = ((j + 1) * xs - prefix[1:]) + ((total - prefix[1:]) - (n - 1 - j) * xs)
    g_min = float(g_knots.min())
    threshold = g_min + n * eps

    # the median knots always bound the crossing segments: rounding in
    # g_knots must not move an end past them, where a slope would be 0
    inside = g_knots <= threshold
    lo_idx = min(int(np.argmax(inside)), (n - 1) // 2)
    hi_idx = max(int(n - 1 - np.argmax(inside[::-1])), n // 2)
    # descent rate of G just left of knot lo_idx, ascent rate just right of hi_idx
    lo = xs[lo_idx] - (threshold - g_knots[lo_idx]) / (n - 2 * lo_idx)
    hi = xs[hi_idx] + (threshold - g_knots[hi_idx]) / (2 * (hi_idx + 1) - n)
    # and the interval always contains the eps = 0 median interval
    return float(min(lo, xs[(n - 1) // 2])), float(max(hi, xs[n // 2]))


def grid_restrict_interval(axis: CandidateGrid, lo: float, hi: float) -> PointSet:
    """Grid points of a 1-D vector grid lying in the closed interval [lo, hi]."""
    coords = axis.coords[:, 0]
    return PointSet(axis, np.flatnonzero((coords >= lo) & (coords <= hi)))


def product_mean_set(
    per_axis_sets: Sequence[PointSet], product: CandidateGrid, alpha: float = 1.0
) -> PointSet:
    """Cartesian product of per-axis mean sets, re-indexed into a product grid.

    Valid for power exponents alpha >= 1, where the product-space mean set
    factors into the per-axis mean sets; the composition itself is pure
    index arithmetic over the row-major product layout.
    """
    if alpha < 1.0:
        raise ValueError("product composition requires alpha >= 1")
    if product.axes is None:
        raise GridMismatchError("target grid was not built as a product grid")
    if len(per_axis_sets) != len(product.axes):
        raise GridMismatchError("one axis set per product axis is required")
    for axis_set, axis in zip(per_axis_sets, product.axes):
        if axis_set.grid is not axis:
            raise GridMismatchError("axis set does not match the product axis grid")
    # row-major index of (i_0, ..., i_k) is (...(i_0 * n_1 + i_1) ...) * n_k + i_k
    indices = np.zeros(1, dtype=np.intp)
    for axis_set, axis in zip(per_axis_sets, product.axes):
        indices = (indices[:, None] * len(axis) + axis_set.indices).ravel()
    return PointSet(product, indices)


# -- CSV interfaces ----------------------------------------------------------


def _point_columns(p: Point) -> list[str]:
    if p.is_vector:
        return [repr(c) for c in p.value]
    return [repr(p.value)]


def objective_to_csv(obj: Objective, path: str) -> None:
    """Write rows of (grid index, coordinates..., value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, (p, v) in enumerate(zip(obj.grid.points, obj.values)):
            writer.writerow([i, *_point_columns(p), repr(float(v))])


def point_set_to_csv(ps: PointSet, path: str) -> None:
    """Write rows of (grid index, coordinates..., membership flag)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, p in enumerate(ps.grid.points):
            writer.writerow([i, *_point_columns(p), int(i in ps)])
