"""Population and empirical Frechet objectives and their epsilon-argmin sets.

Objectives are vectors of cost values over a candidate grid. Both kinds
are weighted sums of one cost row per support point of a finite law: a
population objective weighs row k by the law's weight w_k, and an
empirical objective, which depends on a sample only through the count of
each support point, weighs it by count_k and divides by n. One kernel,
``_exact_sums``, computes every such sum: each row is split once into two
halves whose products with the weights are exact, and the exact terms of
all grid values are summed at once by a checked cascade of TwoSum steps,
with exact rational sums for the columns the check cannot certify. The
result is correctly rounded, so it does not depend on the order of the
support points or of the draws, or on the platform, and the counts of
every requested prefix come from one pass over the sample. The module also
provides the exact epsilon-argmin interval of the 1-D absolute-loss
objective over the whole real line, and the Cartesian composition of
per-axis mean sets into a product grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cost_model import CostFunction, TableCost
from .metric_core import CandidateGrid, GridMismatchError, PointSet

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
        if not np.isfinite(values).all():
            raise ValueError("objective values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


#: Upper bound on a schedule's constant c: the median runner's slack
#: n * eps_n (n <= 2**30), twice it, and every interval endpoint and box
#: distance derived from it stay finite.
MAX_SCHEDULE_C = 1e100


@dataclass(frozen=True)
class EpsilonSchedule:
    """The slack sequence eps_n = c * n**(-exponent); exponent 0 if constant."""

    kind: str
    c: float = 0.0
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power-decay"):
            raise ValueError("schedule kind must be 'constant' or 'power-decay'")
        if not math.isfinite(self.c):
            raise ValueError("schedule constant must be finite")
        if not 0 <= self.c <= MAX_SCHEDULE_C:
            raise ValueError(f"schedule constant must be >= 0 and <= {MAX_SCHEDULE_C:g}")
        if not math.isfinite(self.exponent):
            raise ValueError("schedule exponent must be finite")
        if self.exponent < 0:
            raise ValueError("schedule exponent must be >= 0")
        if self.kind == "constant" and self.exponent != 0:
            raise ValueError("schedule exponent must be 0 for kind 'constant'")

    @staticmethod
    def constant(c: float) -> "EpsilonSchedule":
        return EpsilonSchedule("constant", c=c)

    @staticmethod
    def power_decay(c: float, exponent: float) -> "EpsilonSchedule":
        return EpsilonSchedule("power-decay", c=c, exponent=exponent)

    def values(self, ns: np.ndarray) -> np.ndarray:
        # a constant schedule has exponent 0, and n ** -0.0 is exactly 1.0
        return self.c * np.asarray(ns, dtype=float) ** (-self.exponent)


def population_objective(
    dist: FiniteDistribution, cost: "CostFunction | TableCost", grid: CandidateGrid
) -> Objective:
    """Weighted cost sum of a finite-support distribution on a grid.

    The value at each grid point q is the sum over k of w_k * r_k(q),
    correctly rounded. Each weight is split exactly into two halves of at
    most 26 significant bits, w_k = hi_k + lo_k, and ``_exact_sums`` sums
    the halves against the cost rows stacked twice. A product of two
    halves is exact unless below 2**-1022: columns where one may be are
    summed by ``_rational_sum``. A zero half (of a zero weight, or the low
    half of a dyadic one) adds no term, even on a row that is not finite.
    """
    rows = np.vstack([cost.row(y, grid) for y in dist.support])
    weights = _split_rows(dist.weights[:, None]).ravel()  # hi_0..hi_K-1, lo_0..lo_K-1
    terms = np.flatnonzero(weights)
    weights, rows = weights[terms], rows[terms % len(rows)]
    halves = _split_rows(rows)
    sums = _exact_sums(weights, rows, halves, np.empty((4, len(grid))))
    smallest = np.where(halves != 0.0, np.abs(halves), np.inf).min(axis=0) * weights.min()
    for j in np.flatnonzero(smallest <= 2.0**-1022):
        sums[j] = _rational_sum(weights, rows[:, j])
    return Objective(grid, sums)


#: Sample lengths must stay below this bound: a count below 2**27 times a
#: cost-row half of at most 26 significant bits is an exact float product.
MAX_SAMPLE_LEN = 2**27


def _split_rows(rows: np.ndarray) -> np.ndarray:
    """Split (K, G) rows exactly into (2K, G) halves: row k is half k + half K + k.

    Each half has at most 26 significant bits. The Veltkamp split (factor
    2**27 + 1) acts on the ``frexp`` mantissa, which lies in (-1, 1), so no
    step can overflow, and ``ldexp`` restores the exponent exactly, except
    that the high half of an entry within about 2**-27 of the float maximum
    rounds up to 2**1024 and becomes inf. ``_exact_sums`` then sums that
    column from the unsplit rows, as it does a column with an inf or NaN
    entry, whose halves are NaN.
    """
    mant, exp = np.frexp(rows)
    halves = np.empty((2, *rows.shape))
    hi, lo = halves
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(mant, 2.0**27 + 1.0, out=hi)
        np.subtract(hi, np.subtract(hi, mant, out=lo), out=hi)
        np.subtract(mant, hi, out=lo)
        np.ldexp(halves, exp, out=halves)
    return halves.reshape(2 * len(rows), -1)


def empirical_objective(
    support: Sequence,
    sample: "np.ndarray | Sequence[int]",
    cost: "CostFunction | TableCost",
    grid: CandidateGrid,
    ns: "Sequence[int] | None" = None,
) -> "Objective | Iterator[Objective]":
    """Mean cost of a sample on a grid, from the counts of its support points.

    ``support`` lists the data points (``Point``s or integer data indices)
    and ``sample`` is an integer array of indices into it, as a finite law
    draws them; it must be shorter than ``MAX_SAMPLE_LEN``. One cost row
    r_k is computed per support point. The objective at n is the correctly
    rounded sum over k of count_k * r_k, divided once by n, where count_k is
    how often index k occurs among the first n draws; so it is
    bit-reproducible and does not change when those draws are permuted.
    ``_exact_sums`` computes that sum as array arithmetic over the exact
    products of the counts with the split rows, and sums the columns its
    check cannot certify as exact rationals.

    Without ``ns`` the objective of the whole sample is returned. With
    ``ns``, a nondecreasing list of prefix lengths in [1, len(sample)], an
    iterator over the prefix objectives, one per entry of ``ns``, is
    returned: it advances the counts from checkpoint to checkpoint in one
    pass over the sample and builds each objective when it is asked for,
    so a caller that consumes them one at a time holds one, not one per
    checkpoint. The arguments and ``ns`` are checked, and the cost rows
    computed, before this function returns.
    """
    sample = np.asarray(sample)
    if sample.ndim != 1 or not sample.size or sample.dtype.kind not in "iu":
        raise ValueError("sample must be a nonempty 1-D array of support indices")
    if len(sample) >= MAX_SAMPLE_LEN:
        raise ValueError(f"sample must have fewer than {MAX_SAMPLE_LEN} draws")
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
    sample = sample.astype(np.intp, copy=False)  # older numpy bincount rejects uint64
    rows = np.vstack([cost.row(y, grid) for y in support])
    halves = _split_rows(rows)
    objectives = _prefix_objectives(sample, checkpoints, rows, halves, grid)
    return next(objectives) if ns is None else objectives


def _prefix_objectives(sample, checkpoints, rows, halves, grid) -> Iterator[Objective]:
    """The objective at each checkpoint, from counts advanced draw by draw."""
    work = np.empty((4, len(grid)))  # TwoSum rows, allocated once per call
    counts = np.zeros(len(rows), dtype=np.intp)
    start = 0
    for n in checkpoints:
        counts += np.bincount(sample[start:n], minlength=len(rows))
        start = n
        sums = _exact_sums(counts, rows, halves, work)
        sums /= n
        yield Objective(grid, sums)


def _two_sum(s: np.ndarray, x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Knuth's TwoSum, in place: a = fl(s + x) and x = (s + x) - a exactly.

    Exact wherever fl(s + x) is finite; b is scratch. Returns (a, s): the
    row that holds the sum, and the row that is free again.
    """
    np.add(s, x, out=a)
    np.subtract(a, s, out=b)
    np.subtract(x, b, out=x)
    np.subtract(a, b, out=b)
    np.subtract(s, b, out=b)
    np.add(x, b, out=x)
    return a, s


def _exact_sums(weights: np.ndarray, rows: np.ndarray, halves, work) -> np.ndarray:
    """Column sums of ``weights[:, None] * rows``, correctly rounded.

    Each weight must have at most 27 significant bits, so that its
    products with the 26-bit ``halves`` of ``rows`` are exact (or beyond
    the float range) unless they underflow: a count below
    ``MAX_SAMPLE_LEN`` never does, and ``population_objective`` re-sums
    the columns where a weight half's may. TwoSum down the terms gives s
    and errors e_j with S = s + sum(e) exactly, and TwoSum down the errors
    gives c and errors f_j. Where every f_j is 0 and s + c is finite,
    c == sum(e) exactly, so fl(s + c) is S correctly rounded.
    ``_rational_sum`` sums the columns this check cannot certify. An exact
    zero sum is +0.0. ``work`` is four rows of scratch.
    """
    per_half = np.tile(weights, 2).astype(float)
    s, c, x, a = work
    sums = np.empty(halves.shape[1])  # scratch until it takes s + c
    certified = np.ones(len(sums), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(halves[0], per_half[0], out=s)
        for j in range(1, len(halves)):
            np.multiply(halves[j], per_half[j], out=x)
            s, a = _two_sum(s, x, a, sums)  # x = e_j
            if j == 1:
                c, x = x, c
            else:
                c, a = _two_sum(c, x, a, sums)  # x = f_j
                certified &= x == 0.0  # and a NaN f_j is not 0
        np.add(s, c, out=sums)
    # any inf or NaN met on the way leaves s + c non-finite
    certified &= np.isfinite(sums)
    rest = np.flatnonzero(~certified)
    if rest.size:
        sums[rest] = [_rational_sum(weights, rows[:, j]) for j in rest]
    sums += 0.0  # makes an exact zero +0.0, whatever sign its sum has
    return sums


def _rational_sum(weights: np.ndarray, column: np.ndarray) -> float:
    """fl(sum of weights[k] * column[k]): exact, so no partial sum can overflow.

    A sum that rounds to zero is +0.0, whatever its sign."""
    from fractions import Fraction  # imported on first use: it loads decimal

    try:
        return float(
            sum(Fraction(c) * Fraction(v) for c, v in zip(weights.tolist(), column.tolist()))
        ) + 0.0
    except (OverflowError, ValueError):  # an inf or NaN entry, or a total beyond the range
        raise ValueError("objective values must be finite") from None


def eps_argmin(obj: Objective, eps: float) -> PointSet:
    """Grid points with value within eps of the minimum.

    Membership uses the documented absolute tolerance ARGMIN_ABS_TOL on top
    of the threshold, so exact ties survive floating-point noise.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    threshold = obj.values.min() + eps + ARGMIN_ABS_TOL
    return PointSet(obj.grid, (obj.values <= threshold).nonzero()[0])


#: n * (3 * max|y_i| + eps) bounds G, its knot sums, the threshold and both
#: endpoints of ``median_interval_1d``; above 2**_SOLVE_LIMIT_EXP the sample
#: is solved scaled by a power of two that brings it below.
_SOLVE_LIMIT_EXP = 1020


def median_interval_1d(sample: Sequence[float], eps: float = 0.0) -> tuple[float, float]:
    """Exact eps-argmin of q -> mean |y_i - q| over the whole real line.

    With eps = 0 this is the classical median interval read off the order
    statistics. With eps > 0 the piecewise-linear objective is solved in
    closed form: the interval boundary lies where the unscaled objective
    G(q) = sum |y_i - q| crosses min G + n * eps, found by walking the
    sorted knots and inverting the linear segment that crosses; the result
    has finite endpoints containing the eps = 0 interval. Samples whose
    sums could overflow are solved scaled by an exact power of two (the
    eps-argmin scales with the sample and eps), and an endpoint beyond the
    float range raises ``ValueError``.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    xs = np.array(sample, dtype=float)  # the one copy: the caller's array is never modified
    xs.sort()
    n = xs.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])):  # NaN sorts last
        raise ValueError("sample values must be finite")
    median = float(xs[(n - 1) // 2]), float(xs[n // 2])  # one element twice at odd n
    if eps == 0.0:
        return median

    eps = float(eps)
    top = max(-float(xs[0]), float(xs[-1]))  # max |y_i|
    k = 0
    if n * (3 * top + eps) > 2.0**_SOLVE_LIMIT_EXP:  # Python floats: inf, no warning
        # n * 4 * max(top, eps) < 2**(k + _SOLVE_LIMIT_EXP)
        k = n.bit_length() + 2 + math.frexp(max(top, eps))[1] - _SOLVE_LIMIT_EXP
    lo, hi = _slack_interval(np.ldexp(xs, -k, out=xs), math.ldexp(eps, -k))
    try:
        lo, hi = math.ldexp(lo, k), math.ldexp(hi, k)
    except OverflowError:
        raise ValueError("eps-argmin endpoint beyond the float range") from None
    # the interval always contains the eps = 0 median interval
    return min(lo, median[0]), max(hi, median[1])


def _slack_interval(xs: np.ndarray, eps: float) -> tuple[float, float]:
    """Where G crosses min G + n * eps, for a sorted sample within range."""
    n = xs.size
    # compensated prefix sums: np.cumsum adds in order, so TwoSum of each
    # step against the prefix before it gives that step's rounding error
    # exactly, and the running sum of those errors is added back (for 0/1
    # samples every step is exact and the prefix is unchanged); besides the
    # prefix, at most three n-long rows are live, computed into with out=
    prefix = np.zeros(n + 1)
    np.cumsum(xs, out=prefix[1:])
    errors = xs.copy()
    g_knots, work = np.empty((2, n))
    _two_sum(prefix[:-1], errors, g_knots, work)
    prefix[1:] += np.cumsum(errors, out=g_knots)
    del errors  # freed before the counts take its place
    sums = prefix[1:]
    total = prefix[-1]
    # G at each knot, the sum of |y_i - xs[j]|, is
    # ((j + 1) * xs - sums) + ((total - sums) - (n - 1 - j) * xs); the counts
    # are integer-valued floats, exact below 2**53
    count = np.arange(1.0, n + 1.0)  # j + 1
    np.multiply(count, xs, out=g_knots)
    g_knots -= sums
    np.subtract(n, count, out=count)  # n - 1 - j
    count *= xs
    np.subtract(total, sums, out=work)
    work -= count
    g_knots += work
    g_min = float(g_knots.min())
    threshold = g_min + n * eps

    # the median knots always bound the crossing segments: rounding in
    # g_knots must not move an end past them, where a slope would be 0
    inside = np.less_equal(g_knots, threshold, out=work.view(bool)[:n])
    lo_idx = min(int(np.argmax(inside)), (n - 1) // 2)
    hi_idx = max(int(n - 1 - np.argmax(inside[::-1])), n // 2)
    # descent rate of G just left of knot lo_idx, ascent rate just right of hi_idx
    lo = xs[lo_idx] - (threshold - g_knots[lo_idx]) / (n - 2 * lo_idx)
    hi = xs[hi_idx] + (threshold - g_knots[hi_idx]) / (2 * (hi_idx + 1) - n)
    return lo, hi


def grid_restrict_interval(axis: CandidateGrid, lo: float, hi: float) -> PointSet:
    """Grid points of a 1-D vector grid lying in the closed interval [lo, hi]."""
    coords = axis.coords[:, 0]
    return PointSet(axis, np.flatnonzero((coords >= lo) & (coords <= hi)))


def product_mean_set(per_axis_sets: Sequence[PointSet], product: CandidateGrid) -> PointSet:
    """Cartesian product of per-axis mean sets, re-indexed into a product grid.

    It is the product-space mean set for power costs with exponent
    alpha >= 1, where that set factors into the per-axis mean sets. The
    composition is pure index arithmetic over the row-major product layout.
    """
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
