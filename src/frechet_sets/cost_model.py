"""Cost functions for generalized Frechet objectives.

The paper's three costs take two shapes. An anchored profile f with anchor
point o gives c(y, q) = f(d(y, q)) - f(d(y, o)) (``CostFunction``); the
two profiles built here are

* the power f(x) = x**alpha (``power_cost``),
* the exact integral H of a piecewise-linear nondecreasing function h
  (``h_cost``).

A general cost is a dense table with one row per data index y and one
column per grid point (``TableCost``).

The module also provides the numeric doubling-constant estimate for h,
the three-inequality consistency check tying H, h, and the doubling
constant together, and a constructive recipe that turns a nonnegative
sample into a strictly increasing concave h with unit levels at its
breakpoints and a finite empirical mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .metric_core import CandidateGrid, Point, _stable_pow


class NonInvertibleError(ValueError):
    """The integrated function has no well-defined inverse at the query."""


class UndefinedDoublingError(ValueError):
    """h vanishes on the probed range, so h(2x)/h(x) is undefined."""


@dataclass(frozen=True)
class NondecreasingFn:
    """A piecewise-linear nondecreasing function on [0, infinity).

    Defined by strictly increasing breakpoints starting at 0, nondecreasing
    nonnegative values at the breakpoints, and a linear extension with
    ``tail_slope`` beyond the last breakpoint.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    tail_slope: float

    def __post_init__(self) -> None:
        bp, vals = self.breakpoints, self.values
        if not bp or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if len(bp) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if any(not b2 > b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not v >= 0 for v in vals):
            raise ValueError("values must be nonnegative")
        if any(not v2 >= v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("values must be nondecreasing")
        if not self.tail_slope >= 0:
            raise ValueError("tail_slope must be nonnegative")

    @staticmethod
    def identity() -> "NondecreasingFn":
        return NondecreasingFn((0.0,), (0.0,), 1.0)

    @staticmethod
    def constant(c: float) -> "NondecreasingFn":
        return NondecreasingFn((0.0,), (float(c),), 0.0)

    def __call__(self, x: "np.ndarray | float") -> "np.ndarray | float":
        arr = np.asarray(x, dtype=float)
        if not np.all(arr >= 0):
            raise ValueError("h is only defined for nonnegative arguments")
        bp = np.asarray(self.breakpoints)
        vals = np.asarray(self.values)
        inner = np.interp(arr, bp, vals)
        tail = vals[-1] + self.tail_slope * (arr - bp[-1])
        out = np.where(arr > bp[-1], tail, inner)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out


class IntegratedH:
    """The exact integral H(x) of a piecewise-linear nondecreasing h.

    H is piecewise quadratic: each segment integral has the closed
    trapezoid form, so there is no quadrature error anywhere.
    """

    __slots__ = ("source", "_bp", "_vals", "_cum", "_slopes")

    def __init__(self, source: NondecreasingFn) -> None:
        self.source = source
        self._bp = np.asarray(source.breakpoints)
        self._vals = np.asarray(source.values)
        seg = np.diff(self._bp)
        seg_int = (self._vals[:-1] + self._vals[1:]) / 2.0 * seg
        self._cum = np.concatenate([[0.0], np.cumsum(seg_int)])
        # slope of h on the segment starting at each breakpoint; the last
        # entry is the tail slope
        self._slopes = np.concatenate(
            [np.diff(self._vals) / seg, [source.tail_slope]]
        )

    def __call__(self, x: "np.ndarray | float") -> "np.ndarray | float":
        arr = np.asarray(x, dtype=float)
        if not np.all(arr >= 0):
            raise ValueError("H is only defined for nonnegative arguments")
        bp, vals, cum = self._bp, self._vals, self._cum
        j = np.clip(np.searchsorted(bp, arr, side="right") - 1, 0, len(bp) - 1)
        t = arr - bp[j]
        out = cum[j] + vals[j] * t + self._slopes[j] * t * t / 2.0
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    @property
    def flat_head_length(self) -> float:
        """Largest x with h identically 0 on [0, x] (inf if h is zero)."""
        vals = self._vals
        pos = np.flatnonzero(vals > 0)
        if pos.size:
            first = int(pos[0])
            return float(self._bp[max(first - 1, 0)]) if first > 0 else 0.0
        if self.source.tail_slope > 0:
            return float(self._bp[-1])
        return math.inf

    def inverse(self, y: "np.ndarray | float") -> "np.ndarray | float":
        """Exact inverse of H. Unique for y > 0; at y = 0 the inverse is 0
        unless h has a flat zero head, in which case the set {H = 0} is a
        whole interval and the query is rejected."""
        arr = np.asarray(y, dtype=float)
        if not np.all(arr >= 0):
            raise ValueError("H inverse is only defined for nonnegative arguments")
        head = self.flat_head_length
        if math.isinf(head):
            raise NonInvertibleError("h vanishes identically, H has no inverse")
        if head > 0 and np.any(arr == 0.0):
            raise NonInvertibleError(
                "H is flat on an initial interval, the inverse at 0 is ambiguous"
            )
        bp, vals, cum = self._bp, self._vals, self._cum
        j = np.clip(np.searchsorted(cum, arr, side="right") - 1, 0, len(bp) - 1)
        r = arr - cum[j]
        slope = self._slopes[j]
        v = vals[j]
        disc = np.sqrt(v * v + 2.0 * slope * r)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                disc + v > 0,
                2.0 * r / (disc + v),
                0.0,
            )
        out = bp[j] + t
        return float(out) if np.isscalar(y) or arr.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class CostFunction:
    """An anchored profile cost c(y, q) = f(d(y, q)) - f(d(y, o)).

    ``profile`` is f, a float-or-array map on distances, and ``anchor`` is
    o, so c(y, o) = 0 exactly.
    """

    profile: "Callable[[np.ndarray | float], np.ndarray | float]"
    anchor: Point

    def __post_init__(self) -> None:
        if self.anchor is None:
            raise ValueError("profile cost needs an anchor point")

    def row(self, y: Point, grid: CandidateGrid) -> np.ndarray:
        """Cost of y against every point of ``grid``, as one vector."""
        # f(d(y, o)) stays one scalar profile call, so an array pow cannot
        # move the anchor term's bits
        f = self.profile
        return f(grid.distances_from(y)) - f(grid.space.distance(y, self.anchor))


@dataclass(frozen=True, eq=False)
class TableCost:
    """A general cost c(y, q) = rows[y, j] for the data index y and the index
    j of q in ``grid``: a read-only float copy of the given rows, one per
    data index (at least one), each with one entry per grid point."""

    rows: np.ndarray
    grid: CandidateGrid

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or not len(rows) or rows.shape[1] != len(self.grid):
            raise ValueError(
                f"table cost needs K >= 1 rows of {len(self.grid)} entries, got shape {rows.shape}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def row(self, y: int, grid: CandidateGrid) -> np.ndarray:
        """Cost of data index y against every point of ``grid``: ``rows[y]``."""
        if grid is not self.grid:
            raise ValueError("table cost rows are only defined on the table grid")
        if not isinstance(y, (int, np.integer)) or not 0 <= y < len(self.rows):
            raise ValueError(f"data {y!r} is not a row index of a {len(self.rows)}-row table")
        return self.rows[y]


def power_cost(alpha: float, anchor: Point) -> CostFunction:
    """c(y, q) = d(y, q)**alpha - d(y, o)**alpha for finite alpha > 0."""
    if not 0 < alpha < math.inf:
        raise ValueError("power cost needs a finite alpha > 0")
    return CostFunction(functools.partial(_stable_pow, alpha=alpha), anchor)


def h_cost(h: NondecreasingFn, anchor: Point) -> CostFunction:
    """c(y, q) = H(d(y, q)) - H(d(y, o)) for H the exact integral of h."""
    return CostFunction(IntegratedH(h), anchor)


# -- doubling constant and inequality suite ----------------------------------

_LOG_PROBE_COUNT = 64


def estimate_doubling_constant(f: NondecreasingFn, x_max: float) -> float:
    """Estimate b = sup h(2x)/h(x) over (0, x_max].

    The probe set is documented and deterministic: all breakpoints and
    half-breakpoints in (0, x_max], plus 64 log-spaced points down to
    x_max * 1e-9, plus x_max itself. Between consecutive probes the ratio
    of two linear pieces is monotone, so for piecewise-linear h this
    recovers the exact supremum over the probed range. The result is
    clamped below by 1; it is infinite when h jumps from zero to positive.
    """
    if not 0 < x_max < math.inf:
        raise ValueError("x_max must be positive and finite")
    probes = [b for b in f.breakpoints if 0 < b <= x_max]
    probes += [b / 2.0 for b in f.breakpoints if 0 < b / 2.0 <= x_max]
    probes += list(np.geomspace(x_max * 1e-9, x_max, _LOG_PROBE_COUNT))
    probes.append(x_max)
    xs = np.unique(np.asarray(probes, dtype=float))
    hx = np.asarray(f(xs))
    h2x = np.asarray(f(2.0 * xs))
    informative = (hx > 0) | (h2x > 0)
    if not np.any(informative):
        raise UndefinedDoublingError("h is zero on the probed range")
    with np.errstate(divide="ignore"):
        ratios = np.where(hx > 0, h2x / np.where(hx > 0, hx, 1.0), math.inf)
    ratios = ratios[informative]
    return max(1.0, float(ratios.max()))


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of the three H/h consistency inequalities at one (x, y).

    ``mvt``: |H(x)-H(y)| <= |x-y| h(max(x,y)).
    ``additivity``: h(x)/2 + h(y)/2 <= h(x+y) <= b (h(x)+h(y)).
    ``reverse``: H(|x-y|) - H(x) >= H(y)/b - 2 y h(x).
    Slacks are nonnegative quantities (inequality margin); a check passes
    when its slack is above a small relative rounding allowance.
    """

    b: float
    mvt_pass: bool
    mvt_slack: float
    additivity_pass: bool
    additivity_slack: float
    reverse_pass: bool
    reverse_slack: float

    @property
    def all_pass(self) -> bool:
        return self.mvt_pass and self.additivity_pass and self.reverse_pass


_SLACK_RTOL = 1e-9


def check_lemma_inequalities(
    f: NondecreasingFn, x: float, y: float, b: "float | None" = None
) -> InequalityReport:
    """Evaluate the three inequalities tying h, H, and the doubling constant.

    When ``b`` is not supplied it is estimated over the range actually used
    by the inequalities at this (x, y). A supplied ``b`` must be at least 1,
    as every doubling constant of a nondecreasing h is; +inf is allowed.
    """
    if not (0 <= x < math.inf and 0 <= y < math.inf):
        raise ValueError("x and y must be finite and nonnegative")
    if b is not None and not b >= 1.0:
        raise ValueError("b must be at least 1")
    if b is None:
        x_max = max(2.0 * max(x, y), x + y, 1.0)
        b = estimate_doubling_constant(f, x_max)
    H = IntegratedH(f)
    hx, hy = f(x), f(y)
    hmax = f(max(x, y))
    Hx, Hy = H(x), H(y)

    lhs1 = abs(Hx - Hy)
    rhs1 = abs(x - y) * hmax
    slack1 = rhs1 - lhs1
    tol1 = _SLACK_RTOL * max(1.0, abs(lhs1), abs(rhs1))

    hsum = f(x + y)
    lower2 = 0.5 * hx + 0.5 * hy
    upper2 = b * (hx + hy) if not math.isinf(b) else math.inf
    slack2 = min(hsum - lower2, upper2 - hsum)
    tol2 = _SLACK_RTOL * max(1.0, abs(hsum), abs(lower2))

    lhs3 = H(abs(x - y)) - Hx
    rhs3 = (0.0 if math.isinf(b) else Hy / b) - 2.0 * y * hx
    slack3 = lhs3 - rhs3
    tol3 = _SLACK_RTOL * max(1.0, abs(lhs3), abs(rhs3))

    return InequalityReport(
        b=b,
        mvt_pass=slack1 >= -tol1,
        mvt_slack=slack1,
        additivity_pass=slack2 >= -tol2,
        additivity_slack=slack2,
        reverse_pass=slack3 >= -tol3,
        reverse_slack=slack3,
    )


# -- constructive concave h ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstructHTrace:
    """Full trace of the concave-h construction.

    ``z`` is the threshold sequence on the sample's tail, which ends at
    the first threshold at or beyond the sample maximum, where the
    empirical tail is empty; ``x`` the breakpoints of the result, ``a`` the
    slopes between them, and ``h_tilde_at_x`` the auxiliary integrand
    primitive at the breakpoints. The result interpolates (x_n, n)
    linearly and extends with the last slope, so it is strictly
    increasing, concave, and h(x_n) = n exactly.
    """

    z: tuple[float, ...]
    x: tuple[float, ...]
    a: tuple[float, ...]
    h_tilde_at_x: tuple[float, ...]
    result: NondecreasingFn


def construct_h(
    sample: Sequence[float], bounded_hint: "float | None" = None
) -> ConstructHTrace:
    """Build a strictly increasing concave h adapted to a nonnegative sample.

    With ``bounded_hint`` set (a known bound on the underlying variable) or
    a constant sample, the identity is returned. Otherwise the empirical
    distribution function stands in for the true one: thresholds z_n track
    where the empirical tail drops below 1/n, an exactly integrated step
    integrand yields the auxiliary function h-tilde, and the breakpoints
    x_n are placed where h-tilde reaches level n subject to a concavity
    floor on the spacing. The z-sequence stops at the first threshold with
    empty empirical tail; the result extends linearly beyond the last
    breakpoint, which keeps every invariant checkable on finite data.
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise ValueError("sample must be nonempty")
    if xs[0] < 0:
        raise ValueError("sample values must be nonnegative")
    if not math.isfinite(xs[-1]):  # NaN sorts last
        raise ValueError("sample values must be finite")
    if bounded_hint is not None and not bounded_hint > 0:
        raise ValueError("bounded_hint must be positive")
    if bounded_hint is not None or xs[0] == xs[-1]:
        return ConstructHTrace(
            z=(0.0,),
            x=(0.0,),
            a=(1.0,),
            h_tilde_at_x=(0.0,),
            result=NondecreasingFn.identity(),
        )

    m = int(xs.size)
    z = [0.0]
    n = 1
    while True:
        k = ((n - 1) * m + n - 1) // n  # ceil((1 - 1/n) * m) without floats
        threshold = float(xs[k - 1]) if k > 0 else 0.0
        nxt = max(z[-1] + 1.0, threshold)
        z.append(nxt)
        if nxt >= xs[-1]:  # the empirical tail beyond nxt is empty; n <= m + 1
            break
        n += 1

    knots, cum = _integrate_h_tilde(np.asarray(z), xs)

    x_seq = [0.0]
    a_seq = [1.0]
    h_tilde_total = cum[-1]
    level = 1.0
    while level <= h_tilde_total:
        floor = x_seq[-1] + 1.0 / a_seq[-1]
        cross = _first_crossing(knots, cum, level)
        x_next = max(floor, cross)
        if x_next > knots[-1]:
            break
        a_next = 1.0 / (x_next - x_seq[-1])
        x_seq.append(x_next)
        a_seq.append(a_next)
        level += 1.0

    result = NondecreasingFn(
        breakpoints=tuple(x_seq),
        values=tuple(float(i) for i in range(len(x_seq))),
        tail_slope=a_seq[-1],
    )
    h_tilde_at_x = tuple(float(np.interp(v, knots, cum)) for v in x_seq)
    return ConstructHTrace(
        z=tuple(z),
        x=tuple(x_seq),
        a=tuple(a_seq),
        h_tilde_at_x=h_tilde_at_x,
        result=result,
    )


def _integrate_h_tilde(z: np.ndarray, xs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Exact primitive of g(t) / (1 - F(t)) on [0, max(sample)].

    g is the step function with weight 1 / ((z_{n+1}-z_n) n^2) on
    [z_n, z_{n+1}); 1 - F is the empirical survival function. Both are
    piecewise constant, so the primitive is piecewise linear on the merged
    breakpoints and the integration is closed-form.
    """
    upper = xs[-1]
    m = xs.size
    cuts = np.unique(np.concatenate([[0.0], z, xs[(xs > 0) & (xs < upper)], [upper]]))
    cuts = cuts[cuts <= upper]
    weights = 1.0 / (np.diff(z) * (np.arange(1, z.size) ** 2))
    left = cuts[:-1]
    # z[0] = 0 <= left < max(sample) <= z[-1], so every left end lies in a
    # weighted segment, and in the nonempty empirical tail
    g = weights[np.searchsorted(z, left, side="right") - 1]
    survival = 1.0 - np.searchsorted(xs, left, side="right") / m
    # np.cumsum adds in order, one segment integral after another
    cum = np.concatenate([[0.0], np.cumsum(g / survival * np.diff(cuts))])
    return cuts, cum


def _first_crossing(knots: np.ndarray, cum: np.ndarray, level: float) -> float:
    """Smallest x with the piecewise-linear primitive >= level, for
    cum[0] = 0 < level <= cum[-1]."""
    j = int(np.searchsorted(cum, level, side="left"))
    rise = cum[j] - cum[j - 1]
    frac = (level - cum[j - 1]) / rise if rise > 0 else 1.0
    return float(knots[j - 1] + frac * (knots[j] - knots[j - 1]))
