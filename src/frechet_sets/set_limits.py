"""Set-convergence machinery for sequences of finite point sets.

One-sided and full Hausdorff distances, finite-horizon estimates of outer
and inner limits, eventual-boundedness and approachable-minimizer
diagnostics, and the three counterexample fixtures in which exactly one
hypothesis of the uniform-convergence consistency criterion fails.

All limit notions here are finite-horizon surrogates: every estimate takes
an explicit tail start and tolerance, and reports carry the parameters
used. On a finite grid the surrogates agree with the exact notions for
sequences that stabilize within the horizon.

Every set distance is a row minimum dist(q, B) = min over b in B of
d(q, b). On the line kinds (``MetricSpace.on_line``: the two N0 kinds and
one-dimensional vector grids) it is read from the two sorted neighbours
of q in B, so ``d_subset``, ``d_hausdorff`` and the inner-limit filter
build no |A| x |B| block; both halves of ``d_hausdorff`` evaluate their
neighbour candidates in one kernel call. The circle, distance-table and
multi-dimensional kinds keep one |A| x |B| block per distance
(``d_hausdorff`` reduces its one block along both axes), and no path
builds a G x G matrix.

The outer limit is the tol-enlargement of the tail union, found with one
distance profile over the grid, one grid row per member of the union. The
inner limit is the intersection of the tol-enlargements of the tail sets:
one profile seeds the candidates, and each further tail set only filters
the survivors with ``nearest``. A d_subset trajectory against one fixed
target T is a gather per set from one profile q -> dist(q, T), built from
one grid row per member of T. Tail diameters are walked from the back:
on the line kinds a union's diameter is the distance between its two
ends, so only those are kept; the other kinds take each tail set's new
points against the union so far, as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .frechet_solver import Objective, eps_argmin
from .metric_core import (
    CandidateGrid,
    GridMismatchError,
    MetricSpace,
    PointSet,
    integer_grid,
    n0_line_space,
    n0_unit_space,
)


@dataclass(frozen=True, eq=False)
class SetSequence:
    """An ordered sequence of point sets over one grid."""

    grid: CandidateGrid
    sets: tuple[PointSet, ...]

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("a set sequence must be nonempty")
        for s in self.sets:
            if s.grid is not self.grid:
                raise GridMismatchError("all sets must live on the sequence grid")

    def __len__(self) -> int:
        return len(self.sets)


def d_subset(a: PointSet, b: PointSet) -> float:
    """One-sided Hausdorff distance sup_{x in a} dist(x, b).

    Conventions: 0 when ``a`` is empty; +inf when ``b`` is empty and ``a``
    is not (the infimum over an empty set).
    """
    if a.grid is not b.grid:
        raise GridMismatchError("point sets belong to different grids")
    if not len(a):
        return 0.0
    if not len(b):
        return math.inf
    return float(a.grid.nearest(a.indices, b.indices).max())


def d_hausdorff(a: PointSet, b: PointSet) -> float:
    """Symmetric Hausdorff distance max(d_subset(a, b), d_subset(b, a)).

    On a line kind the neighbour candidates of both directions (a against
    sorted b, and b against sorted a) go through one kernel call, and the
    result equals the max of the two ``nearest`` queries bit for bit; on
    the other kinds they are reductions of the one |a| x |b| block, along
    its rows and along its columns (grid distances are bitwise symmetric).
    Conventions: 0 when both sets are empty, +inf when exactly one is.
    """
    if a.grid is not b.grid:
        raise GridMismatchError("point sets belong to different grids")
    if not len(a) or not len(b):
        return math.inf if len(a) or len(b) else 0.0
    grid = a.grid
    if grid.space.on_line:
        return float(grid._neighbour_minima((a.indices, b.indices), (b.indices, a.indices)).max())
    # one block: 1.8x faster than two ``nearest`` on the median box grid
    block = grid.distance_matrix(a.indices, b.indices)
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def _distance_to_set_per_point(seq_set: PointSet) -> np.ndarray:
    """dist(q, B) for every grid point q; +inf for empty B. Uses O(G) memory."""
    grid = seq_set.grid
    best = np.full(len(grid), math.inf)
    for b in seq_set.indices:
        np.minimum(best, grid.distances_from(grid.coords[b : b + 1]), out=best)
    return best


def _d_subset_trajectory(sets: Sequence[PointSet], target: PointSet) -> tuple[float, ...]:
    """d_subset(s, target) for each s in sets, read from one target profile.

    max over s of min over target is the max over s of the profile
    dist(., target), which reads the same distances (grid distances are
    elementwise symmetric), so each value equals d_subset bit for bit. An
    empty target gives an all-inf profile: the +inf convention.
    """
    if any(s.grid is not target.grid for s in sets):
        raise GridMismatchError("point sets belong to different grids")
    profile = _distance_to_set_per_point(target)
    return tuple(float(profile[s.indices].max()) if len(s) else 0.0 for s in sets)


def outer_limit_estimate(seq: SetSequence, tail_start: int, tol: float = 0.0) -> PointSet:
    """Points whose distance to some tail set is at most tol.

    Finite-horizon surrogate for the outer limit (points of accumulation
    of selections): min over n >= tail_start of dist(B_n, q) <= tol. On a
    finite horizon this over-approximates the true outer limit, since a
    point hit once in the tail cannot be ruled out as recurrent. The
    minimum is taken in one pass over the tail union, since
    min_n dist(q, B_n) = dist(q, union_n B_n) (+inf when every tail set
    is empty).
    """
    if not 0 <= tail_start < len(seq):
        raise ValueError("tail_start must index into the sequence")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    union = PointSet(seq.grid, np.concatenate([s.indices for s in seq.sets[tail_start:]]))
    return PointSet(seq.grid, np.flatnonzero(_distance_to_set_per_point(union) <= tol))


def inner_limit_estimate(seq: SetSequence, tail_start: int, tol: float = 0.0) -> PointSet:
    """Points whose distance to every tail set is at most tol.

    Finite-horizon surrogate for the inner limit: the intersection over
    n >= tail_start of the tol-enlargements {q : dist(q, B_n) <= tol}.
    The candidates are the enlargement of the smallest tail set, one
    distance profile over the grid; each other tail set then filters them
    with one ``nearest`` query, until none remain. An empty tail
    set is at distance +inf from every point, so it empties the result
    unless tol is +inf; being the smallest, it is the one that seeds.
    """
    if not 0 <= tail_start < len(seq):
        raise ValueError("tail_start must index into the sequence")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    tail = seq.sets[tail_start:]
    seed = min(tail, key=len)
    keep = np.flatnonzero(_distance_to_set_per_point(seed) <= tol)
    for s in tail:
        if not keep.size:
            break
        if s is not seed:
            keep = keep[seq.grid.nearest(keep, s.indices) <= tol]
    return PointSet(seq.grid, keep)


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    witness: "int | None"
    tail_diameters: tuple[float, ...]


def eventually_bounded(seq: SetSequence, cap: float = math.inf) -> BoundednessReport:
    """Whether some tail union has diameter at most ``cap``.

    The witness is the smallest tail start index whose union stays within
    the cap. On a finite grid with cap = inf this is always true; a finite
    cap makes the check meaningful on integer-line truncations.

    The tails are walked from the back. On a line kind the diameter of a
    union is the distance between its smallest and largest value, since
    the kernel is nondecreasing in |x - y| and float subtraction rounds
    monotonically; so only those two ends are kept, and a tail set that
    moves one of them costs a 1 x 1 block. The other kinds take a block of
    each tail set's new points against the union so far.
    """
    if not cap >= 0:
        raise ValueError("cap must be nonnegative")
    grid = seq.grid
    diam = 0.0
    diam_from: list[float] = []
    if grid.space.on_line:
        line = grid.coords.reshape(-1)
        lo = hi = -1  # grid indices of the union's smallest and largest value
        for s in reversed(seq.sets):
            if len(s):
                values = line[s.indices]
                low, high = s.indices[values.argmin()], s.indices[values.argmax()]
                moved = False
                if lo < 0 or line[low] < line[lo]:
                    lo, moved = low, True
                if hi < 0 or line[high] > line[hi]:
                    hi, moved = high, True
                if moved:
                    diam = float(grid.distance_matrix([lo], [hi])[0, 0])
            diam_from.append(diam)
    else:
        in_union = np.zeros(len(grid), dtype=bool)
        # each tail's diameter is the previous one or a distance from a
        # newly added point to the union so far
        for s in reversed(seq.sets):
            new = s.indices[~in_union[s.indices]]
            if new.size:
                in_union[new] = True
                diam = max(diam, float(grid.distance_matrix(new, np.flatnonzero(in_union)).max()))
            diam_from.append(diam)
    diam_from.reverse()
    for start, diam in enumerate(diam_from):
        if diam <= cap:
            return BoundednessReport(True, start, tuple(diam_from))
    return BoundednessReport(False, None, tuple(diam_from))


def approachable_minimizers_check(
    obj: Objective, eps_list: Sequence[float]
) -> list[tuple[float, float]]:
    """Trajectory of d_subset(eps-argmin, argmin) along a decreasing eps list.

    The caller judges the decay: a trajectory pinned at a positive value
    while eps shrinks is the signature of non-approachable minimizers.
    """
    eps_list = list(eps_list)
    if not all(e > 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    argmin = eps_argmin(obj, 0.0)
    return [(e, d_subset(eps_argmin(obj, e), argmin)) for e in eps_list]


def uniform_on_bounded_check(
    objectives: Sequence[Objective], limit: Objective, subset: PointSet
) -> np.ndarray:
    """Per-n sup over ``subset`` of |f_n - f|."""
    if subset.grid is not limit.grid:
        raise GridMismatchError("subset must live on the objectives' grid")
    idx = subset.indices
    target = limit.values[idx]
    out = np.empty(len(objectives))
    for i, obj in enumerate(objectives):
        if obj.grid is not limit.grid:
            raise GridMismatchError("all objectives must share one grid")
        out[i] = np.abs(obj.values[idx] - target).max() if idx.size else 0.0
    return out


@dataclass(frozen=True, eq=False)
class LimitReport:
    """Summary of a set sequence against a reference set."""

    outer_limit: PointSet
    inner_limit: PointSet
    d_subset_trajectory: tuple[float, ...]
    d_hausdorff_trajectory: tuple[float, ...]
    eventually_bounded: bool
    witness: "int | None"
    params: dict

    def to_json_dict(self) -> dict:
        return {
            "outer": self.outer_limit.indices.tolist(),
            "inner": self.inner_limit.indices.tolist(),
            "d_sub": list(self.d_subset_trajectory),
            "d_haus": list(self.d_hausdorff_trajectory),
            "bounded": self.eventually_bounded,
            "witness": self.witness,
            "params": self.params,
        }


def analyze_sequence(
    seq: SetSequence,
    reference: "PointSet | None" = None,
    tail_start: int = 0,
    tol: float = 0.0,
    diameter_cap: float = math.inf,
) -> LimitReport:
    """Compute limit estimates and distance trajectories for a set sequence.

    Trajectories are taken against ``reference`` when given, otherwise
    against the outer-limit estimate itself. The d_subset trajectory is a
    gather per set from one distance profile of that target; the Hausdorff
    trajectory takes one ``d_hausdorff`` per set.
    """
    outer = outer_limit_estimate(seq, tail_start, tol)
    inner = inner_limit_estimate(seq, tail_start, tol)
    target = reference if reference is not None else outer
    d_sub = _d_subset_trajectory(seq.sets, target)
    d_haus = tuple(d_hausdorff(s, target) for s in seq.sets)
    bounded = eventually_bounded(seq, diameter_cap)
    return LimitReport(
        outer_limit=outer,
        inner_limit=inner,
        d_subset_trajectory=d_sub,
        d_hausdorff_trajectory=d_haus,
        eventually_bounded=bounded.bounded,
        witness=bounded.witness,
        params={
            "tail_start": tail_start,
            "tol": tol,
            "diameter_cap": diameter_cap,
            "reference": None if reference is None else reference.indices.tolist(),
        },
    )


# -- counterexample fixtures ---------------------------------------------------

FIXTURE_NAMES = ("unit-indicator", "line-indicator", "reciprocal-tail")

_FIXTURE_VIOLATIONS = {
    "unit-indicator": "uniform-on-bounded",
    "line-indicator": "eventually-bounded",
    "reciprocal-tail": "approachable-minimizers",
}


@dataclass(frozen=True, eq=False)
class CounterexampleFixture:
    """A minimizer-escape fixture violating exactly one convergence hypothesis.

    Each fixture provides a limit objective f whose argmin is {0}, a
    sequence f_1..f_horizon whose argmins contain an escaping point
    x_n = n, and the subset over which uniform convergence should be
    judged. ``violates`` names the single hypothesis the fixture breaks:
    uniform convergence on bounded sets, eventual boundedness of the
    minimizer sets, or approachable minimizers of the limit.

    Every f_n is f with one slice Z_n of the grid set to zero (``zeroed``):
    the point {n}, or the suffix [n, grid_max] when ``zeroes_suffix``. The
    fixture holds only f and that rule; ``objective_sequence`` builds each
    f_n when it is read, and ``argmin_sequence`` holds the argmins
    {0} u Z_n.
    """

    name: str
    violates: str
    grid: CandidateGrid
    limit_objective: Objective
    horizon: int
    zeroes_suffix: bool
    argmin_sequence: SetSequence
    bounded_subset: PointSet
    approachability_eps: tuple[float, ...]

    def zeroed(self, n: int) -> slice:
        """Z_n: the grid slice that f_n sets to zero."""
        return slice(n, None if self.zeroes_suffix else n + 1)

    @property
    def objective_sequence(self) -> "_FixtureObjectives":
        return _FixtureObjectives(self)


class _FixtureObjectives(Sequence[Objective]):
    """f_1..f_horizon of a fixture, each built when it is read: item n - 1
    is a new read-only copy of the limit row with Z_n set to zero."""

    __slots__ = ("fixture",)

    def __init__(self, fixture: CounterexampleFixture) -> None:
        self.fixture = fixture

    def __len__(self) -> int:
        return self.fixture.horizon

    def __getitem__(self, i):
        ns = range(1, self.fixture.horizon + 1)[i]  # negative indices, IndexError, slices
        return tuple(map(self._row, ns)) if isinstance(ns, range) else self._row(ns)

    def _row(self, n: int) -> Objective:
        limit = self.fixture.limit_objective
        row = limit.values.copy()
        row[self.fixture.zeroed(n)] = 0.0
        return Objective(limit.grid, row)


def counterexample_fixture(
    name: str, horizon: int = 100, grid_max: int = 100
) -> CounterexampleFixture:
    """Build one of the three named fixtures on a {0..grid_max} integer grid.

    ``unit-indicator``: unit metric, f_n = 1 - indicator({0, n}). Bounded
    sets include the whole grid (diameter 1), and the deviation from the
    limit stays 1 there, so uniform convergence on bounded sets fails
    while the other two hypotheses hold.

    ``line-indicator``: same functions under the line metric |i - j|.
    Bounded sets are windows, on which convergence is uniform, but the
    minimizer sets {0, n} have unbounded tail unions.

    ``reciprocal-tail``: unit metric, f(0) = 0 and f(i) = 1/i, truncated
    at level n. The limit's eps-argmin keeps a far tail at every eps the
    truncated grid can resolve (eps >= 1/grid_max), so minimizers are not
    approachable; the judgement window is exactly those resolvable eps.

    The argmin of f_n is {0} u Z_n in closed form: f_n is 0 there, and
    every other value is at least 1/grid_max, far above ``ARGMIN_ABS_TOL``
    on any grid that fits in memory, so it equals ``eps_argmin(f_n, 0.0)``.
    """
    if name not in _FIXTURE_VIOLATIONS:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    if not 1 <= horizon <= grid_max:
        raise ValueError("horizon must lie in [1, grid_max]")
    space: MetricSpace = (
        n0_line_space() if name == "line-indicator" else n0_unit_space()
    )
    grid = integer_grid(space, grid_max + 1)
    size = len(grid)
    ns = np.arange(size)

    if name in ("unit-indicator", "line-indicator"):
        limit_values = 1.0 - (ns == 0)
        argmins = tuple(PointSet(grid, (0, n)) for n in range(1, horizon + 1))
        # deviation judged on the whole grid for the unit metric (bounded
        # there), on a fixed window for the line metric (truncation makes
        # the full grid spuriously bounded)
        if name == "unit-indicator":
            subset = PointSet.full(grid)
        else:
            subset = PointSet(grid, range(min(horizon // 2, size)))
        eps_probe = tuple(0.5**k for k in range(1, 7))
    else:
        limit_values = np.where(ns > 0, 1.0 / np.maximum(ns, 1), 0.0)
        argmins = tuple(
            PointSet(grid, np.concatenate((ns[:1], ns[n:]))) for n in range(1, horizon + 1)
        )
        subset = PointSet.full(grid)
        eps_probe = tuple(1.0 / k for k in range(1, grid_max + 1))

    return CounterexampleFixture(
        name=name,
        violates=_FIXTURE_VIOLATIONS[name],
        grid=grid,
        limit_objective=Objective(grid, limit_values),
        horizon=horizon,
        zeroes_suffix=name == "reciprocal-tail",
        argmin_sequence=SetSequence(grid, argmins),
        bounded_subset=subset,
        approachability_eps=eps_probe,
    )


@dataclass(frozen=True)
class FixtureDiagnostics:
    """Hypothesis checks and escape behaviour for one fixture."""

    name: str
    violates: str
    uniform_on_bounded: bool
    eventually_bounded: bool
    approachable_minimizers: bool
    escape_distances: tuple[float, ...]
    sup_deviation_trajectory: tuple[float, ...]

    @property
    def hypothesis_flags(self) -> dict[str, bool]:
        return {
            "uniform-on-bounded": self.uniform_on_bounded,
            "eventually-bounded": self.eventually_bounded,
            "approachable-minimizers": self.approachable_minimizers,
        }


def diagnose_fixture(
    fixture: CounterexampleFixture, diameter_cap: float = 50.0
) -> FixtureDiagnostics:
    """Evaluate the three hypotheses and the escape trajectory of a fixture.

    Uniform convergence is judged by the final sup-deviation over the
    fixture's designated bounded subset falling below 2/horizon (the
    resolution of a horizon-length run, so a 1/n decay passes while a
    deviation pinned at 1 fails); eventual boundedness by the tail unions
    of the argmin sequence under the cap; approachability by the last
    entry of the eps trajectory on the limit objective, a d_subset at the
    ladder's finest eps. The escape distances are d_subset(argmin f_n,
    argmin f) per n, gathered from one distance profile of argmin f.
    """
    limit = fixture.limit_objective
    # f_n - f is -f on Z_n and 0.0 elsewhere, so the sup over the subset of
    # |f_n - f| is the largest |f| on the points of Z_n in the subset, or
    # 0.0 where there are none, bit for bit: a point edit reads it at n, a
    # suffix edit from one suffix maximum; no f_n is built
    dev = np.zeros(len(fixture.grid))
    idx = fixture.bounded_subset.indices
    dev[idx] = np.abs(limit.values[idx])
    if fixture.zeroes_suffix:
        dev = np.maximum.accumulate(dev[::-1])[::-1]
    sup_dev = dev[1 : fixture.horizon + 1]
    uniform_ok = bool(sup_dev[-1] <= 2.0 / fixture.horizon)
    bounded = eventually_bounded(fixture.argmin_sequence, diameter_cap)
    limit_argmin = eps_argmin(limit, 0.0)
    finest = eps_argmin(limit, fixture.approachability_eps[-1])
    approach_ok = d_subset(finest, limit_argmin) == 0.0
    escape = _d_subset_trajectory(fixture.argmin_sequence.sets, limit_argmin)
    return FixtureDiagnostics(
        name=fixture.name,
        violates=fixture.violates,
        uniform_on_bounded=uniform_ok,
        eventually_bounded=bounded.bounded,
        approachable_minimizers=approach_ok,
        escape_distances=escape,
        sup_deviation_trajectory=tuple(sup_dev.tolist()),
    )
