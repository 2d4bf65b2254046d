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

``d_subset`` and ``d_hausdorff`` also take a ``SetSequence`` and return
its trajectory against a fixed target T, equal to the per-set calls bit
for bit. On the line kinds it costs a kernel call per block of ``_BLOCK``
rows, not one per set: s -> T is one profile dist(q, T) over the points
that occur in some set, gathered per set with ``np.maximum.reduceat``;
T -> s searches the target's rows in exact integer segment keys
set * G + rank, one ``searchsorted`` per block of sets. The inner limit's
filter uses the same T -> s kernel, one block of tail sets at a time.
The other kinds take one block per set behind the same call.

The outer limit is the tol-enlargement of the tail union, marked in one
grid-long mask and found with one distance profile over the grid, one
grid row per member of the union. The inner limit's candidates are the
tol-enlargement of the smallest tail set, one profile; the other tail
sets filter the survivors. Tail diameters are walked from the back: on
the line kinds a union's diameter is the distance between its two ends,
so only those are kept; the other kinds take each tail set's new points
against the union so far, as one block.
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


#: kernel rows, or (row, set) pairs, per block of a line-kind set-sequence
#: distance and of the inner-limit filter
_BLOCK = 2**11


def d_subset(a: "PointSet | SetSequence", b: PointSet) -> "float | tuple[float, ...]":
    """One-sided Hausdorff distance sup_{x in a} dist(x, b).

    Conventions: 0 when ``a`` is empty; +inf when ``b`` is empty and ``a``
    is not (the infimum over an empty set). A ``SetSequence`` as ``a``
    gives its trajectory, one float per set, each equal to the call on that
    set bit for bit; on the line kinds it takes one kernel call per block
    of ``_BLOCK`` rows, not one per set.
    """
    if a.grid is not b.grid:
        raise GridMismatchError("point sets belong to different grids")
    if isinstance(a, SetSequence):
        return _trajectory(a, b, hausdorff=False)
    return _one_sided(a, b)


def d_hausdorff(a: "PointSet | SetSequence", b: PointSet) -> "float | tuple[float, ...]":
    """Symmetric Hausdorff distance max(d_subset(a, b), d_subset(b, a)).

    On a line kind the neighbour candidates of both directions (a against
    sorted b, and b against sorted a) go through one kernel call, and the
    result equals the max of the two ``nearest`` queries bit for bit; on
    the other kinds they are reductions of the one |a| x |b| block, along
    its rows and along its columns (grid distances are bitwise symmetric).
    Conventions: 0 when both sets are empty, +inf when exactly one is. A
    ``SetSequence`` as ``a`` gives its trajectory, as in ``d_subset``.
    """
    if a.grid is not b.grid:
        raise GridMismatchError("point sets belong to different grids")
    if isinstance(a, SetSequence):
        return _trajectory(a, b, hausdorff=True)
    return _two_sided(a, b)


def _one_sided(a: PointSet, b: PointSet) -> float:
    if not len(a):
        return 0.0
    if not len(b):
        return math.inf
    return float(a.grid.nearest(a.indices, b.indices).max())


def _two_sided(a: PointSet, b: PointSet) -> float:
    if not len(a) or not len(b):
        return math.inf if len(a) or len(b) else 0.0
    grid = a.grid
    if grid.space.on_line:
        return float(grid._neighbour_minima((a.indices, b.indices), (b.indices, a.indices)).max())
    # one block: 1.8x faster than two ``nearest`` on the median box grid
    block = grid.distance_matrix(a.indices, b.indices)
    return float(max(block.min(axis=1).max(), block.min(axis=0).max()))


def _trajectory(seq: SetSequence, target: PointSet, hausdorff: bool) -> tuple[float, ...]:
    """d_subset(s, target), or d_hausdorff(s, target), for every set s of ``seq``.

    The circle, table and multi-dimensional kinds, and an empty target,
    take the one-set call per set. On a line kind ``_fold_set_rows`` takes
    s -> T and, for the Hausdorff distance, ``_fold_target_rows`` T -> s,
    each in blocks of at most ``_BLOCK`` kernel rows. Each value is the
    maximum of the same row minima as the one-set call's, and a maximum
    does not depend on how its arguments are grouped, so it equals that
    call bit for bit.
    """
    if not seq.grid.space.on_line or not len(target):
        one = _two_sided if hausdorff else _one_sided
        return tuple(one(s, target) for s in seq.sets)
    out = np.full(len(seq), math.inf if hausdorff else 0.0)  # the empty sets' conventions
    sizes = np.fromiter(map(len, seq.sets), dtype=np.intp, count=len(seq))
    ids = np.flatnonzero(sizes)
    if ids.size:
        sizes = sizes[ids]
        members = [s.indices for s in seq.sets if len(s)]
        _fold_set_rows(seq.grid, target.indices, ids, members, sizes, out)
        if hausdorff:
            _fold_target_rows(seq.grid, target.indices, ids, members, sizes, out)
    return tuple(out.tolist())


def _fold_set_rows(
    grid: CandidateGrid,
    t: np.ndarray,
    ids: np.ndarray,
    members: list,
    sizes: np.ndarray,
    out: np.ndarray,
) -> None:
    """out[ids[k]] = d_subset(set k, T) for every set k, whose members are
    ``members[k]``.

    dist(q, T) depends on q alone, so it is one profile over the points
    that occur in some set (all of the grid once the sets hold as many
    members as it has points), ``_BLOCK`` points per ``_neighbour_minima``
    query. Each set's maximum is then gathered from the profile, in
    blocks of the whole sets that start within one run of ``_BLOCK``
    members, with one ``np.maximum.reduceat`` per block.
    """
    size = len(grid)
    few = sizes.sum() < size  # else every grid point is profiled, with no index array
    points = np.unique(np.concatenate(members)) if few else None
    profile = np.empty(size)  # dist(q, T) at every point q that occurs
    for lo in range(0, len(points) if few else size, _BLOCK):
        rows = points[lo : lo + _BLOCK] if few else np.arange(lo, min(lo + _BLOCK, size))
        profile[rows] = grid._neighbour_minima((rows, t))
    starts = sizes.cumsum() - sizes
    cuts = np.flatnonzero(np.diff(starts // _BLOCK, prepend=-1, append=-1))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        values = profile[np.concatenate(members[lo:hi])]
        out[ids[lo:hi]] = np.maximum.reduceat(values, starts[lo:hi] - starts[lo])


def _fold_target_rows(
    grid: CandidateGrid,
    t: np.ndarray,
    ids: np.ndarray,
    members: list,
    sizes: np.ndarray,
    out: np.ndarray,
) -> None:
    """out[ids[k]] = max(out[ids[k]], d_subset(T, set k)) for every set k.

    The sets make one stream of units: set k's ``sizes[k]`` members (the
    keys its rows search), then one row per member t of T. The stream is
    cut every ``_BLOCK`` units, a set's rows running on into the next
    block where they do not fit, so with M members in all there are at
    most ceil((M + |T| len(ids)) / _BLOCK) kernel calls of at most
    ``_BLOCK`` rows, and a block's segments hold at most ``_BLOCK``
    members plus those of the set it starts in. A block's rows of one set
    are one ``_neighbour_minima`` query, of several sets one
    ``_segment_minima`` call; each set's rows reduce with
    ``np.maximum.reduceat``.
    """
    n = len(t)
    first = (sizes + n).cumsum() - n  # stream position of each set's first row
    total = int(first[-1]) + n
    cuts = np.arange(0, total + _BLOCK, _BLOCK).clip(max=total)
    k = np.searchsorted(first + n, cuts, side="right").clip(max=len(ids) - 1)
    rows_before = k * n + (cuts - first[k]).clip(0, n)  # rows of T before each cut
    rank = grid._line_rank()
    for r0, r1 in zip(rows_before[:-1], rows_before[1:]):
        if r0 == r1:  # a block of members only
            continue
        lo, hi = r0 // n, (r1 - 1) // n + 1
        if hi - lo == 1:  # a block of one set
            minima = grid._neighbour_minima((t[r0 - lo * n : r1 - lo * n], members[lo]))
        else:
            parts = [t] * (hi - lo)
            parts[0], parts[-1] = t[r0 - lo * n :], t[: r1 - (hi - 1) * n]
            segment = np.arange(hi - lo).repeat([len(p) for p in parts])
            cols = np.concatenate(members[lo:hi])
            minima = grid._segment_minima(
                np.concatenate(parts), segment, cols, sizes[lo:hi], rank
            )
        runs = (np.arange(lo, hi) * n - r0).clip(0)  # where each set's rows start
        sets = ids[lo:hi]
        out[sets] = np.maximum(out[sets], np.maximum.reduceat(minima, runs))


def _distance_to_set_per_point(seq_set: PointSet) -> np.ndarray:
    """dist(q, B) for every grid point q; +inf for empty B. Uses O(G) memory."""
    grid = seq_set.grid
    best = np.full(len(grid), math.inf)
    for b in seq_set.indices:
        np.minimum(best, grid.distances_from(grid.coords[b : b + 1]), out=best)
    return best


def outer_limit_estimate(seq: SetSequence, tail_start: int, tol: float = 0.0) -> PointSet:
    """Points whose distance to some tail set is at most tol.

    Finite-horizon surrogate for the outer limit (points of accumulation
    of selections): min over n >= tail_start of dist(B_n, q) <= tol. On a
    finite horizon this over-approximates the true outer limit, since a
    point hit once in the tail cannot be ruled out as recurrent. The
    minimum is taken in one pass over the tail union, since
    min_n dist(q, B_n) = dist(q, union_n B_n) (+inf when every tail set
    is empty); the union is marked in one grid-long mask.
    """
    if not 0 <= tail_start < len(seq):
        raise ValueError("tail_start must index into the sequence")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    member = np.zeros(len(seq.grid), dtype=bool)
    for s in seq.sets[tail_start:]:
        member[s.indices] = True
    union = PointSet(seq.grid, np.flatnonzero(member))
    return PointSet(seq.grid, np.flatnonzero(_distance_to_set_per_point(union) <= tol))


def inner_limit_estimate(seq: SetSequence, tail_start: int, tol: float = 0.0) -> PointSet:
    """Points whose distance to every tail set is at most tol.

    Finite-horizon surrogate for the inner limit: the intersection over
    n >= tail_start of the tol-enlargements {q : dist(q, B_n) <= tol}.
    The candidates are the enlargement of the smallest tail set, one
    distance profile over the grid. The other tail sets then filter them,
    until none remain: on a line kind a block of consecutive tail sets at
    a time, as many as fit ``_BLOCK`` survivor rows and set members in
    all, with one ``_segment_minima`` call (one ``nearest`` query for a
    block of one set); on the other kinds one ``nearest`` block per set.
    An empty tail set is at distance +inf from every point, so it empties
    the result unless tol is +inf; being the smallest, it is the one that
    seeds, and the filter skips the other empty sets, which keep every
    candidate at tol = +inf.
    """
    if not 0 <= tail_start < len(seq):
        raise ValueError("tail_start must index into the sequence")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    grid, tail = seq.grid, seq.sets[tail_start:]
    seed = min(tail, key=len)
    keep = np.flatnonzero(_distance_to_set_per_point(seed) <= tol)
    rest = [s for s in tail if s is not seed and len(s)]
    on_line = grid.space.on_line
    rank = grid._line_rank() if on_line else None
    i = 0
    while keep.size and i < len(rest):
        block, pairs = [rest[i]], keep.size + len(rest[i])
        i += 1
        while on_line and i < len(rest) and pairs + keep.size + len(rest[i]) <= _BLOCK:
            block.append(rest[i])
            pairs += keep.size + len(rest[i])
            i += 1
        if len(block) == 1:
            near = grid.nearest(keep, block[0].indices)
        else:
            near = grid._segment_minima(
                np.tile(keep, len(block)),
                np.arange(len(block)).repeat(keep.size),
                np.concatenate([s.indices for s in block]),
                np.array([len(s) for s in block]),
                rank,
            )
        keep = keep[(near <= tol).reshape(len(block), -1).all(axis=0)]
    return PointSet(grid, keep)


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
    against the outer-limit estimate itself: one ``d_subset`` and one
    ``d_hausdorff`` call on the whole sequence, which on the line kinds
    cost a kernel call per block of ``_BLOCK`` rows, not one per set.
    """
    outer = outer_limit_estimate(seq, tail_start, tol)
    inner = inner_limit_estimate(seq, tail_start, tol)
    target = reference if reference is not None else outer
    d_sub = d_subset(seq, target)
    d_haus = d_hausdorff(seq, target)
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
    argmin f) per n, from one ``d_subset`` call on the argmin sequence.
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
    escape = d_subset(fixture.argmin_sequence, limit_argmin)
    return FixtureDiagnostics(
        name=fixture.name,
        violates=fixture.violates,
        uniform_on_bounded=uniform_ok,
        eventually_bounded=bounded.bounded,
        approachable_minimizers=approach_ok,
        escape_distances=escape,
        sup_deviation_trajectory=tuple(sup_dev.tolist()),
    )
