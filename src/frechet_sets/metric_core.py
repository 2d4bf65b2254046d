"""Finite and gridded metric spaces.

Every downstream computation sees points and distances only through this
module: tagged points, a handful of concrete space kinds (Euclidean,
L1 products, the circle with arc-length, tabulated discrete metrics, and
the two nonnegative-integer spaces with unit and line metrics), an
optional metric transform d -> fn(d) built as a power d^alpha or a
concave inverse, candidate grids, and diameters.

Every distance comes from one broadcasting kernel,
``MetricSpace.distances``, over packed value arrays that
``MetricSpace.check`` validates: it evaluates d(x, y) elementwise over the
broadcast shape of its two arguments. The scalar ``MetricSpace.distance``
is its one-pair case, ``CandidateGrid.distance_matrix`` its all-pairs
block, and ``CandidateGrid.nearest`` its two-candidate case on the line
kinds (``MetricSpace.on_line``), whose nearest member of a set is one of
two sorted neighbours; several such queries share one kernel call. Each
point has one packed value: a row of floats for a vector, an angle in
[0, 2*pi) for the circle, an int64 index otherwise. A grid is its packed
array, and ``CandidateGrid.distances_from`` takes one packed point, so
``Point`` objects exist only where a caller converts at the edge
(``grid[i]``, ``grid.index_of``, ``MetricSpace.pack``). Grids compute only
the distances a caller asks for, caching no grid-sized matrix.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Number of points up to which distance tables get the full O(n^3)
#: triangle-inequality check at construction; larger tables are sampled.
FULL_TRIANGLE_CHECK_LIMIT = 512

_TRIANGLE_SAMPLES = 100_000
_LEFT_RIGHT = np.array([[1], [0]])  # offsets of a row's two neighbour candidates
_METRIC_ATOL = 1e-12


class InvalidPointError(ValueError):
    """A point does not belong to the space it is used with."""


class GridMismatchError(ValueError):
    """Two grid-indexed objects refer to different grids."""


class SpaceKind(enum.Enum):
    EUCLIDEAN_L2 = "euclidean-L2"
    PRODUCT_L1 = "product-L1"
    CIRCLE_ARCLENGTH = "circle-arclength"
    DISCRETE_TABLE = "discrete-table"
    N0_UNIT = "N0-unit"
    N0_LINE = "N0-line"


_VECTOR_KINDS = frozenset({SpaceKind.EUCLIDEAN_L2, SpaceKind.PRODUCT_L1})
_N0_KINDS = frozenset({SpaceKind.N0_UNIT, SpaceKind.N0_LINE})
_INDEX_KINDS = _N0_KINDS | {SpaceKind.DISCRETE_TABLE}


@dataclass(frozen=True)
class Point:
    """A tagged point: vector coordinates, a circle angle, or a discrete index.

    The explicit tag keeps points of different kinds distinct even when the
    raw values would compare equal (an angle 0.0 is not the index 0). Use
    the named constructors instead of calling ``Point`` directly.
    """

    value: "tuple[float, ...] | float | int"
    kind: str  # "vector" | "angle" | "index"

    @staticmethod
    def vector(*coords: float) -> "Point":
        return Point(tuple(float(c) for c in coords), "vector")

    @staticmethod
    def angle(theta: float) -> "Point":
        # normalized representative in [0, 2*pi): % rounds a tiny negative
        # theta up to 2*pi itself, the same point as 0
        theta = float(theta) % TWO_PI
        return Point(0.0 if theta == TWO_PI else theta, "angle")

    @staticmethod
    def index(i: int) -> "Point":
        if i < 0:
            raise InvalidPointError(f"discrete index must be nonnegative, got {i}")
        return Point(int(i), "index")


@dataclass(frozen=True, eq=False)
class MetricTransform:
    """A distance-rescaling map d -> fn(d) applied after the base metric.

    ``fn`` takes a float or an array of distances. Build it with
    ``power``, which maps d to d**alpha with alpha in (0, 1], or with
    ``concave_inverse``, which maps d through a user-supplied
    nondecreasing concave function fixing 0 (typically the inverse of an
    integrated nondecreasing function). Both preserve the metric axioms.
    """

    fn: Callable[[np.ndarray | float], np.ndarray | float]

    @staticmethod
    def power(alpha: float) -> "MetricTransform":
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"power transform needs alpha in (0, 1], got {alpha}")
        return MetricTransform(functools.partial(_stable_pow, alpha=alpha))

    @staticmethod
    def concave_inverse(
        inverse_fn: "Callable[[np.ndarray | float], np.ndarray | float]",
    ) -> "MetricTransform":
        if inverse_fn is None:
            raise ValueError("concave-inverse transform needs an inverse_fn")
        return MetricTransform(inverse_fn)


def _stable_pow(d: "np.ndarray | float", alpha: float) -> "np.ndarray | float":
    # Integral and half powers via exact primitives so that equal distances
    # give bit-equal transformed values on every platform.
    if alpha == 1.0:
        return d
    if alpha == 2.0:
        return d * d
    if alpha == 0.5:
        return np.sqrt(d)
    return d**alpha


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A metric space of one of the supported kinds.

    ``dimension`` is set on the vector kinds only; every other kind has
    dimension 1. ``distance_table`` (square, symmetric, zero diagonal,
    triangle-checked) applies to the discrete kind. ``transform``, when
    present, is applied after the base distance.
    """

    kind: SpaceKind
    dimension: int = 1
    distance_table: "np.ndarray | None" = None
    transform: "MetricTransform | None" = None

    def __post_init__(self) -> None:
        if self.kind in _VECTOR_KINDS:
            if self.dimension < 1:
                raise ValueError("vector spaces need dimension >= 1")
        elif self.dimension != 1:
            raise ValueError(f"{self.kind.value} spaces have dimension 1, got {self.dimension}")
        if self.kind is SpaceKind.DISCRETE_TABLE:
            if self.distance_table is None:
                raise ValueError("discrete-table space needs a distance table")
            table = np.array(self.distance_table, dtype=float)
            _validate_distance_table(table)
            table.setflags(write=False)
            object.__setattr__(self, "distance_table", table)
        elif self.distance_table is not None:
            raise ValueError("distance_table is only valid for discrete-table spaces")

    # -- points and distances -----------------------------------------------

    def check(self, values) -> np.ndarray:
        """Validate packed point values and return them as a new array of the
        form ``distances`` reads: finite rows of ``dimension`` floats (a flat
        list is one column when ``dimension`` is 1), finite angles in
        [0, 2*pi), or nonnegative int64 indices inside the table."""
        kind = self.kind
        if kind in _INDEX_KINDS:
            raw = np.asarray(values)
            if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
                raise InvalidPointError(f"expected integer indices, got {raw.dtype} {raw.shape}")
            packed = raw.astype(np.int64)
            if packed.size and packed.min() < 0:
                raise InvalidPointError(f"discrete index must be nonnegative, got {packed.min()}")
            if kind is SpaceKind.DISCRETE_TABLE and packed.size:  # the N0 kinds are unbounded
                size = len(self.distance_table)
                if packed.max() >= size:
                    raise InvalidPointError(f"index {packed.max()} outside table of size {size}")
            return packed
        packed = np.array(values, dtype=float)
        row = (self.dimension,) if kind in _VECTOR_KINDS else ()
        if row and packed.ndim == 1 and (self.dimension == 1 or not packed.size):
            packed = packed.reshape(-1, self.dimension)
        if packed.ndim != 1 + len(row) or packed.shape[1:] != row:
            raise InvalidPointError(f"expected {kind.value} values, got shape {packed.shape}")
        finite = np.isfinite(packed)
        if not finite.all():
            raise InvalidPointError(f"point coordinates must be finite, got {packed[~finite][0]}")
        if not row and not np.all((packed >= 0.0) & (packed < TWO_PI)):
            raise InvalidPointError("circle angles must lie in [0, 2*pi)")
        return packed

    def pack(self, points: Sequence[Point]) -> np.ndarray:
        """The ``check``ed values of ``points``, each of which must carry this
        space's kind tag and, for a vector, its dimension."""
        kind = self.kind
        tag = "vector" if kind in _VECTOR_KINDS else "index" if kind in _INDEX_KINDS else "angle"
        for p in points:
            if p.kind != tag or (tag == "vector" and len(p.value) != self.dimension):
                raise InvalidPointError(f"expected a {tag} point of {kind.value}, got {p!r}")
        return self.check([p.value for p in points])

    @property
    def on_line(self) -> bool:
        """Whether the metric is a nondecreasing function of |x - y| for
        points on the real line: the two N0 kinds and the one-dimensional
        vector kinds, with or without a transform."""
        kind = self.kind
        return kind in _N0_KINDS or (kind in _VECTOR_KINDS and self.dimension == 1)

    def distance(self, q: Point, p: Point) -> float:
        """Distance between two points: ``distances`` on one pair."""
        return float(self.distances(self.pack((q,)), self.pack((p,)))[0])

    def distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Distances d(x, y) between packed points, elementwise over the
        broadcast shape of ``x`` and ``y`` (a vector point's coordinates are
        the last axis), with the transform applied last: the one place each
        kind's formula lives. ``x[:, None]`` against ``y[None, :]`` is the
        all-pairs block. On the vector kinds a distance whose value is
        beyond the float range is +inf, with no warning: ``check`` accepts
        any finite coordinates, and those can be that far apart."""
        kind = self.kind
        if kind is SpaceKind.EUCLIDEAN_L2 and self.dimension > 1:
            with np.errstate(over="ignore"):
                d = _l2_norm(y - x)
        elif kind in _VECTOR_KINDS:  # L1, and L2 in one dimension: |y - x| exactly
            with np.errstate(over="ignore"):
                d = np.abs(y - x).sum(axis=-1)
        elif kind is SpaceKind.DISCRETE_TABLE:
            d = self.distance_table[x, y]
        elif kind is SpaceKind.N0_UNIT:
            d = (y != x).astype(float)
        else:
            gap = np.abs(y - x)
            if kind is SpaceKind.CIRCLE_ARCLENGTH:
                d = np.minimum(gap, TWO_PI - gap)
            else:  # N0_LINE
                d = gap.astype(float)
        if self.transform is not None:
            d = np.asarray(self.transform.fn(d), dtype=float)
        return d


def _l2_norm(diff: np.ndarray) -> np.ndarray:
    """sqrt(sum(diff**2)) over the last axis. A vector whose largest |entry|
    lies outside [2**-500, 2**500] is first scaled by a power of two that
    brings it into [0.5, 1), so no square overflows or underflows to zero:
    the norm of finite differences is finite wherever its value is, and
    positive for a nonzero vector. Vectors inside that range are scaled by
    2**0, so their norm is the unscaled formula's bit for bit."""
    top = np.abs(diff).max(axis=-1, keepdims=True)
    far = (top > 2.0**500) | ((top > 0.0) & (top < 2.0**-500))
    k = np.where(far, np.frexp(top)[1], 0)
    scaled = np.ldexp(diff, -k)
    return np.ldexp(np.sqrt((scaled * scaled).sum(axis=-1)), k[..., 0])


def _validate_distance_table(table: np.ndarray) -> None:
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"distance table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n == 0:
        raise ValueError("distance table must be nonempty")
    if not np.all(np.isfinite(table)):
        raise ValueError("distance table entries must be finite")
    if np.any(table < 0):
        raise ValueError("distance table entries must be nonnegative")
    if np.any(np.diag(table) != 0.0):
        raise ValueError("distance table diagonal must be zero")
    if not np.array_equal(table, table.T):
        raise ValueError("distance table must be symmetric")
    if np.any((table == 0) & ~np.eye(n, dtype=bool)):
        raise ValueError("distance table has zero distance between distinct points")
    if n <= FULL_TRIANGLE_CHECK_LIMIT:
        for k in range(n):
            if np.any(table > table[:, k, None] + table[None, k, :] + _METRIC_ATOL):
                raise ValueError("distance table violates the triangle inequality")
    else:
        # the triples come from the pinned generator, not numpy.random, whose
        # import loads hashlib and with it OpenSSL; lln_lab imports this
        # module, so it is imported here, at call time
        from .lln_lab import SplitMix64

        draws = SplitMix64(0).next_block(3 * _TRIANGLE_SAMPLES) % np.uint64(n)
        i, j, k = draws.astype(np.intp).reshape(3, _TRIANGLE_SAMPLES)
        if np.any(table[i, j] > table[i, k] + table[k, j] + _METRIC_ATOL):
            raise ValueError("distance table violates the triangle inequality")


class CandidateGrid:
    """An ordered, pairwise-distinct finite set of points of one space, held
    only as ``coords``: the read-only array of checked point values, one row
    per point. ``axes`` is None except on a grid that :func:`product_grid`
    built, where it holds the axis grids of the row-major layout."""

    __slots__ = ("space", "coords", "axes")

    def __init__(self, space: MetricSpace, coords) -> None:
        coords = space.check(coords)
        if not len(coords):
            raise ValueError("a candidate grid needs at least one point")
        # equal rows are adjacent in any lexicographic order; the sort and ==
        # both treat -0.0 as 0.0, the same point
        rows = coords.reshape(len(coords), -1)
        ordered = rows[np.lexsort(rows.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("grid points must be pairwise distinct")
        coords.setflags(write=False)
        self.space = space
        self.coords = coords
        self.axes = None

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Point:
        """The ``Point`` of grid point ``i``: the inverse of ``MetricSpace.pack``."""
        kind, value = self.space.kind, self.coords[i]
        if kind in _VECTOR_KINDS:
            return Point.vector(*value)
        return Point.angle(value) if kind is SpaceKind.CIRCLE_ARCLENGTH else Point.index(value)

    def __repr__(self) -> str:
        return f"CandidateGrid({self.space.kind.value}, {len(self)} points)"

    def index_of(self, p: Point) -> int:
        """Index of the grid point equal to ``p``; ``InvalidPointError`` if none."""
        rows = self.coords.reshape(len(self), -1)
        hits = np.flatnonzero((rows == self.space.pack((p,)).reshape(1, -1)).all(axis=1))
        if not hits.size:
            raise InvalidPointError(f"{p!r} is not a grid point")
        return int(hits[0])

    def distances_from(self, q) -> np.ndarray:
        """Distances from one packed point ``q`` of the space (one row of
        ``check``'s form, such as ``coords[i : i + 1]``) to every grid point."""
        q = self.space.check(q)
        if len(q) != 1:
            raise InvalidPointError(f"expected one packed point, got {len(q)}")
        return self.space.distances(q, self.coords)

    def distance_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The |rows| x |cols| block of grid distances, computed on each call."""
        packed = self.coords
        return self.space.distances(
            packed[np.asarray(rows, dtype=np.intp), None],
            packed[None, np.asarray(cols, dtype=np.intp)],
        )

    def nearest(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """dist(q, cols) for each grid index q in ``rows``: the row minima of
        the rows x cols block, and +inf for every row when ``cols`` is empty.

        On a line kind (``MetricSpace.on_line``) this is the one-query case
        of ``_neighbour_minima`` and no block is built. Other kinds reduce
        the block.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if not len(cols):
            return np.full(len(rows), math.inf)
        if not self.space.on_line:
            return self.distance_matrix(rows, cols).min(axis=1)
        return self._neighbour_minima((rows, cols))

    def _neighbour_minima(self, *queries: "tuple[np.ndarray, np.ndarray]") -> np.ndarray:
        """The row minima of each (rows, cols) block, in query order, on a
        line kind and for nonempty ``cols``, from one ``distances`` call.

        The nearest column of a row is one of its two neighbours among the
        sorted column values: float subtraction rounds monotonically and
        the transform is nondecreasing, so the kernel on those two
        candidates has the block's row minimum bit for bit, in
        O(|rows| + |cols|) memory.
        """
        packed = self.coords
        at, candidates = [], []
        for rows, cols in queries:
            line = packed[np.asarray(cols, dtype=np.intp)]
            line.sort(axis=0)
            row_values = packed[np.asarray(rows, dtype=np.intp)]
            # line[right] is the first member >= the row, or the last member;
            # line[right - 1] the one before it, or (index -1) the last member
            right = np.searchsorted(line[:-1].reshape(-1), row_values.reshape(-1))
            at.append(row_values)
            candidates.append(line[right - _LEFT_RIGHT])
        left_right = self.space.distances(np.concatenate(at), np.concatenate(candidates, axis=1))
        return np.minimum(left_right[0], left_right[1])


class PointSet:
    """A finite subset of a grid, stored as one read-only, sorted,
    deduplicated ``np.intp`` array of grid indices (``indices``).

    The constructor copies the given indices once and sorts and
    deduplicates that copy, so the caller's array is never frozen or shared.

    Equality requires the *same* grid object; sets over different grids
    never compare equal and may not be mixed in set operations.
    """

    __slots__ = ("grid", "indices")

    def __init__(self, grid: CandidateGrid, indices: "np.ndarray | Sequence[int]") -> None:
        raw = np.asarray(indices)
        # a float would be truncated and a boolean mask read as the indices 0 and 1
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError("point set indices must be integers")
        idx = raw.astype(np.intp)  # always a copy
        idx.sort()
        if idx.size and (idx[0] < 0 or idx[-1] >= len(grid)):
            raise ValueError(f"indices out of range for grid of size {len(grid)}")
        repeat = idx[1:] == idx[:-1]  # drop repeats of the left neighbour
        if repeat.any():  # a mask, not an index array of the repeats, which can be most of idx
            idx = np.concatenate((idx[:1], idx[1:][~repeat]))
        idx.setflags(write=False)
        self.grid = grid
        self.indices = idx

    @staticmethod
    def full(grid: CandidateGrid) -> "PointSet":
        return PointSet(grid, np.arange(len(grid)))

    @staticmethod
    def empty(grid: CandidateGrid) -> "PointSet":
        return PointSet(grid, ())

    def points(self) -> tuple[Point, ...]:
        return tuple(self.grid[i] for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        pos = int(np.searchsorted(self.indices, index))
        return pos < len(self.indices) and bool(self.indices[pos] == index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.grid is other.grid and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((id(self.grid), self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet({len(self.indices)} of {len(self.grid)})"

    def is_subset_of(self, other: "PointSet") -> bool:
        _require_same_grid(self, other)
        pos = np.searchsorted(other.indices, self.indices)
        return bool((pos < len(other)).all()) and np.array_equal(other.indices[pos], self.indices)


def _require_same_grid(a: PointSet, b: PointSet) -> None:
    if a.grid is not b.grid:
        raise GridMismatchError("point sets belong to different grids")


# -- operations --------------------------------------------------------------


def diameter(grid: CandidateGrid, subset: PointSet) -> float:
    """Largest pairwise distance within ``subset``; 0 for empty or singleton sets."""
    if subset.grid is not grid:
        raise GridMismatchError("subset belongs to a different grid")
    if len(subset) <= 1:
        return 0.0
    return float(grid.distance_matrix(subset.indices, subset.indices).max())


# -- space and grid builders -------------------------------------------------


def euclidean_space(dimension: int, transform: "MetricTransform | None" = None) -> MetricSpace:
    return MetricSpace(SpaceKind.EUCLIDEAN_L2, dimension=dimension, transform=transform)


def product_l1_space(dimension: int, transform: "MetricTransform | None" = None) -> MetricSpace:
    return MetricSpace(SpaceKind.PRODUCT_L1, dimension=dimension, transform=transform)


def circle_space(transform: "MetricTransform | None" = None) -> MetricSpace:
    return MetricSpace(SpaceKind.CIRCLE_ARCLENGTH, transform=transform)


def table_space(table: np.ndarray, transform: "MetricTransform | None" = None) -> MetricSpace:
    return MetricSpace(SpaceKind.DISCRETE_TABLE, distance_table=table, transform=transform)


def n0_unit_space() -> MetricSpace:
    return MetricSpace(SpaceKind.N0_UNIT)


def n0_line_space() -> MetricSpace:
    return MetricSpace(SpaceKind.N0_LINE)


def line_grid(space: MetricSpace, values: "Sequence[float] | np.ndarray") -> CandidateGrid:
    """Grid of 1-D vector points from a list of coordinates."""
    if space.kind not in _VECTOR_KINDS or space.dimension != 1:
        raise ValueError("line_grid needs a 1-dimensional vector space")
    return CandidateGrid(space, values)


def circle_grid(space: MetricSpace, count: int) -> CandidateGrid:
    """Grid of ``count`` equally spaced angles starting at 0."""
    if space.kind is not SpaceKind.CIRCLE_ARCLENGTH:
        raise ValueError("circle_grid needs a circle space")
    if count < 1:
        raise ValueError("count must be positive")
    return CandidateGrid(space, TWO_PI * (np.arange(count) / count))


def integer_grid(space: MetricSpace, count: int) -> CandidateGrid:
    """Grid of the indices 0..count-1 for the discrete space kinds."""
    if space.kind not in _INDEX_KINDS:
        raise ValueError("integer_grid needs a discrete space kind")
    if space.kind is SpaceKind.DISCRETE_TABLE and count > len(space.distance_table):
        raise ValueError("count exceeds the distance table size")
    return CandidateGrid(space, np.arange(count))


def product_grid(axes: Sequence[CandidateGrid]) -> CandidateGrid:
    """Row-major Cartesian product of 1-D vector grids, under the L1 metric."""
    if not axes:
        raise ValueError("product_grid needs at least one axis")
    for axis in axes:
        if axis.space.kind not in _VECTOR_KINDS or axis.space.dimension != 1:
            raise ValueError("product axes must be 1-dimensional vector grids")
    mesh = np.meshgrid(*(axis.coords[:, 0] for axis in axes), indexing="ij")
    coords = np.stack(mesh, axis=-1).reshape(-1, len(axes))
    grid = CandidateGrid(product_l1_space(len(axes)), coords)
    grid.axes = tuple(axes)
    return grid
