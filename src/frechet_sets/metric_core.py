"""Finite and gridded metric spaces.

Every downstream computation sees points and distances only through this
module: tagged points, a handful of concrete space kinds (Euclidean,
L1 products, the circle with arc-length, tabulated discrete metrics, and
the two nonnegative-integer spaces with unit and line metrics), an
optional metric transform d -> fn(d) built as a power d^alpha or a
concave inverse, candidate grids, balls, and diameters.

Every distance comes from one block kernel, ``MetricSpace.distances``,
over arrays that ``MetricSpace.pack`` validates and packs; the scalar
``MetricSpace.distance`` is its 1x1 block. Grids pack their points once
and compute only the rows x cols block a caller asks for, caching no
grid-sized matrix.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

#: Number of points up to which distance tables get the full O(n^3)
#: triangle-inequality check at construction; larger tables are sampled.
FULL_TRIANGLE_CHECK_LIMIT = 512

_TRIANGLE_SAMPLES = 100_000
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
_INDEX_KINDS = frozenset(
    {SpaceKind.DISCRETE_TABLE, SpaceKind.N0_UNIT, SpaceKind.N0_LINE}
)


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
        # normalized representative in [0, 2*pi)
        return Point(float(theta) % TWO_PI, "angle")

    @staticmethod
    def index(i: int) -> "Point":
        if i < 0:
            raise InvalidPointError(f"discrete index must be nonnegative, got {i}")
        return Point(int(i), "index")

    @property
    def is_vector(self) -> bool:
        return self.kind == "vector"

    @property
    def is_angle(self) -> bool:
        return self.kind == "angle"

    @property
    def is_index(self) -> bool:
        return self.kind == "index"


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
        return np.sqrt(d) if isinstance(d, np.ndarray) else math.sqrt(d)
    return d**alpha


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """A metric space of one of the supported kinds.

    ``dimension`` applies to the vector kinds. ``distance_table`` (square,
    symmetric, zero diagonal, triangle-checked) applies to the discrete
    kind. ``transform``, when present, is applied after the base distance.
    """

    kind: SpaceKind
    dimension: int = 1
    distance_table: "np.ndarray | None" = None
    transform: "MetricTransform | None" = None

    def __post_init__(self) -> None:
        if self.kind in _VECTOR_KINDS and self.dimension < 1:
            raise ValueError("vector spaces need dimension >= 1")
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

    def pack(self, points: Sequence[Point]) -> np.ndarray:
        """Validate ``points`` and pack their values into the array that
        ``distances`` reads: one row of float coordinates per point for the
        vector kinds, one float angle or one int64 index per point otherwise.
        Coordinates and angles must be finite."""
        kind = self.kind
        if kind in _VECTOR_KINDS:
            for p in points:
                if not p.is_vector or len(p.value) != self.dimension:
                    raise InvalidPointError(
                        f"expected a {self.dimension}-dimensional vector point, got {p!r}"
                    )
                if not all(map(math.isfinite, p.value)):
                    raise InvalidPointError(f"point coordinates must be finite, got {p!r}")
            return np.array([p.value for p in points], dtype=float).reshape(-1, self.dimension)
        if kind is SpaceKind.CIRCLE_ARCLENGTH:
            for p in points:
                if not p.is_angle:
                    raise InvalidPointError(f"expected a circle angle point, got {p!r}")
                if not math.isfinite(p.value):
                    raise InvalidPointError(f"point coordinates must be finite, got {p!r}")
            return np.array([p.value for p in points], dtype=float)
        size = len(self.distance_table) if kind is SpaceKind.DISCRETE_TABLE else None
        for p in points:
            if not p.is_index:
                raise InvalidPointError(f"expected a discrete index point, got {p!r}")
            if size is not None and p.value >= size:
                raise InvalidPointError(f"index {p.value} outside table of size {size}")
        return np.array([p.value for p in points], dtype=np.int64)

    def distance(self, q: Point, p: Point) -> float:
        """Distance between two points: the 1x1 block of ``distances``."""
        return float(self.distances(self.pack((q,)), self.pack((p,)))[0, 0])

    def distances(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances between packed points, one row per ``rows`` entry, with
        the transform applied last: the one place each kind's formula lives."""
        kind = self.kind
        if kind is SpaceKind.EUCLIDEAN_L2:
            diff = cols[None, :, :] - rows[:, None, :]
            block = np.sqrt((diff * diff).sum(axis=2))
        elif kind is SpaceKind.PRODUCT_L1:
            block = np.abs(cols[None, :, :] - rows[:, None, :]).sum(axis=2)
        elif kind is SpaceKind.DISCRETE_TABLE:
            block = self.distance_table[rows[:, None], cols[None, :]]
        else:
            gap = np.abs(cols[None, :] - rows[:, None])
            if kind is SpaceKind.CIRCLE_ARCLENGTH:
                block = np.minimum(gap, TWO_PI - gap)
            elif kind is SpaceKind.N0_UNIT:
                block = (gap != 0).astype(float)
            else:  # N0_LINE
                block = gap.astype(float)
        if self.transform is not None:
            block = np.asarray(self.transform.fn(block), dtype=float)
        return block


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
        rng = np.random.default_rng(0)
        i, j, k = (rng.integers(0, n, _TRIANGLE_SAMPLES) for _ in range(3))
        if np.any(table[i, j] > table[i, k] + table[k, j] + _METRIC_ATOL):
            raise ValueError("distance table violates the triangle inequality")


class CandidateGrid:
    """An ordered, pairwise-distinct finite set of points of one space.

    ``axes`` is set by :func:`product_grid` so product structure can be
    recovered. ``coords`` is the read-only array of packed point values,
    one row per point.
    """

    __slots__ = ("space", "points", "axes", "_index_of", "coords")

    def __init__(
        self,
        space: MetricSpace,
        points: Iterable[Point],
        axes: "tuple[CandidateGrid, ...] | None" = None,
    ) -> None:
        pts = tuple(points)
        if not pts:
            raise ValueError("a candidate grid needs at least one point")
        coords = space.pack(pts)
        if len(set(pts)) != len(pts):
            raise ValueError("grid points must be pairwise distinct")
        coords.setflags(write=False)
        self.space = space
        self.points = pts
        self.axes = axes
        self._index_of = {p: i for i, p in enumerate(pts)}
        self.coords = coords

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def __repr__(self) -> str:
        return f"CandidateGrid({self.space.kind.value}, {len(self.points)} points)"

    def index_of(self, p: Point) -> int:
        try:
            return self._index_of[p]
        except KeyError:
            raise InvalidPointError(f"{p!r} is not a grid point") from None

    def contains_point(self, p: Point) -> bool:
        return p in self._index_of

    def distances_from(self, q: Point) -> np.ndarray:
        """Distances from ``q`` (any point of the space) to every grid point."""
        return self.space.distances(self.space.pack((q,)), self.coords)[0]

    def distance_matrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The |rows| x |cols| block of grid distances, computed on each call."""
        packed = self.coords
        return self.space.distances(
            packed[np.asarray(rows, dtype=np.intp)], packed[np.asarray(cols, dtype=np.intp)]
        )


class PointSet:
    """A finite subset of a grid, stored as one read-only, sorted,
    deduplicated ``np.intp`` array of grid indices (``indices``).

    Equality requires the *same* grid object; sets over different grids
    never compare equal and may not be mixed in set operations.
    """

    __slots__ = ("grid", "indices")

    def __init__(self, grid: CandidateGrid, indices: "np.ndarray | Sequence[int]") -> None:
        idx = np.sort(np.asarray(indices, dtype=np.intp))
        if idx.size and (idx[0] < 0 or idx[-1] >= len(grid)):
            raise ValueError(f"indices out of range for grid of size {len(grid)}")
        keep = np.ones(idx.size, dtype=bool)  # drop repeats of the left neighbour
        keep[1:] = idx[1:] != idx[:-1]
        idx = idx[keep]
        idx.setflags(write=False)
        self.grid = grid
        self.indices = idx

    @staticmethod
    def full(grid: CandidateGrid) -> "PointSet":
        return PointSet(grid, np.arange(len(grid)))

    @staticmethod
    def empty(grid: CandidateGrid) -> "PointSet":
        return PointSet(grid, ())

    @staticmethod
    def from_points(grid: CandidateGrid, points: Iterable[Point]) -> "PointSet":
        return PointSet(grid, [grid.index_of(p) for p in points])

    def points(self) -> tuple[Point, ...]:
        return tuple(self.grid.points[i] for i in self.indices)

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


def ball_members(grid: CandidateGrid, center: Point, radius: float) -> PointSet:
    """Grid points at distance strictly less than ``radius`` from ``center``."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    row = grid.distances_from(center)
    return PointSet(grid, np.flatnonzero(row < radius))


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


def line_grid(space: MetricSpace, values: Iterable[float]) -> CandidateGrid:
    """Grid of 1-D vector points from a list of coordinates."""
    if space.kind not in _VECTOR_KINDS or space.dimension != 1:
        raise ValueError("line_grid needs a 1-dimensional vector space")
    return CandidateGrid(space, (Point.vector(v) for v in values))


def circle_grid(space: MetricSpace, count: int) -> CandidateGrid:
    """Grid of ``count`` equally spaced angles starting at 0."""
    if space.kind is not SpaceKind.CIRCLE_ARCLENGTH:
        raise ValueError("circle_grid needs a circle space")
    if count < 1:
        raise ValueError("count must be positive")
    angles = (Point.angle(TWO_PI * (k / count)) for k in range(count))
    return CandidateGrid(space, angles)


def integer_grid(space: MetricSpace, count: int) -> CandidateGrid:
    """Grid of the indices 0..count-1 for the discrete space kinds."""
    if space.kind not in _INDEX_KINDS:
        raise ValueError("integer_grid needs a discrete space kind")
    if space.kind is SpaceKind.DISCRETE_TABLE and count > len(space.distance_table):
        raise ValueError("count exceeds the distance table size")
    return CandidateGrid(space, (Point.index(i) for i in range(count)))


def product_grid(axes: Sequence[CandidateGrid]) -> CandidateGrid:
    """Row-major Cartesian product of 1-D vector grids, under the L1 metric."""
    if not axes:
        raise ValueError("product_grid needs at least one axis")
    for axis in axes:
        if axis.space.kind not in _VECTOR_KINDS or axis.space.dimension != 1:
            raise ValueError("product axes must be 1-dimensional vector grids")
    space = product_l1_space(len(axes))
    points = [
        Point.vector(*(p.value[0] for p in combo))
        for combo in itertools.product(*(axis.points for axis in axes))
    ]
    return CandidateGrid(space, points, axes=tuple(axes))


# -- CSV interfaces ----------------------------------------------------------


def load_distance_table_csv(path: str) -> "tuple[MetricSpace, tuple[str, ...]]":
    """Load a discrete space from a square CSV distance matrix.

    The first row holds point labels; each following row holds one matrix
    row. Returns the space and the labels in order.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty distance table file")
    labels = tuple(cell.strip() for cell in rows[0])
    matrix = [[float(cell) for cell in row] for row in rows[1:]]
    if len(matrix) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} rows, got {len(matrix)}")
    return table_space(np.array(matrix, dtype=float)), labels


def load_points_csv(path: str, space: MetricSpace) -> CandidateGrid:
    """Load a grid from a CSV point list (one point per row, no header).

    Vector kinds expect ``dimension`` columns, the circle expects a single
    angle column, discrete kinds a single index column.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    points: list[Point] = []
    for row in rows:
        if space.kind in _VECTOR_KINDS:
            points.append(Point.vector(*(float(c) for c in row)))
        elif space.kind is SpaceKind.CIRCLE_ARCLENGTH:
            points.append(Point.angle(float(row[0])))
        else:
            points.append(Point.index(int(row[0])))
    return CandidateGrid(space, points)
