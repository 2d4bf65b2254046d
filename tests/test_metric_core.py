"""Metric axioms, transforms, diameters, and candidate grids."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_sets.cli import MAX_GRID_POINTS
from frechet_sets.cost_model import IntegratedH, construct_h
from frechet_sets.metric_core import (
    TWO_PI,
    CandidateGrid,
    GridMismatchError,
    InvalidPointError,
    MetricTransform,
    Point,
    PointSet,
    MetricSpace,
    SpaceKind,
    circle_grid,
    circle_space,
    diameter,
    euclidean_space,
    integer_grid,
    line_grid,
    n0_line_space,
    n0_unit_space,
    product_grid,
    product_l1_space,
    table_space,
)

TRIPLE_COUNT = 10_000
ATOL = 1e-12


def random_table_space(rng, size):
    """A genuine metric table: L1 distances of random integer points."""
    pts = rng.integers(0, 50, size=(size, 3))
    table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    # collapse accidental duplicates by separating them one unit apart
    for i in range(size):
        for j in range(i + 1, size):
            if table[i, j] == 0:
                table[i, j] = table[j, i] = 1.0
    return table_space(table)


def scalar_distance(space, q, p):
    """Per-kind scalar formulas, the oracle for the distance kernel
    ``MetricSpace.distances`` (and so for ``MetricSpace.distance``)."""
    kind = space.kind
    if kind is SpaceKind.EUCLIDEAN_L2:
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(q.value, p.value)))
    elif kind is SpaceKind.PRODUCT_L1:
        d = sum(abs(a - b) for a, b in zip(q.value, p.value))
    elif kind is SpaceKind.CIRCLE_ARCLENGTH:
        gap = abs(q.value - p.value)
        d = min(gap, 2 * math.pi - gap)
    elif kind is SpaceKind.DISCRETE_TABLE:
        d = float(space.distance_table[q.value, p.value])
    elif kind is SpaceKind.N0_UNIT:
        d = 0.0 if q.value == p.value else 1.0
    else:  # N0_LINE
        d = float(abs(q.value - p.value))
    return d if space.transform is None else float(space.transform.fn(d))


def sample_point(rng, space):
    kind = space.kind
    if kind in (SpaceKind.EUCLIDEAN_L2, SpaceKind.PRODUCT_L1):
        return Point.vector(*rng.uniform(-10, 10, space.dimension))
    if kind is SpaceKind.CIRCLE_ARCLENGTH:
        return Point.angle(rng.uniform(0, 2 * math.pi))
    if kind is SpaceKind.DISCRETE_TABLE:
        return Point.index(int(rng.integers(0, len(space.distance_table))))
    return Point.index(int(rng.integers(0, 100)))


@pytest.mark.parametrize(
    "make_space",
    [
        lambda rng: euclidean_space(3),
        lambda rng: product_l1_space(2),
        lambda rng: circle_space(),
        lambda rng: random_table_space(rng, 24),
        lambda rng: n0_unit_space(),
        lambda rng: n0_line_space(),
    ],
    ids=["euclidean", "l1", "circle", "table", "n0-unit", "n0-line"],
)
def test_metric_axioms_on_random_triples(make_space):
    rng = np.random.default_rng(20240811)
    space = make_space(rng)
    for _ in range(TRIPLE_COUNT):
        q, p, r = (sample_point(rng, space) for _ in range(3))
        dqp = space.distance(q, p)
        assert dqp >= 0.0
        assert space.distance(q, q) == 0.0
        if q != p:
            assert dqp > 0.0
        assert dqp == space.distance(p, q)
        assert space.distance(q, r) <= dqp + space.distance(p, r) + ATOL


def test_distance_examples():
    assert euclidean_space(2).distance(Point.vector(0, 0), Point.vector(3, 4)) == 5.0
    circ = circle_space()
    assert circ.distance(Point.angle(0), Point.angle(math.pi)) == math.pi
    assert circ.distance(Point.angle(0), Point.angle(3 * math.pi / 2)) == math.pi / 2
    assert product_l1_space(2).distance(Point.vector(0, 0), Point.vector(1, 1)) == 2.0
    half = euclidean_space(1, transform=MetricTransform.power(0.5))
    assert half.distance(Point.vector(0), Point.vector(4)) == 2.0
    # squares of these differences overflow or underflow to 0 unscaled
    line = euclidean_space(1)
    assert line.distance(Point.vector(0.0), Point.vector(1e200)) == 1e200
    assert line.distance(Point.vector(0.0), Point.vector(1e-170)) == 1e-170
    assert line.distance(Point.vector(0.0), Point.vector(5e-324)) == 5e-324
    plane = euclidean_space(2)
    for scale in (1e-170, 1e200):
        far = Point.vector(3 * scale, 4 * scale)
        assert plane.distance(Point.vector(0, 0), far) == pytest.approx(5 * scale, rel=1e-15)
    # a distance beyond the float range is +inf, with no RuntimeWarning
    # (an error under this suite's warning filter): from the L1 sum, and
    # from y - x itself
    top = 2.0**1022
    l1 = product_l1_space(2)
    assert l1.distance(Point.vector(-top, -top), Point.vector(top, top)) == math.inf
    for space in (line, plane):
        low, high = ([sign * 1.5e308] * space.dimension for sign in (-1, 1))
        assert space.distance(Point.vector(*low), Point.vector(*high)) == math.inf
    # a near-maximum distance that is within range stays finite
    assert plane.distance(Point.vector(0, 0), Point.vector(1.5e308, 0)) == 1.5e308


def test_angle_normalization():
    assert Point.angle(2 * math.pi) == Point.angle(0.0)
    assert 0.0 <= Point.angle(-1.0).value < 2 * math.pi


def test_point_kinds_never_collide():
    # 0.0 == 0 in Python, but an angle is not an index and neither is the
    # 1-D vector (0.0,)
    assert Point.angle(0.0) != Point.index(0)
    assert Point.vector(0.0) != Point.angle(0.0)
    assert len({Point.angle(0.0), Point.index(0), Point.vector(0.0)}) == 3


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_power_transform_preserves_triangle(alpha):
    rng = np.random.default_rng(7)
    space = euclidean_space(2, transform=MetricTransform.power(alpha))
    for _ in range(2000):
        q, p, r = (sample_point(rng, space) for _ in range(3))
        assert space.distance(q, r) <= space.distance(q, p) + space.distance(p, r) + ATOL


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, float("nan"), float("inf")])
def test_power_transform_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha in"):
        MetricTransform.power(alpha)


def test_concave_inverse_transform_rejects_missing_function():
    with pytest.raises(ValueError, match="inverse_fn"):
        MetricTransform.concave_inverse(None)


@pytest.mark.parametrize(
    "sample",
    [
        [1.0, 3.0, 9.0, 27.0, 81.0, 243.0],
        [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        [0.5, 5.0, 7.5, 40.0, 600.0],
    ],
)
def test_concave_inverse_transform_preserves_axioms(sample):
    # inverse of the integral of a constructed concave strictly increasing h
    trace = construct_h(sample)
    inverse = IntegratedH(trace.result).inverse
    space = euclidean_space(1, transform=MetricTransform.concave_inverse(inverse))
    rng = np.random.default_rng(11)
    for _ in range(2000):
        q, p, r = (sample_point(rng, space) for _ in range(3))
        dqp = space.distance(q, p)
        assert dqp >= 0.0
        assert dqp == space.distance(p, q)
        assert space.distance(q, r) <= dqp + space.distance(p, r) + 1e-9
    assert space.distance(Point.vector(1.0), Point.vector(1.0)) == 0.0


def test_boundedness_preserved_under_transforms():
    base = euclidean_space(1)
    powered = euclidean_space(1, transform=MetricTransform.power(0.5))
    concaved = euclidean_space(
        1,
        transform=MetricTransform.concave_inverse(
            IntegratedH(construct_h([1.0, 2.0, 4.0, 8.0, 16.0]).result).inverse
        ),
    )
    coords = np.linspace(0, 9, 10)
    g_base = line_grid(base, coords)
    base_diam = diameter(g_base, PointSet.full(g_base))
    assert math.isfinite(base_diam)
    for space in (powered, concaved):
        g = line_grid(space, coords)
        d = diameter(g, PointSet.full(g))
        assert math.isfinite(d) and d > 0.0
    g_pow = line_grid(powered, coords)
    assert diameter(g_pow, PointSet.full(g_pow)) == base_diam**0.5


def test_diameter_examples():
    grid = line_grid(euclidean_space(1), [0.0, 1.0])
    assert diameter(grid, PointSet.full(grid)) == 1.0
    assert diameter(grid, PointSet(grid, [0])) == 0.0
    assert diameter(grid, PointSet.empty(grid)) == 0.0
    unit = integer_grid(n0_unit_space(), 10)
    assert diameter(unit, PointSet(unit, [0, 5, 9])) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(1, 12),
    raw_a=st.lists(st.integers(0, 11), max_size=20),
    raw_b=st.lists(st.integers(0, 11), max_size=20),
    probe=st.integers(-3, 14),
    outside=st.integers(1, 10**6),
)
def test_point_set_matches_frozenset_oracle(size, raw_a, raw_b, probe, outside):
    grid = integer_grid(n0_unit_space(), size)
    raw_a = [i % size for i in raw_a]  # unsorted, with repeats, possibly empty
    raw_b = [i % size for i in raw_b]
    a, b = PointSet(grid, raw_a), PointSet(grid, np.array(raw_b[::-1], dtype=np.int64))
    oracle_a, oracle_b = frozenset(raw_a), frozenset(raw_b)
    assert a.indices.dtype == np.intp and not a.indices.flags.writeable
    assert a.indices.tolist() == sorted(oracle_a)
    assert len(a) == len(oracle_a)
    assert (probe in a) == (probe in oracle_a)
    assert (a == b) == (oracle_a == oracle_b)
    assert a == PointSet(grid, sorted(oracle_a))
    assert hash(a) == hash(PointSet(grid, sorted(oracle_a)))
    assert a.is_subset_of(b) == (oracle_a <= oracle_b)
    assert PointSet.empty(grid).is_subset_of(a)
    assert a.is_subset_of(PointSet.full(grid))
    for bad in (-outside, size - 1 + outside):
        with pytest.raises(ValueError, match="out of range"):
            PointSet(grid, raw_a + [bad])
    # a caller's writable intp array is copied, never frozen or shared
    arr = np.array(raw_a, dtype=np.intp)
    c = PointSet(grid, arr)
    assert c == a and arr.flags.writeable and not np.shares_memory(arr, c.indices)


def test_point_set_is_unequal_to_other_types_and_reprs_its_sizes():
    grid = integer_grid(n0_unit_space(), 5)
    s = PointSet(grid, [3, 1])
    assert s != 0 and not s == 0
    assert repr(s) == "PointSet(2 of 5)"


def test_point_sets_on_different_grids_never_mix():
    grid, other = integer_grid(n0_unit_space(), 4), integer_grid(n0_unit_space(), 4)
    a = PointSet(grid, [1, 2])
    assert a != PointSet(other, [1, 2])
    with pytest.raises(GridMismatchError):
        a.is_subset_of(PointSet(other, [1, 2]))
    with pytest.raises(ValueError):
        a.indices[0] = 3


@pytest.mark.parametrize(
    "bad",
    [
        [1.7, 2.2],  # used to truncate to {1, 2}
        np.array([True, False, True]),  # used to read as the indices {0, 1}
        [True, False],
        np.array([1.0, 2.0]),  # integral floats too
        np.array([1, 2], dtype=object),
    ],
)
def test_point_set_rejects_non_integer_indices(bad):
    grid = integer_grid(n0_unit_space(), 4)
    with pytest.raises(ValueError, match="point set indices must be integers"):
        PointSet(grid, bad)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.intp])
def test_point_set_takes_every_integer_dtype(dtype):
    grid = integer_grid(n0_unit_space(), 4)
    assert PointSet(grid, np.array([3, 1, 3], dtype=dtype)).indices.tolist() == [1, 3]


@pytest.mark.parametrize(
    "empty", [(), [], np.array([]), np.array([], dtype=bool), np.zeros((0,), dtype=object)]
)
def test_empty_input_of_any_dtype_is_the_empty_set(empty):
    grid = integer_grid(n0_unit_space(), 4)
    ps = PointSet(grid, empty)
    assert ps == PointSet.empty(grid) and ps.indices.dtype == np.intp


def test_n0_space_distances():
    unit, lin = n0_unit_space(), n0_line_space()
    assert unit.distance(Point.index(3), Point.index(9)) == 1.0
    assert unit.distance(Point.index(4), Point.index(4)) == 0.0
    assert lin.distance(Point.index(3), Point.index(9)) == 6.0


def test_large_table_uses_sampled_triangle_check():
    # above the full-check limit validation samples triples; a valid metric
    # (L1 embedding) must still construct
    rng = np.random.default_rng(1)
    pts = rng.integers(0, 200, size=(600, 2))
    table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    for i in range(600):
        for j in range(i + 1, 600):
            if table[i, j] == 0:
                table[i, j] = table[j, i] = 1.0
    space = table_space(table)
    assert space.distance(Point.index(0), Point.index(1)) == table[0, 1]


def test_distance_table_validation():
    with pytest.raises(ValueError, match="symmetric"):
        table_space(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        table_space(np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        table_space(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="triangle"):
        table_space(
            np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        )


def test_invalid_points_rejected():
    space = euclidean_space(2)
    with pytest.raises(InvalidPointError):
        space.distance(Point.vector(0.0), Point.vector(1.0, 2.0))
    with pytest.raises(InvalidPointError):
        space.distance(Point.angle(0.0), Point.vector(1.0, 2.0))
    with pytest.raises(InvalidPointError):
        integer_grid(n0_unit_space(), 5).index_of(Point.index(7))
    with pytest.raises(InvalidPointError):
        Point.index(-1)
    with pytest.raises(InvalidPointError, match="one packed point"):
        line_grid(euclidean_space(1), [0.0, 1.0]).distances_from([[0.0], [1.0]])


def test_pack_rejects_non_finite_coordinates():
    plane, circ = euclidean_space(2), circle_space()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidPointError, match="finite"):
            plane.pack([Point.vector(0.0, 1.0), Point.vector(2.0, bad)])
        with pytest.raises(InvalidPointError, match="finite"):
            circ.distance(Point.angle(0.0), Point.angle(bad))
        with pytest.raises(InvalidPointError, match="finite"):
            line_grid(euclidean_space(1), [0.0, bad])
        grid = line_grid(euclidean_space(1), [0.0, 1.0])
        with pytest.raises(InvalidPointError, match="finite"):
            grid.distances_from([[bad]])
    assert plane.pack([Point.vector(0.0, 1.0), Point.vector(2.0, 3.0)]).tolist() == [
        [0.0, 1.0],
        [2.0, 3.0],
    ]
    assert plane.pack([]).shape == (0, 2)
    assert n0_line_space().pack([Point.index(3), Point.index(0)]).dtype == np.int64
    with pytest.raises(InvalidPointError, match="outside table"):
        table_space(np.array([[0.0, 1.0], [1.0, 0.0]])).pack([Point.index(2)])


def test_grid_requires_distinct_points():
    with pytest.raises(ValueError, match="distinct"):
        line_grid(euclidean_space(1), [0.0, 0.0])
    # -0.0 and 0.0 are the same point, on a line, in a product and on the circle
    with pytest.raises(ValueError, match="distinct"):
        line_grid(euclidean_space(1), [0.0, -0.0])
    with pytest.raises(ValueError, match="distinct"):
        CandidateGrid(euclidean_space(2), [[1.0, -0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="distinct"):
        CandidateGrid(circle_space(), [0.0, 1.0, -0.0])
    with pytest.raises(ValueError, match="distinct"):
        CandidateGrid(n0_unit_space(), [2, 0, 2])
    assert len(CandidateGrid(euclidean_space(2), [[1.0, -0.0], [0.0, 1.0]])) == 2


def test_distance_matrix_matches_scalar_path():
    rng = np.random.default_rng(3)
    spaces = [
        euclidean_space(3),
        product_l1_space(2),
        circle_space(),
        random_table_space(rng, 24),
        n0_unit_space(),
        n0_line_space(),
        euclidean_space(2, transform=MetricTransform.power(0.3)),
    ]
    for space in spaces:
        points = list(dict.fromkeys(sample_point(rng, space) for _ in range(15)))
        grid = CandidateGrid(space, space.pack(points))
        # the test-local scalar formulas are the oracle for every block, row
        # and 1x1 block (the library's scalar distance)
        oracle = np.array([[scalar_distance(space, p, q) for q in points] for p in points])
        scalar = np.array([[space.distance(p, q) for q in points] for p in points])
        np.testing.assert_allclose(scalar, oracle, rtol=0, atol=ATOL)
        everything = np.arange(len(grid))
        np.testing.assert_allclose(
            grid.distance_matrix(everything, everything), oracle, rtol=0, atol=ATOL
        )
        for i, p in enumerate(points):
            row = grid.distances_from(space.pack((p,)))
            np.testing.assert_allclose(row, oracle[i], rtol=0, atol=ATOL)
        cases = [([4, 0, 4, 9], [2, 7, 1]), ([3], everything), (everything, [5, 6]), ([], [1])]
        for rows, cols in cases:
            expected = oracle[np.ix_(rows, cols)]
            block = grid.distance_matrix(rows, cols)
            assert block.shape == expected.shape
            np.testing.assert_allclose(block, expected, rtol=0, atol=ATOL)


def test_grid_coords_are_read_only_point_values():
    grid = line_grid(euclidean_space(1), [0.5, -1.0, 2.0])
    assert grid.coords.tolist() == [list(grid[i].value) for i in range(len(grid))]
    with pytest.raises(ValueError, match="read-only"):
        grid.coords[0, 0] = 9.0


def test_circle_grid_contains_quarter_points():
    grid = circle_grid(circle_space(), 360)
    assert grid.index_of(Point.angle(math.pi / 2)) == 90
    assert grid.index_of(Point.angle(3 * math.pi / 2)) == 270
    assert len(grid) == 360
    # angles that % rounds up to 2*pi are the grid point 0
    assert grid.index_of(Point.angle(-1e-20)) == 0
    assert grid.index_of(Point.angle(TWO_PI)) == 0


def test_product_grid_layout():
    ax = line_grid(euclidean_space(1), [0.0, 1.0])
    ay = line_grid(euclidean_space(1), [0.0, 0.5, 1.0])
    prod = product_grid([ax, ay])
    assert len(prod) == 6
    # row-major: first axis is the slow index
    assert prod[0] == Point.vector(0.0, 0.0)
    assert prod[1] == Point.vector(0.0, 0.5)
    assert prod[3] == Point.vector(1.0, 0.0)
    assert prod.axes == (ax, ay)
    # only product_grid sets axes, so they always describe the layout
    assert ax.axes is None
    with pytest.raises(TypeError):
        CandidateGrid(prod.space, prod.coords, axes=(ay, ax))


_AXES = ([0.0, 0.5, 1.0], [2.0, -1.0], [-0.0, 3.0, 4.5, 7.0], [1.0])
_TABLE = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))


def _builder_cases():
    """(id, grid, points): each builder's grid beside the Points it once
    held, one per grid point, as the oracle."""
    for count in (1, 7, 360, 3600):
        angles = [Point.angle(TWO_PI * (k / count)) for k in range(count)]
        yield f"circle-{count}", circle_grid(circle_space(), count), angles
    lines = {
        "ints": [3, -1, 0, 7],
        "float32": np.array([0.1, 2.5, -3.75, 1e-3], dtype=np.float32),
        "negative-zero": [-0.0, 1.0, -2.5],
    }
    for name, values in lines.items():
        points = [Point.vector(v) for v in values]
        yield f"line-{name}", line_grid(euclidean_space(1), values), points
    for space in (table_space(_TABLE), n0_unit_space(), n0_line_space()):
        points = [Point.index(i) for i in range(5)]
        yield f"integer-{space.kind.value}", integer_grid(space, 5), points
    for s in range(1, len(_AXES) + 1):
        axes = [line_grid(euclidean_space(1), values) for values in _AXES[:s]]
        points = [Point.vector(*combo) for combo in itertools.product(*_AXES[:s])]
        yield f"product-{s}", product_grid(axes), points


@pytest.mark.parametrize(
    "grid, points", [pytest.param(grid, points, id=name) for name, grid, points in _builder_cases()]
)
def test_grid_builders_match_the_grid_built_from_points(grid, points):
    # the builders emit packed arrays, and they agree bit for bit with
    # packing one Point per grid point
    old = grid.space.pack(points)
    assert grid.coords.dtype == old.dtype and grid.coords.shape == old.shape
    assert grid.coords.tobytes() == old.tobytes()
    assert [grid[i] for i in range(len(grid))] == points


@pytest.mark.parametrize(
    "grid, outsider",
    [
        (line_grid(euclidean_space(1), [0.5, -1.0, -0.0, 2.0]), Point.vector(0.25)),
        (product_grid([line_grid(euclidean_space(1), a) for a in _AXES[:3]]),
         Point.vector(0.0, 2.0, 0.25)),
        (CandidateGrid(euclidean_space(3), np.arange(12.0).reshape(4, 3)),
         Point.vector(0.0, 1.0, 5.0)),
        (circle_grid(circle_space(), 360), Point.angle(0.001)),
        (integer_grid(table_space(_TABLE), 5), Point.index(5)),
        (integer_grid(n0_unit_space(), 9), Point.index(9)),
        (integer_grid(n0_line_space(), 9), Point.index(10**6)),
    ],
    ids=["line", "product", "euclidean-3", "circle", "table", "n0-unit", "n0-line"],
)
def test_index_of_inverts_item_access(grid, outsider):
    assert [grid.index_of(grid[i]) for i in range(len(grid))] == list(range(len(grid)))
    assert grid.index_of(grid[-1]) == len(grid) - 1
    with pytest.raises(InvalidPointError, match="not a grid point"):
        grid.index_of(outsider)
    wrong_kind = Point.index(0) if grid.space.kind is SpaceKind.CIRCLE_ARCLENGTH else Point.angle(0.0)
    with pytest.raises(InvalidPointError, match="expected"):
        grid.index_of(wrong_kind)


@pytest.mark.parametrize(
    "space, values, message",
    [
        (euclidean_space(2), [[0.0, 1.0], [2.0, float("nan")]], "finite"),
        (euclidean_space(2), [0.0, 1.0], "shape"),
        (euclidean_space(1), [[0.0, 1.0]], "shape"),
        (circle_space(), [0.0, float("inf")], "finite"),
        (circle_space(), [0.0, -0.5], r"\[0, 2\*pi\)"),
        (circle_space(), [0.0, 7.0], r"\[0, 2\*pi\)"),
        (circle_space(), [[0.0]], "shape"),
        (n0_unit_space(), [0, -1], "nonnegative"),
        (n0_line_space(), [0.0, 1.0], "integer"),
        (n0_line_space(), [[0, 1]], "integer"),
        (table_space(np.array([[0.0, 1.0], [1.0, 0.0]])), [0, 2], "outside table"),
        # 2*pi is the point 0: one packed value per point
        (circle_space(), [0.0, TWO_PI], r"\[0, 2\*pi\)"),
    ],
)
def test_check_rejects_bad_values(space, values, message):
    with pytest.raises(InvalidPointError, match=message):
        space.check(values)
    with pytest.raises(InvalidPointError, match=message):
        CandidateGrid(space, values)


def test_check_returns_new_arrays_of_the_packed_form():
    values = np.array([0.5, 1.5])
    checked = circle_space().check(values)
    assert checked is not values and np.array_equal(checked, values)
    assert euclidean_space(1).check([0.5, 1.5]).shape == (2, 1)
    assert n0_line_space().check(np.array([3, 0], dtype=np.uint8)).dtype == np.int64
    # 2*pi is not a packed angle: Point.angle maps the tiny negative angles
    # that % rounds up to it onto 0.0
    assert Point.angle(-1e-20).value == 0.0
    with pytest.raises(InvalidPointError, match=r"\[0, 2\*pi\)"):
        circle_space().check([TWO_PI])


@pytest.mark.parametrize(
    "make",
    [circle_space, lambda: table_space(_TABLE), n0_unit_space, n0_line_space],
    ids=["circle", "table", "n0-unit", "n0-line"],
)
def test_dimension_is_settable_on_the_vector_kinds_only(make):
    space = make()
    assert space.dimension == 1
    for dimension in (0, 2, 7):
        with pytest.raises(ValueError, match="dimension 1"):
            MetricSpace(space.kind, dimension, space.distance_table)


def test_largest_circle_grid_memory_is_a_few_arrays():
    # the grid holds one float per point; building it and checking that its
    # points are distinct take a few more arrays of that size, not a Point
    # object and a dict entry per point
    tracemalloc.start()
    try:
        grid = circle_grid(circle_space(), MAX_GRID_POINTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == MAX_GRID_POINTS
    assert grid.coords.nbytes == 8 * MAX_GRID_POINTS
    assert peak < 64 * MAX_GRID_POINTS
