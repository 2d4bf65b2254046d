"""Objectives, epsilon-argmin sets, the exact median-interval solver, and
product composition, each checked against an independent brute-force oracle."""

import contextlib
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet_sets import frechet_solver
from frechet_sets.cli import MAX_DRAWS
from frechet_sets.cost_model import NondecreasingFn, TableCost, h_cost, power_cost
from frechet_sets.frechet_solver import (
    ARGMIN_ABS_TOL,
    MAX_SAMPLE_LEN,
    MAX_SCHEDULE_C,
    EpsilonSchedule,
    FiniteDistribution,
    Objective,
    empirical_objective,
    eps_argmin,
    grid_restrict_interval,
    median_interval_1d,
    population_objective,
    product_mean_set,
)
from frechet_sets.lln_lab import SamplingDistribution, SplitMix64
from frechet_sets.metric_core import (
    CandidateGrid,
    GridMismatchError,
    Point,
    PointSet,
    circle_grid,
    circle_space,
    euclidean_space,
    line_grid,
    product_grid,
    table_space,
)

ORIGIN = Point.vector(0.0)


def test_population_objective_flat_on_unit_interval():
    # uniform mass on {0, 1}: the absolute-loss objective is flat on [0, 1]
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 0.5, 1.0])
    dist = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    obj = population_objective(dist, power_cost(1.0, ORIGIN), grid)
    assert np.array_equal(obj.values, np.zeros(3))


def test_population_objective_point_mass_minimum():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(-1, 2, 13))
    y = Point.vector(0.75)
    dist = FiniteDistribution((y,), np.array([1.0]))
    obj = population_objective(dist, power_cost(2.0, ORIGIN), grid)
    best = eps_argmin(obj, 0.0)
    assert best.points() == (y,)


def test_population_circle_antipodal_two_minimizers():
    space = circle_space()
    grid = circle_grid(space, 360)
    dist = FiniteDistribution.uniform((Point.angle(0.0), Point.angle(math.pi)))
    obj = population_objective(dist, power_cost(2.0, Point.angle(0.0)), grid)
    # independent brute-force oracle over the same grid
    angles = np.array([grid[i].value for i in range(len(grid))])
    gaps0 = np.minimum(np.abs(angles - 0.0), 2 * math.pi - np.abs(angles - 0.0))
    gaps1 = np.minimum(np.abs(angles - math.pi), 2 * math.pi - np.abs(angles - math.pi))
    oracle = 0.5 * gaps0**2 + 0.5 * gaps1**2
    oracle_set = set(np.flatnonzero(oracle <= oracle.min() + 1e-12).tolist())
    mean_set = eps_argmin(obj, 0.0)
    assert set(mean_set.indices) == oracle_set
    assert mean_set.points() == (Point.angle(math.pi / 2), Point.angle(3 * math.pi / 2))


def test_empirical_matches_population_on_multiplicity_sample():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 9))
    cost = power_cost(2.0, ORIGIN)
    for coords, weights, sample in [
        ((0.0, 1.0), (0.5, 0.5), [0, 1, 0, 1]),
        # K = 4 with dyadic weights: each count is n * w_k
        ((0.0, 0.3, 0.7, 1.0), (0.125, 0.375, 0.25, 0.25), [1, 2, 0, 1, 3, 2, 3, 1]),
    ]:
        support = tuple(Point.vector(v) for v in coords)
        dist = FiniteDistribution(support, np.array(weights))
        emp = empirical_objective(support, np.array(sample), cost, grid)
        pop = population_objective(dist, cost, grid)
        assert np.array_equal(emp.values, pop.values)


@st.composite
def _population_cases(draw):
    """A finite law with K <= 8 non-dyadic weights, a cost and a grid at one scale."""
    k = draw(st.integers(1, 8))
    masses = draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any))
    weights = np.array(masses) / sum(masses)
    scale = 10.0 ** draw(st.integers(-3, 9))
    # down to the subnormal range, where products of weight and row halves underflow
    coord = st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v * scale)
    g = draw(st.integers(1, 20))
    grid = line_grid(euclidean_space(1), draw(st.lists(coord, min_size=g, max_size=g, unique=True)))
    kind = draw(st.sampled_from(["power", "h", "table"]))
    if kind == "table":
        support = tuple(range(k))
        cost = TableCost([[draw(coord) for _ in range(g)] for _ in range(k)], grid)
    else:
        support = tuple(Point.vector(draw(coord)) for _ in range(k))
        anchor = Point.vector(draw(coord))
        if kind == "power":
            cost = power_cost(draw(st.sampled_from([0.7, 1.0, 2.0, 3.0])), anchor)
        else:
            cost = h_cost(NondecreasingFn((0.0, 1.0), (0.5, 2.0), 1.0), anchor)
    return FiniteDistribution(support, weights), cost, grid


def _table_law(weights, rows):
    """A law on data indices 0..K-1 whose cost row k is ``rows[k]``."""
    grid = line_grid(euclidean_space(1), np.arange(len(rows[0]), dtype=float))
    cost = TableCost(rows, grid)
    return FiniteDistribution(tuple(range(len(rows))), np.array(weights)), cost, grid


_MAX = sys.float_info.max


def _subnormal_h_law():
    """Weights 1/3 on three points, each with the h-cost row (0, 2**-1024, 2**-1023)."""
    tiny = 2.0**-1074
    support = tuple(Point.vector(v) for v in (0.0, tiny, -tiny))
    grid = line_grid(euclidean_space(1), [0.0, 2.0**-1023, 2.0**-1022])
    cost = h_cost(NondecreasingFn((0.0, 1.0), (0.5, 2.0), 1.0), ORIGIN)
    return FiniteDistribution(support, np.full(3, 1 / 3)), cost, grid


@settings(max_examples=300, deadline=None)
@given(_population_cases())
# rows at the float maximum, whose high halves round up to 2**1024: the
# exact rational fallback with weights 1/3 and 2/3, once with a sum inside
# the float range and once, with weights that sum to 1 + 1e-13, beyond it
@example(_table_law([1 / 3, 2 / 3], [[_MAX, 1.0, -_MAX], [_MAX, 1.0, 1e308]]))
@example(_table_law([1 / 3, 2 / 3 + 1e-13], [[_MAX, 1.0], [_MAX, 1.0]]))
# an inf row: it adds nothing at weight 0, and raises at a positive weight
@example(_table_law([0.0, 1.0], [[math.inf, -math.inf], [1.0, 0.1]]))
@example(_table_law([0.5, 0.5], [[math.inf, 1.0], [1.0, 0.1]]))
# subnormal rows, where products of weight halves and row halves underflow:
# the oracle gives 0x0.4000000000000p-1022 at the h law's second grid point,
# and 2**-1074, not 0, for three table rows of 2**-1074
@example(_subnormal_h_law())
@example(_table_law([1 / 3, 1 / 3, 1 / 3], [[2.0**-1074, 2.0**-1040]] * 3))
# a rational sum that rounds to zero from below: +0.0, as every zero sum
@example(_table_law([1 / 3, 2 / 3], [[-(2.0**-1074), 1.0], [0.0, 1.0]]))
def test_population_objective_matches_fraction_oracle(case):
    # sum over the support points of positive weight of w_k * r_k(q),
    # rounded once, for weights such as 1/3; it raises where that sum is
    # beyond the float range or a row it weighs is not finite
    dist, cost, grid = case
    terms = [
        (Fraction(w), cost.row(y, grid).tolist())
        for w, y in zip(dist.weights.tolist(), dist.support)
        if w
    ]
    try:
        expected = [
            float(sum(w * Fraction(row[j]) for w, row in terms)) + 0.0 for j in range(len(grid))
        ]
    except (OverflowError, ValueError):  # a total beyond the range, an inf or NaN entry
        with pytest.raises(ValueError, match="objective values must be finite"):
            population_objective(dist, cost, grid)
    else:
        assert _hex(population_objective(dist, cost, grid).values) == _hex(expected)


def test_empirical_single_point_objective():
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 0.5, 1.0])
    y = Point.vector(1.0)
    emp = empirical_objective([y], np.arange(1), power_cost(2.0, ORIGIN), grid)
    expected = np.array([(1 - g) ** 2 - 1.0 for g in (0.0, 0.5, 1.0)])
    assert np.allclose(emp.values, expected, atol=1e-15)


def test_empirical_objective_matches_weighted_form():
    # binary sample with dyadic frequency: mean cost has the closed form
    # p|1-q| + (1-p)|q| - p at every grid point, exactly
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 0.5, 1.0])
    points = [Point.vector(1.0), Point.vector(1.0), Point.vector(0.0), Point.vector(1.0)]
    p = 0.75
    expected = np.array([p * abs(1 - q) + (1 - p) * abs(q) - p for q in (0.0, 0.5, 1.0)])
    for dtype in (np.intp, np.uint8, np.uint64):
        sample = np.arange(len(points), dtype=dtype)
        emp = empirical_objective(points, sample, power_cost(1.0, ORIGIN), grid)
        assert np.array_equal(emp.values, expected)


def _magnitudes():
    # signed values at scales from 1e-250 to 1e250
    return st.builds(
        lambda m, e: m * 10.0**e,
        st.floats(-10.0, 10.0, allow_nan=False),
        st.integers(-250, 250),
    )


@st.composite
def _count_cases(draw):
    """A finite support, one of the three cost shapes, a sample and checkpoints."""
    k = draw(st.integers(1, 6))
    g = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["table", "power", "integrated"]))
    if kind == "table":
        grid = line_grid(euclidean_space(1), range(g))
        # entries drawn from a small shared pool and its negation, so rows
        # tie and cancel across support points, beside fresh values and zeros
        pool = st.sampled_from(draw(st.lists(_magnitudes(), min_size=1, max_size=4)))
        entry = st.one_of(pool, pool.map(lambda v: -v), _magnitudes(), st.just(0.0))
        rows = [[draw(entry) for _ in range(g)] for _ in range(k)]
        support, cost = tuple(range(k)), TableCost(rows, grid)
    else:
        coord = st.floats(-100.0, 100.0, allow_nan=False)
        grid = line_grid(
            euclidean_space(1), draw(st.lists(coord, min_size=g, max_size=g, unique=True))
        )
        support = tuple(Point.vector(v) for v in draw(st.lists(coord, min_size=k, max_size=k)))
        anchor = Point.vector(draw(coord))
        if kind == "power":
            cost = power_cost(draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])), anchor)
        else:
            cost = h_cost(NondecreasingFn((0.0, 1.0), (0.5, 2.0), 1.0), anchor)
    sample = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=200)))
    ns = sorted(draw(st.lists(st.integers(1, len(sample)), min_size=1, max_size=5)))
    return support, sample, cost, grid, ns


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(_count_cases())
def test_prefix_objectives_match_fraction_oracle(case):
    # the count-weighted sum, rounded once, then divided once by n
    support, sample, cost, grid, ns = case
    rows = [[Fraction(float(v)) for v in cost.row(y, grid)] for y in support]

    def expected(n):
        counts = Counter(sample[:n].tolist())
        return [
            float(sum(counts[k] * row[j] for k, row in enumerate(rows))) / n
            for j in range(len(grid))
        ]

    objectives = list(empirical_objective(support, sample, cost, grid, ns=ns))
    assert len(objectives) == len(ns)
    for n, obj in zip(ns, objectives):
        assert _hex(obj.values) == _hex(expected(n))
    whole = empirical_objective(support, sample, cost, grid)
    assert _hex(whole.values) == _hex(expected(len(sample)))


@settings(max_examples=150, deadline=None)
@given(_count_cases(), st.randoms(use_true_random=False))
def test_prefix_objective_ignores_the_order_of_its_draws(case, rnd):
    support, sample, cost, grid, ns = case
    n = ns[-1]
    shuffled = sample.copy()
    head = shuffled[:n].tolist()
    rnd.shuffle(head)
    shuffled[:n] = head
    (before,) = empirical_objective(support, sample, cost, grid, ns=[n])
    (after,) = empirical_objective(support, shuffled, cost, grid, ns=[n])
    assert _hex(after.values) == _hex(before.values)


_EDGES = (sys.float_info.max, 1e308, 2.0**1023, 1.0, 2.0**-1022, 5e-324, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_EDGES + tuple(-v for v in _EDGES)), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    ),
    st.data(),
)
def test_objectives_at_the_float_edges_match_fraction_oracle(rows, data):
    # entries at the float maximum and subnormal ones: each grid value is the
    # exact total rounded once, then divided by n, or the objective raises
    # where that total is beyond the float range, in every support order
    k = len(rows)
    sample = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=8))
    grid = line_grid(euclidean_space(1), [0.0, 1.0, 2.0])
    totals = [sum(Fraction(rows[i][j]) for i in sample) for j in range(len(grid))]
    try:
        expected = [(float(total) + 0.0) / len(sample) for total in totals]
    except OverflowError:
        expected = None
    for order in (list(range(k)), data.draw(st.permutations(range(k)))):
        # support point order[i] carries row i
        table = [rows[order.index(i)] for i in range(k)]
        args = (tuple(range(k)), np.array([order[i] for i in sample]), TableCost(table, grid))
        if expected is None:
            with pytest.raises(ValueError, match="objective values must be finite"):
                empirical_objective(*args, grid)
        else:
            assert _hex(empirical_objective(*args, grid).values) == _hex(expected)


def test_empirical_objective_rejects_samples_beyond_exact_counts():
    # a zero-stride view: the length is checked before any scan of the draws
    grid = line_grid(euclidean_space(1), [0.0, 1.0])
    support = (Point.vector(0.0), Point.vector(1.0))
    huge = np.broadcast_to(np.intp(0), (MAX_SAMPLE_LEN,))
    with pytest.raises(ValueError, match="fewer than"):
        empirical_objective(support, huge, power_cost(1.0, ORIGIN), grid)
    assert MAX_DRAWS < MAX_SAMPLE_LEN


@pytest.mark.parametrize("sample", [[0, 0], [0, 1]])
def test_empirical_objective_rejects_a_sum_beyond_the_float_range(sample):
    # a product count * half overflows, or finite terms sum past the range
    grid = line_grid(euclidean_space(1), [0.0])
    cost = TableCost([[1e308], [1e308]], grid)
    with pytest.raises(ValueError, match="objective values must be finite"):
        empirical_objective((0, 1), np.array(sample), cost, grid)


_TINY, _TIE, _BIG = 2.0**-70, 2.0**7, 2.0**60  # 2**7 is half an ulp of 2**60


@pytest.mark.parametrize(
    "rows, sample, fallbacks",
    [
        # second-level errors that are not 0: 2**60 + 2**7 is a tie that
        # s + c rounds to even, the extra 2**-70 makes the sum round up
        ([[_TINY, 1.0], [_BIG, 2.0], [_TIE, 3.0]], [0, 1, 2], 1),
        # a K = 1 law: two terms and no error cascade
        ([[1.0 + 2.0**-52, -3.0, 0.1, 1e300]], [0, 0, 0], 0),
        ([[1.5e308, 1.0]], [0, 0], 1),  # the product count * half overflows
        # finite terms whose sum overflows in column 0, and terms whose
        # partial sum overflows although their sum does not
        ([[1e308, 1.0], [1e308, 1.0]], [0, 1], 1),
        ([[1.0, 1e308], [1.0, 1e308], [1.0, -1e308]], [0, 1, 2], 1),
        # exact cancellations to zero: through the fallback in column 0,
        # certified in column 1, and -0.0 terms in column 2 that give +0.0
        (
            [[_TINY, 1.5, -0.0], [_BIG, -0.5, -0.0], [_TIE, 0.25, -0.0]]
            + [[-_TINY, -1.5, -0.0], [-_BIG, 0.5, -0.0], [-_TIE, -0.25, -0.0]],
            [0, 1, 2, 3, 4, 5],
            1,
        ),
        # the rows of the case before last in another order: no partial sum
        # overflows, and the check certifies the same value
        ([[1.0, 1e308], [1.0, -1e308], [1.0, 1e308]], [0, 1, 2], 0),
        # the high half of the float maximum rounds up to 2**1024
        ([[sys.float_info.max, 1.0]], [0], 1),
        ([[sys.float_info.max], [-sys.float_info.max]], [0, 1, 1], 1),
    ],
)
def test_checked_sum_falls_back_to_fsum(monkeypatch, rows, sample, fallbacks):
    # each grid value is the correctly rounded sum of the draws' costs (what
    # math.fsum gives wherever no partial sum overflows), divided by n, or
    # the objective raises where that sum is beyond the float range; the
    # exact rational fallback runs on exactly ``fallbacks`` columns, the
    # ones the TwoSum check cannot certify
    grid = line_grid(euclidean_space(1), np.arange(len(rows[0]), dtype=float))
    cost = TableCost(rows, grid)
    per_draw = [[rows[k][j] for k in sample] for j in range(len(grid))]
    rational_sum, summed = frechet_solver._rational_sum, []

    def counting_sum(counts, column):
        summed.append(column)
        return rational_sum(counts, column)

    monkeypatch.setattr(frechet_solver, "_rational_sum", counting_sum)
    try:
        expected = [(float(sum(map(Fraction, terms))) + 0.0) / len(sample) for terms in per_draw]
    except OverflowError:
        with pytest.raises(ValueError, match="objective values must be finite"):
            empirical_objective(tuple(range(len(rows))), np.array(sample), cost, grid)
    else:
        obj = empirical_objective(tuple(range(len(rows))), np.array(sample), cost, grid)
        assert _hex(obj.values) == _hex(expected)
        for terms, value in zip(per_draw, expected):
            with contextlib.suppress(OverflowError):  # fsum overflows on a partial sum
                assert (math.fsum(terms) + 0.0) / len(sample) == value
    # the fallback reads the K unsplit entries of each such column
    assert len(summed) == fallbacks
    assert all(len(column) == len(rows) for column in summed)


def _scalar_kahan_means(rows: np.ndarray, n: int) -> np.ndarray:
    # reference: one scalar compensated loop per grid point over the first n
    # rows in sample order; math.fsum keeps the whole compensation exactly
    # (a one-term Kahan loop can land an ulp away), then one division by n
    return np.array([math.fsum(rows[:n, j].tolist()) / n for j in range(rows.shape[1])])


def _prefix_case(kind: str):
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(-3.0, 5.0, 17))
    rng = np.random.default_rng(53)
    if kind == "table":
        rows = [rng.normal(0, 1e3, 17) for _ in range(6)]
        return tuple(range(6)), rng.integers(0, 6, 60), TableCost(rows, grid), grid
    # mixed scales plus repeated support indices, so the rounding of a
    # per-draw sum matters and rows are shared between draws
    values = np.concatenate([rng.uniform(-4.0, 6.0, 40), 1e6 * rng.uniform(-1, 1, 5)])
    support = tuple(Point.vector(float(v)) for v in values)
    sample = np.concatenate([np.arange(45), np.arange(15)])
    rng.shuffle(sample)
    if kind == "power":
        return support, sample, power_cost(1.5, ORIGIN), grid
    cost = h_cost(NondecreasingFn((0.0, 1.0), (0.5, 2.0), 1.0), ORIGIN)
    return support, sample, cost, grid


@pytest.mark.parametrize("kind", ["power", "integrated", "table"])
@pytest.mark.parametrize("ns", [[1], [2, 2, 7, 7, 7, 31], [60], [1, 1, 60, 60]])
def test_prefix_objectives_match_scalar_kahan_loop(kind, ns):
    # the count form against a per-draw sum in sample order
    support, sample, cost, grid = _prefix_case(kind)
    rows = np.vstack([cost.row(support[i], grid) for i in sample])
    objectives = list(empirical_objective(support, sample, cost, grid, ns=ns))
    assert len(objectives) == len(ns)
    for n, obj in zip(ns, objectives):
        assert np.array_equal(obj.values, _scalar_kahan_means(rows, n))
    whole = empirical_objective(support, sample, cost, grid)
    assert np.array_equal(whole.values, _scalar_kahan_means(rows, len(sample)))


@pytest.mark.parametrize("ns", [[3, 2], [0, 4], [-1], [61], [5, 61], []])
def test_prefix_objectives_reject_bad_checkpoints(ns):
    support, sample, cost, grid = _prefix_case("power")
    assert len(sample) == 60
    with pytest.raises(ValueError, match="ns must be"):
        empirical_objective(support, sample, cost, grid, ns=ns)


@pytest.mark.parametrize(
    "sample, message",
    [
        ([0, 2], r"indices must lie in \[0, len\(support\)\)"),
        ([-1, 0], r"indices must lie in \[0, len\(support\)\)"),
        ([0.0, 1.0], "support indices"),
        ([], "support indices"),
        ([[0, 1]], "support indices"),
    ],
)
def test_empirical_objective_rejects_bad_sample_indices(sample, message):
    # a negative index would otherwise pick a row from the end of the support
    grid = line_grid(euclidean_space(1), [0.0, 1.0])
    support = (Point.vector(0.0), Point.vector(1.0))
    with pytest.raises(ValueError, match=message):
        empirical_objective(support, np.array(sample), power_cost(1.0, ORIGIN), grid)


def test_eps_argmin_examples():
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 0.5, 1.0])
    flat = Objective(grid, np.zeros(3))
    assert eps_argmin(flat, 0.0).indices.tolist() == [0, 1, 2]
    bumpy = Objective(grid, np.array([0.3, 0.0, 0.1]))
    assert eps_argmin(bumpy, 0.1).indices.tolist() == [1, 2]
    assert eps_argmin(bumpy, 0.0).indices.tolist() == [1]
    with pytest.raises(ValueError):
        eps_argmin(bumpy, -0.1)


def test_eps_argmin_majority_sample_on_endpoints():
    # binary sample leaning above one half: the zero-slack argmin over the
    # endpoint grid is the majority endpoint alone
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 1.0])
    points = [Point.vector(v) for v in (1.0, 1.0, 0.0, 1.0, 1.0)]
    emp = empirical_objective(points, np.arange(len(points)), power_cost(1.0, ORIGIN), grid)
    assert eps_argmin(emp, 0.0).points() == (Point.vector(1.0),)


@given(
    values=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    eps_pair=st.tuples(st.floats(0, 10), st.floats(0, 10)),
)
@settings(max_examples=200, deadline=None)
def test_eps_argmin_monotone_in_eps(values, eps_pair):
    space = euclidean_space(1)
    grid = line_grid(space, np.arange(len(values), dtype=float))
    obj = Objective(grid, np.array(values))
    lo, hi = min(eps_pair), max(eps_pair)
    assert eps_argmin(obj, lo).is_subset_of(eps_argmin(obj, hi))


# -- median interval -----------------------------------------------------------


def test_median_interval_examples():
    assert median_interval_1d([0.0, 1.0]) == (0.0, 1.0)
    assert median_interval_1d([0.0, 0.0, 1.0]) == (0.0, 0.0)
    lo, hi = median_interval_1d([0.0, 0.0, 1.0], eps=1.0 / 3.0)
    # exact eps-argmin over the real line: G(q) = 1 + 3|q| left of 0,
    # threshold G* + n*eps = 2, so the interval reaches -1/3 and exactly 1
    assert lo == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert hi == 1.0


def test_median_interval_unit_box_criterion():
    # [0,1] lies in the slack interval exactly when the endpoint objective
    # gap is within the slack
    samples = [
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0] * 5 + [0.0] * 3,
    ]
    for sample in samples:
        n = len(sample)
        ones = sum(sample)
        gap = abs(2 * ones - n) / n
        for eps in (gap * 0.5, gap, gap * 1.5 + 1e-9):
            lo, hi = median_interval_1d(sample, eps=eps) if eps > 0 else median_interval_1d(sample)
            contains = lo <= 0.0 and hi >= 1.0
            assert contains == (gap <= eps)


def test_median_interval_reads_strided_columns_like_lists():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(301, 3))  # integer, as the median runner draws
    mixed = np.column_stack([rng.normal(size=301), rng.uniform(-1e8, 1e8, 301)])
    for data in (bits, mixed):
        for k in range(data.shape[1]):
            for n in (1, 2, 17, 300, 301):
                column = data[:n, k]  # a strided view
                for eps in (0.0, 1e-3, 0.05):
                    assert median_interval_1d(column, eps) == median_interval_1d(
                        column.tolist(), eps
                    )


def test_median_interval_leaves_the_callers_array_unsorted():
    # the solver sorts its own float copy; a float64 input is not that copy
    sample = np.array([3.0, -1.0, 2.5, 0.0, 7.0, -4.0])
    before = sample.copy()
    for eps in (0.0, 0.5):
        median_interval_1d(sample, eps)
        assert np.array_equal(sample, before)
        median_interval_1d(sample[::2], eps)  # a strided view of it
        assert np.array_equal(sample, before)


def brute_force_interval(sample, eps, lo_probe, hi_probe, step=1e-4):
    xs = np.asarray(sample)
    qs = np.arange(lo_probe, hi_probe, step)
    f = np.abs(xs[None, :] - qs[:, None]).mean(axis=1)
    inside = qs[f <= f.min() + eps]
    return inside[0], inside[-1]


@given(
    sample=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    eps=st.floats(0.01, 2.0),
)
@settings(max_examples=150, deadline=None)
def test_median_interval_against_dense_scan(sample, eps):
    lo, hi = median_interval_1d(sample, eps=eps)
    b_lo, b_hi = brute_force_interval(sample, eps, min(sample) - 3, max(sample) + 3)
    assert lo == pytest.approx(b_lo, abs=5e-4)
    assert hi == pytest.approx(b_hi, abs=5e-4)


@pytest.mark.parametrize("eps", [1e-17, 4.2e-110])
def test_median_interval_tiny_eps_keeps_the_median_interval(eps):
    # the rounding of G at the knots dwarfs n * eps here; the interval must
    # stay finite and contain the eps = 0 interval
    assert median_interval_1d([0.3, 0.1], eps) == (0.1, 0.3)


_interval_samples = st.one_of(
    st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]), min_size=1, max_size=11),
    st.lists(
        st.one_of(st.floats(-1e8, 1e8), st.sampled_from([-1e8, 0.1, 0.3, 1e8])),
        min_size=1,
        max_size=11,
    ),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=11),
)


@given(
    sample=_interval_samples,
    exponents=st.tuples(st.floats(-300.0, 0.0), st.floats(-300.0, 0.0)),
)
@settings(max_examples=400, deadline=None)
def test_median_interval_finite_containing_and_growing(sample, exponents):
    # ties, mixed scale and eps log-uniform down to 1e-300
    small, large = sorted(10.0**e for e in exponents)
    base_lo, base_hi = median_interval_1d(sample)
    lo_s, hi_s = median_interval_1d(sample, small)
    lo_l, hi_l = median_interval_1d(sample, large)
    assert all(math.isfinite(v) for v in (lo_s, hi_s, lo_l, hi_l))
    assert lo_s <= base_lo and base_hi <= hi_s
    assert lo_l <= lo_s and hi_s <= hi_l


_normal_samples = st.tuples(st.integers(1, 11), st.integers(0, 2**32 - 1)).map(
    lambda size_seed: np.random.default_rng(size_seed[1]).normal(size=size_seed[0]).tolist()
)


@given(sample=st.one_of(_interval_samples, _normal_samples), exponent=st.floats(-300.0, 0.0))
# an uncompensated prefix misses the bound here by 10%: its rounding grows
# with n, while the bound's factor is fixed
@example(sample=[0.0, -68435457.0, -1e8, -1e8] + [0.1] * 5, exponent=0.0)
# knot sums and n * eps beyond the float range: solved on a scaled sample
@example(sample=[1e308, 1e308, -1e308], exponent=-1.0)
@example(sample=[1.7e308, 1.7e308], exponent=-1.0)
@example(sample=[-1.7e308, 1.7e308, 1.0], exponent=-1.0)
@settings(max_examples=400, deadline=None)
def test_median_interval_endpoints_within_rounding_bound(sample, exponent):
    # in exact arithmetic, G(q) = sum |y_i - q| at each endpoint is the
    # threshold min G + n * eps up to 8u * (sum |y_i| + n * max(|lo|, |hi|))
    eps = 10.0**exponent
    lo, hi = median_interval_1d(sample, eps)
    ys = sorted(Fraction(y) for y in sample)
    n = len(ys)

    def g(q):
        return sum(abs(y - q) for y in ys)

    threshold = g(ys[(n - 1) // 2]) + n * Fraction(eps)
    scale = sum(abs(y) for y in ys) + n * max(abs(Fraction(lo)), abs(Fraction(hi)))
    bound = 8 * Fraction(1, 2**53) * scale
    assert abs(g(Fraction(lo)) - threshold) <= bound
    assert abs(g(Fraction(hi)) - threshold) <= bound


def test_median_interval_beyond_the_float_range():
    # G(q) = 3|q| meets 3 * 1e308 at +-1e308, although 3 * 1e308 overflows
    assert median_interval_1d([0.0, 0.0, 0.0], 1e308) == (-1e308, 1e308)
    assert median_interval_1d([1.0, 2.0, 3.0], 1e308) == (-1e308, 1e308)
    for sample, eps in (([1e308], 1.7e308), ([-1.7e308, 1.0], 1e308)):
        with pytest.raises(ValueError, match="beyond the float range"):
            median_interval_1d(sample, eps)


def test_median_interval_rejects_non_finite_samples():
    for sample in ([float("nan"), 1.0, 2.0], [float("inf"), 1.0], [1.0, -float("inf")]):
        for eps in (0.0, 0.1):
            with pytest.raises(ValueError, match="finite"):
                median_interval_1d(sample, eps)


@pytest.mark.parametrize("dtype", [bool, float])
@pytest.mark.parametrize("shape", [(2, 3), (1, 4), ()], ids=["2x3", "1x4", "scalar"])
def test_median_interval_rejects_a_sample_that_is_not_one_dimensional(shape, dtype):
    # the sorted path raised TypeError on these shapes and AxisError on a scalar
    for eps in (0.0, 0.1):
        with pytest.raises(ValueError, match="one-dimensional"):
            median_interval_1d(np.ones(shape, dtype=dtype), eps)


def test_median_interval_rejects_an_infinite_eps():
    # it returned (-inf, inf), not the finite endpoints it documents
    for sample in ([0.0, 1.0], np.array([True, False])):
        with pytest.raises(ValueError, match="finite"):
            median_interval_1d(sample, math.inf)


def _solved(sample, eps):
    """The endpoints as float hex strings, or the message of the ValueError."""
    try:
        return tuple(v.hex() for v in median_interval_1d(sample, eps))
    except ValueError as exc:
        return "ValueError", str(exc)


#: 0, subnormals, tiny, moderate and huge slacks; from 1e308 on, n * eps
#: passes 2**1020 at every n, so the solve runs on the scaled sample
_BIT_EPS = (0.0, 5e-324, 2.0**-1030, 1e-200, 1e-17, 0.5, 1e100, 1e300, 1e308, sys.float_info.max)


@st.composite
def _bit_samples(draw):
    n = draw(st.one_of(st.integers(1, 70), st.integers(1, 2**17 + 1), st.just(2**17 + 1)))
    ones = draw(
        st.one_of(
            st.sampled_from([0, n]),
            st.integers(-3, 3).map(lambda d: min(max(n // 2 + d, 0), n)),  # near n/2
            st.integers(0, n),
        )
    )
    eps = draw(st.one_of(st.sampled_from(_BIT_EPS + (n**-0.25,)), st.floats(0.0, 1e308)))
    return np.roll(np.arange(n) < ones, draw(st.integers(0, n - 1))), eps


@settings(max_examples=300, deadline=None)
@given(_bit_samples())
def test_median_interval_bool_path_matches_the_sorted_path(case):
    # a bool sample is solved from its count of ones; as int8 it takes the
    # sorted float path, and both give the same bits or the same error
    bits, eps = case
    assert _solved(bits, eps) == _solved(bits.astype(np.int8), eps)


def test_median_interval_bool_path_on_every_short_sample():
    for n in range(1, 41):
        for ones in range(n + 1):
            bits = np.arange(n) < ones
            for eps in _BIT_EPS + (n**-0.25,):
                assert _solved(bits, eps) == _solved(bits.astype(np.int8), eps), (n, ones, eps)


def test_median_interval_endpoints_sit_on_threshold():
    rng = np.random.default_rng(23)
    for _ in range(200):
        sample = rng.uniform(-5, 5, int(rng.integers(1, 25)))
        eps = float(rng.uniform(0.01, 1.0))
        lo, hi = median_interval_1d(sample, eps=eps)
        f = lambda q: float(np.abs(sample - q).mean())
        fmin = f(median_interval_1d(sample)[0])
        assert f(lo) == pytest.approx(fmin + eps, rel=1e-9, abs=1e-12)
        assert f(hi) == pytest.approx(fmin + eps, rel=1e-9, abs=1e-12)


def test_median_interval_consistent_with_grid_argmin():
    # the exact interval intersected with a grid equals the grid argmin,
    # whenever the grid contains the order statistics
    rng = np.random.default_rng(19)
    space = euclidean_space(1)
    for _ in range(50):
        sample = np.round(rng.uniform(-2, 2, int(rng.integers(1, 9))), 2)
        coords = np.unique(np.concatenate([sample, rng.uniform(-3, 3, 12)]))
        grid = line_grid(space, coords)
        points = [Point.vector(v) for v in sample]
        emp = empirical_objective(points, np.arange(len(points)), power_cost(1.0, ORIGIN), grid)
        for eps in (0.0, 0.3):
            lo, hi = median_interval_1d(sample, eps=eps)
            expected = grid_restrict_interval(grid, lo, hi)
            assert eps_argmin(emp, eps) == expected


# -- product composition ---------------------------------------------------------


def test_product_mean_set_full_rectangle():
    ax = line_grid(euclidean_space(1), [0.0, 0.5, 1.0])
    ay = line_grid(euclidean_space(1), [0.0, 0.5, 1.0])
    prod = product_grid([ax, ay])
    full = product_mean_set([PointSet.full(ax), PointSet.full(ay)], prod)
    assert full == PointSet.full(prod)
    segment = product_mean_set([PointSet(ax, [1]), PointSet.full(ay)], prod)
    assert segment.points() == (
        Point.vector(0.5, 0.0),
        Point.vector(0.5, 0.5),
        Point.vector(0.5, 1.0),
    )


def test_product_mean_set_validation():
    ax = line_grid(euclidean_space(1), [0.0, 1.0])
    ay = line_grid(euclidean_space(1), [0.0, 1.0])
    other = line_grid(euclidean_space(1), [0.0, 2.0])
    prod = product_grid([ax, ay])
    with pytest.raises(GridMismatchError):
        product_mean_set([PointSet.full(ax), PointSet.full(other)], prod)
    plain = line_grid(euclidean_space(1), [0.0, 1.0])
    with pytest.raises(GridMismatchError):
        product_mean_set([PointSet.full(ax)], plain)


def test_product_composition_matches_brute_force_2d():
    # dyadic axis coordinates and dyadic weights keep every objective value
    # exact, so index sets match exactly
    rng = np.random.default_rng(101)
    coords = np.arange(11) * 0.25
    space1 = euclidean_space(1)
    ax = line_grid(space1, coords)
    ay = line_grid(space1, coords)
    prod = product_grid([ax, ay])
    anchor2 = Point.vector(0.0, 0.0)
    anchor1 = Point.vector(0.0)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        sup_x = rng.choice(coords, k, replace=False)
        sup_y = rng.choice(coords, k, replace=False)
        # dyadic weights (integers over 64) keep the arithmetic exact
        ints = rng.multinomial(64, np.full(k, 1.0 / k))
        while np.any(ints == 0):
            ints = rng.multinomial(64, np.full(k, 1.0 / k))
        w = ints / 64.0
        dist_x = FiniteDistribution(tuple(Point.vector(v) for v in sup_x), w)
        dist_y = FiniteDistribution(tuple(Point.vector(v) for v in sup_y), w)
        product_support = tuple(
            Point.vector(a.value[0], b.value[0])
            for a in dist_x.support
            for b in dist_y.support
        )
        product_weights = np.outer(w, w).ravel()
        dist_2d = FiniteDistribution(product_support, product_weights)
        obj_2d = population_objective(dist_2d, power_cost(1.0, anchor2), prod)
        brute = eps_argmin(obj_2d, 0.0)
        per_axis = [
            eps_argmin(population_objective(d, power_cost(1.0, anchor1), axis), 0.0)
            for d, axis in ((dist_x, ax), (dist_y, ay))
        ]
        composed = product_mean_set(per_axis, prod)
        assert composed == brute


# -- empirical consistency --------------------------------------------------------


def test_empirical_values_tighten_with_sample_size():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 21))
    support = (Point.vector(0.0), Point.vector(1.0))
    dist = FiniteDistribution.uniform(support)
    cost = power_cost(2.0, ORIGIN)
    pop = population_objective(dist, cost, grid)
    sampler = SamplingDistribution(dist)
    improved = 0
    for seed in range(50):
        rng = SplitMix64(seed)
        sample = sampler.draw(rng, 10_000)
        dev = {}
        for n in (100, 10_000):
            emp = empirical_objective(dist.support, sample[:n], cost, grid)
            dev[n] = float(np.abs(emp.values - pop.values).max())
        improved += dev[10_000] < dev[100]
    assert improved >= 45  # at least 90% of seeds


@st.composite
def _sandwich_cases(draw):
    """A random table metric (L1 distances of distinct points of {0..4}**3, so
    every objective stays below 150 and its ulps far below ARGMIN_ABS_TOL), a
    grid of its points, a finite law, a sample drawn from it, and one of the
    three cost shapes."""
    cube = st.tuples(*[st.integers(0, 4)] * 3)
    pts = np.array(draw(st.lists(cube, min_size=1, max_size=12, unique=True)))
    size = len(pts)
    space = table_space(np.abs(pts[:, None] - pts[None]).sum(axis=2).astype(float))
    indices = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    grid = CandidateGrid(space, indices)
    k = draw(st.integers(1, 6))
    masses = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any))
    kind = draw(st.sampled_from(["power", "h", "table"]))
    if kind == "table":
        support = tuple(range(k))
        entry = st.floats(-10.0, 10.0, allow_nan=False)
        cost = TableCost(np.array([[draw(entry) for _ in indices] for _ in range(k)]), grid)
    else:
        points = st.integers(0, size - 1).map(Point.index)
        support = tuple(draw(st.lists(points, min_size=k, max_size=k)))
        anchor = draw(points)
        if kind == "power":
            cost = power_cost(draw(st.sampled_from([0.5, 1.0, 2.0])), anchor)
        else:
            cost = h_cost(NondecreasingFn((0.0, 1.0), (0.5, 2.0), 1.0), anchor)
    dist = FiniteDistribution(support, np.array(masses) / sum(masses))
    sample = SamplingDistribution(dist).draw(
        SplitMix64(draw(st.integers(0, 2**64 - 1))), draw(st.integers(1, 200))
    )
    return dist, sample, cost, grid


@settings(max_examples=100, deadline=None)
@given(_sandwich_cases(), st.data())
def test_eps_argmin_sets_sandwich_within_twice_the_sup_deviation(case, data):
    # the deterministic step behind the outer-limit and one-sided Hausdorff
    # laws: with delta = max_q |F_n(q) - F(q)|,
    #   argmin_eps F_n        is inside argmin_{eps + 2 delta} F, and
    #   argmin_{eps - 2 delta} F  is inside argmin_eps F_n when eps > 2 delta.
    # Each wider threshold takes ARGMIN_ABS_TOL for the rounding of the
    # thresholds and of delta, and nothing else. eps is drawn among the gaps
    # above the minimum, where membership changes.
    dist, sample, cost, grid = case
    emp = empirical_objective(dist.support, sample, cost, grid)
    pop = population_objective(dist, cost, grid)
    delta = float(np.abs(emp.values - pop.values).max())
    eps = data.draw(st.sampled_from((emp.values - emp.values.min()).tolist()))
    widened = eps_argmin(pop, eps + 2 * delta + ARGMIN_ABS_TOL)
    assert eps_argmin(emp, eps).is_subset_of(widened)
    eps = 2 * delta + data.draw(st.sampled_from((pop.values - pop.values.min()).tolist()))
    if eps > 2 * delta:
        inner = eps_argmin(pop, eps - 2 * delta)
        assert inner.is_subset_of(eps_argmin(emp, eps + ARGMIN_ABS_TOL))


# -- schedules and serialization ---------------------------------------------------


def test_epsilon_schedule():
    const = EpsilonSchedule.constant(0.5)
    assert np.array_equal(const.values(np.array([1, 5, 10])), [0.5, 0.5, 0.5])
    decay = EpsilonSchedule.power_decay(1.0, 0.25)
    assert np.allclose(decay.values(np.array([1, 16])), [1.0, 16.0**-0.25])
    with pytest.raises(ValueError, match="exponent must be >= 0"):
        EpsilonSchedule("power-decay", c=1.0, exponent=-1.0)
    with pytest.raises(ValueError):
        EpsilonSchedule("weird")
    with pytest.raises(ValueError, match="constant must be finite"):
        EpsilonSchedule.constant(math.nan)
    assert EpsilonSchedule.constant(MAX_SCHEDULE_C).c == 1e100
    for c in (-1.0, math.nextafter(MAX_SCHEDULE_C, math.inf), 1e308):
        with pytest.raises(ValueError, match=r"constant must be >= 0 and <= 1e\+100"):
            EpsilonSchedule.power_decay(c, 0.25)
    with pytest.raises(ValueError, match="exponent must be finite"):
        EpsilonSchedule.power_decay(1.0, math.inf)


@pytest.mark.parametrize("c", [0.0, 0.05, 1e100])
def test_constant_schedule_values_are_c_bit_for_bit(c):
    # one formula for both kinds, c * n**-exponent: a constant schedule has
    # exponent 0 and n**-0.0 is exactly 1.0, so every eps_n is c itself. The
    # median runner passes int32 n up to MAX_MEDIAN_N
    powers = 2 ** np.arange(12, 31)
    ns = np.concatenate([np.arange(1, 4097), powers - 1, powers, powers + 1])
    for dtype in (np.int32, np.int64):
        values = EpsilonSchedule.constant(c).values(ns.astype(dtype))
        expected = np.full(len(ns), c)
        assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected.tolist()]


def test_constant_schedule_rejects_an_exponent():
    # an ignored exponent would still be echoed into the result config
    with pytest.raises(ValueError, match="schedule exponent must be 0 for kind 'constant'"):
        EpsilonSchedule("constant", c=0.05, exponent=0.25)
    assert EpsilonSchedule("constant", c=0.05, exponent=0.0) == EpsilonSchedule.constant(0.05)


def test_objective_validation():
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 1.0])
    with pytest.raises(ValueError, match="one entry per grid point"):
        Objective(grid, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        Objective(grid, np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        FiniteDistribution((Point.vector(0.0),), np.array([0.5]))
