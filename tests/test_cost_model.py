"""Cost hierarchy: exact integration, doubling constants, inequality suite,
and the constructive concave-h recipe."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frechet_sets.cost_model import (
    CostFunction,
    IntegratedH,
    NondecreasingFn,
    NonInvertibleError,
    TableCost,
    UndefinedDoublingError,
    _integrate_h_tilde,
    check_lemma_inequalities,
    construct_h,
    estimate_doubling_constant,
    h_cost,
    power_cost,
)
from frechet_sets.frechet_solver import (
    FiniteDistribution,
    eps_argmin,
    population_objective,
)
from frechet_sets.metric_core import MetricTransform, Point, euclidean_space, line_grid


def random_h(rng) -> NondecreasingFn:
    """Piecewise-linear nondecreasing h with no flat zero head (finite b)."""
    k = int(rng.integers(1, 6))
    bp = (0.0, *np.sort(rng.uniform(0.5, 20.0, k - 1)).tolist()) if k > 1 else (0.0,)
    start = float(rng.uniform(0.0, 5.0))
    increments = rng.uniform(0.01, 5.0, k - 1)
    vals = (start, *np.cumsum(increments + start).tolist()) if k > 1 else (start,)
    tail = float(rng.uniform(0.01, 2.0))
    return NondecreasingFn(tuple(bp), tuple(vals), tail)


# -- evaluation ---------------------------------------------------------------


def test_eval_h_examples():
    ident = NondecreasingFn.identity()
    assert ident(3.0) == 3.0
    interp = NondecreasingFn((0.0, 1.0), (0.0, 2.0), 0.0)
    assert interp(0.5) == 1.0
    half = NondecreasingFn((0.0,), (0.0,), 0.5)  # derivative shape for exponent 2
    assert half(4.0) == 2.0
    with pytest.raises(ValueError):
        ident(-1.0)


def test_eval_h_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    f = random_h(rng)
    xs = rng.uniform(0, 50, 64)
    vec = f(xs)
    assert np.array_equal(vec, np.array([f(float(x)) for x in xs]))


def test_eval_H_examples():
    H = IntegratedH(NondecreasingFn.identity())
    assert H(4.0) == 8.0
    assert H.inverse(8.0) == 4.0
    squares = IntegratedH(NondecreasingFn((0.0,), (0.0,), 2.0))  # H(x) = x**2
    assert squares(3.0) == 9.0
    assert squares(0.0) == 0.0


def test_eval_H_additive_over_segments():
    rng = np.random.default_rng(13)
    for _ in range(200):
        f = random_h(rng)
        H = IntegratedH(f)
        bp = list(f.breakpoints) + [f.breakpoints[-1] + 3.0]
        x = float(rng.uniform(0, bp[-1]))
        # independent recomputation: sum of exact trapezoids on a refinement
        knots = sorted({k for k in bp if k < x} | {0.0, x})
        total = 0.0
        for a, b in zip(knots, knots[1:]):
            total += (f(a) + f(b)) / 2.0 * (b - a)
        assert H(x) == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_H_dominates_half_point_rule():
    rng = np.random.default_rng(17)
    for _ in range(200):
        f = random_h(rng)
        H = IntegratedH(f)
        for delta in rng.uniform(0, 40, 10):
            assert H(delta) >= delta / 2.0 * f(delta / 2.0) - 1e-12


def test_invert_H_roundtrip():
    rng = np.random.default_rng(29)
    for _ in range(200):
        f = random_h(rng)
        H = IntegratedH(f)
        x = float(rng.uniform(0, 60))
        y = H(x)
        if y == 0.0 and H.flat_head_length > 0:
            continue
        assert H.inverse(y) == pytest.approx(x, rel=1e-10, abs=1e-10)


def test_invert_H_flat_head_rules():
    flat = NondecreasingFn((0.0, 1.0, 2.0), (0.0, 0.0, 3.0), 1.0)
    H = IntegratedH(flat)
    assert H.flat_head_length == 1.0
    with pytest.raises(NonInvertibleError):
        H.inverse(0.0)
    # positive levels stay uniquely invertible
    assert H.inverse(H(1.7)) == pytest.approx(1.7, rel=1e-10)
    zero = IntegratedH(NondecreasingFn((0.0,), (0.0,), 0.0))
    with pytest.raises(NonInvertibleError):
        zero.inverse(1.0)


# -- costs --------------------------------------------------------------------


def test_cost_examples():
    space = euclidean_space(1)
    origin = Point.vector(0.0)
    grid = line_grid(space, [0.0, 0.5, 5.0])
    square = power_cost(2.0, origin)
    assert square.row(Point.vector(1.0), grid)[1] == -0.75
    assert square.row(Point.vector(1.0), grid)[0] == 0.0
    absolute = power_cost(1.0, origin)
    assert absolute.row(Point.vector(3.0), grid)[2] == -1.0


def test_power_and_integrated_costs_agree_for_squares():
    space = euclidean_space(1)
    origin = Point.vector(0.0)
    square = power_cost(2.0, origin)
    integrated = h_cost(NondecreasingFn((0.0,), (0.0,), 2.0), origin)
    rng = np.random.default_rng(31)
    grid = line_grid(space, np.linspace(-3, 3, 13))
    for _ in range(50):
        y = Point.vector(float(rng.uniform(-4, 4)))
        assert np.array_equal(square.row(y, grid), integrated.row(y, grid))


def test_table_cost_lookup_and_errors():
    space = euclidean_space(1)
    grid = line_grid(space, [0.0, 1.0])
    cost = TableCost([[1.5, -2.0]], grid)
    assert cost.row(0, grid)[1] == -2.0
    assert np.array_equal(cost.row(0, grid), np.array([1.5, -2.0]))
    with pytest.raises(ValueError, match="not a row index of a 1-row table"):
        cost.row(1, grid)


def test_table_cost_rows_are_read_only_and_checked_once():
    grid = line_grid(euclidean_space(1), [0.0, 1.0, 2.0])
    source = np.arange(6.0).reshape(2, 3)
    cost = TableCost(source, grid)
    source[0, 0] = 9.0  # the table holds its own copy
    assert cost.row(0, grid)[0] == 0.0
    assert isinstance(cost, TableCost) and not cost.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cost.row(1, grid)[0] = 1.0
    assert np.array_equal(cost.row(np.int64(1), grid), [3.0, 4.0, 5.0])


@pytest.mark.parametrize(
    "rows",
    [[[1.0, 2.0]], [[1.0, 2.0, 3.0, 4.0]], np.empty((0, 3)), [1.0, 2.0, 3.0], np.zeros((1, 1, 3))],
    ids=["narrow", "wide", "no-rows", "1-D", "3-D"],
)
def test_table_cost_rejects_a_table_of_the_wrong_shape(rows):
    grid = line_grid(euclidean_space(1), [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"table cost needs K >= 1 rows of 3 entries"):
        TableCost(rows, grid)


@pytest.mark.parametrize("y", [-1, 2, 0.0, 1.5, "0", None, Point.vector(0.0)])
def test_table_cost_rejects_a_datum_that_is_not_a_row_index(y):
    grid = line_grid(euclidean_space(1), [0.0, 1.0])
    cost = TableCost([[1.0, 2.0], [3.0, 4.0]], grid)
    with pytest.raises(ValueError, match="is not a row index of a 2-row table"):
        cost.row(y, grid)


def test_table_cost_rows_are_only_defined_on_the_table_grid():
    grid = line_grid(euclidean_space(1), [0.0, 1.0])
    same_points = line_grid(euclidean_space(1), [0.0, 1.0])
    cost = TableCost([[1.0, 2.0]], grid)
    with pytest.raises(ValueError, match="table cost rows are only defined on the table grid"):
        cost.row(0, same_points)


@pytest.mark.parametrize("transform", [None, MetricTransform.power(0.5)], ids=["plain", "sqrt"])
@pytest.mark.parametrize("kind", ["power-0.5", "power-1", "power-2", "power-3", "h", "table"])
def test_cost_row_matches_scalar_evaluate(kind, transform):
    space = euclidean_space(1, transform=transform)
    grid = line_grid(space, np.linspace(-2.0, 3.0, 11))
    anchor = Point.vector(0.7)

    def d(y, q):  # the scalar line distance, transform applied last
        gap = abs(y.value[0] - q.value[0])
        return gap if transform is None else math.sqrt(gap)

    if kind == "table":
        rows = np.random.default_rng(5).normal(size=(3, 11))
        cost = TableCost(rows, grid)
        data = range(3)
    else:
        if kind == "h":
            cost = h_cost(NondecreasingFn((0.0, 1.0, 2.5), (0.5, 0.5, 2.0), 0.25), anchor)
        else:
            cost = power_cost(float(kind.split("-")[1]), anchor)
        data = [Point.vector(v) for v in (-3.1, -0.4, 0.0, 0.7, 1.25, 4.0)]
    for y in data:
        if kind == "table":
            expected = rows[y]
        else:
            f = cost.profile
            expected = [f(d(y, q)) - f(d(y, anchor)) for q in grid]
        # d**3 takes numpy's vector pow in a row and libm's pow in a scalar,
        # which may differ in the last bit
        np.testing.assert_allclose(cost.row(y, grid), expected, rtol=1e-15, atol=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda: power_cost(0.0, Point.vector(0.0)),
        lambda: power_cost(-1.0, Point.vector(0.0)),
        lambda: power_cost(float("nan"), Point.vector(0.0)),
        lambda: power_cost(float("inf"), Point.vector(0.0)),
        lambda: power_cost(2.0, None),
        lambda: h_cost(NondecreasingFn.identity(), None),
        lambda: CostFunction(abs, None),
        lambda: TableCost(np.empty((0, 2)), line_grid(euclidean_space(1), [0.0, 1.0])),
        lambda: TableCost([[1.0, 2.0]], line_grid(euclidean_space(1), [0.0, 1.0, 2.0])),
    ],
)
def test_cost_factories_reject_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_profile_cost_needs_both_fields():
    with pytest.raises(TypeError):
        CostFunction()
    with pytest.raises(TypeError):
        CostFunction(abs)


def test_anchor_independence_of_argmin():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(-2, 2, 17))
    rng = np.random.default_rng(37)
    for _ in range(20):
        support = tuple(Point.vector(float(v)) for v in rng.uniform(-2, 2, 4))
        dist = FiniteDistribution.uniform(support)
        for alpha in (1.0, 2.0):
            sets = []
            for anchor in (Point.vector(0.0), Point.vector(1.5)):
                obj = population_objective(dist, power_cost(alpha, anchor), grid)
                sets.append(eps_argmin(obj, 0.0).indices.tolist())
            assert sets[0] == sets[1]


# -- doubling constant ----------------------------------------------------------


def test_doubling_constant_examples():
    assert estimate_doubling_constant(NondecreasingFn.identity(), 100.0) == 2.0
    assert estimate_doubling_constant(NondecreasingFn.constant(4.0), 100.0) == 1.0
    half = NondecreasingFn((0.0,), (0.0,), 0.5)
    assert estimate_doubling_constant(half, 100.0) == 2.0


def test_doubling_constant_edge_cases():
    zero = NondecreasingFn((0.0,), (0.0,), 0.0)
    with pytest.raises(UndefinedDoublingError):
        estimate_doubling_constant(zero, 10.0)
    flat_head = NondecreasingFn((0.0, 1.0, 2.0), (0.0, 0.0, 3.0), 1.0)
    assert estimate_doubling_constant(flat_head, 10.0) == math.inf
    with pytest.raises(ValueError, match="x_max must be positive and finite"):
        estimate_doubling_constant(NondecreasingFn.identity(), math.inf)


# -- inequality suite -----------------------------------------------------------


def test_lemma_inequality_examples():
    ident = NondecreasingFn.identity()
    report = check_lemma_inequalities(ident, 3.0, 1.0)
    assert report.mvt_pass and report.mvt_slack == pytest.approx(2.0)
    same = check_lemma_inequalities(ident, 2.0, 2.0)
    assert same.mvt_pass and same.mvt_slack == 0.0
    rev = check_lemma_inequalities(ident, 1.0, 4.0, b=2.0)
    # reverse bound: H(3) - H(1) = 4 against H(4)/2 - 2*4*h(1) = -4
    assert rev.reverse_pass and rev.reverse_slack == pytest.approx(8.0)
    # every doubling constant of a nondecreasing h is >= 1; +inf is one
    assert check_lemma_inequalities(ident, 1.0, 2.0, b=math.inf).all_pass
    with pytest.raises(ValueError, match="b must be at least 1"):
        check_lemma_inequalities(ident, 1.0, 2.0, b=0.5)
    with pytest.raises(ValueError, match="x and y must be finite and nonnegative"):
        check_lemma_inequalities(ident, math.inf, 1.0, b=2.0)


def test_lemma_inequalities_random_suite():
    rng = np.random.default_rng(41)
    for _ in range(2000):
        f = random_h(rng)
        x, y = rng.uniform(0, 100, 2)
        report = check_lemma_inequalities(f, float(x), float(y))
        assert report.all_pass, (f, x, y, report)


# -- constructive concave h ------------------------------------------------------


def test_construct_h_bounded_hint_returns_identity():
    trace = construct_h([1.0, 1.0, 1.0], bounded_hint=2.0)
    assert trace.result == NondecreasingFn.identity()
    constant = construct_h([5.0, 5.0])
    assert constant.result == NondecreasingFn.identity()


def test_construct_h_threshold_sequence_starts_at_zero():
    trace = construct_h([1.0, 2.0, 4.0, 8.0])
    assert trace.z[0] == 0.0
    assert all(b - a >= 1.0 for a, b in zip(trace.z, trace.z[1:]))


def assert_valid_trace(trace):
    assert trace.x[0] == 0.0
    # strictly increasing breakpoints, unit levels, nonincreasing slopes
    assert all(b > a for a, b in zip(trace.x, trace.x[1:]))
    for n, x in enumerate(trace.x):
        assert trace.result(x) == float(n)
    assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(trace.a, trace.a[1:]))
    assert trace.result.tail_slope > 0
    for x, ht in zip(trace.x, trace.h_tilde_at_x):
        assert trace.result(x) <= ht + 1.0 + 1e-9


def test_construct_h_dyadic_sample_invariants():
    trace = construct_h([2.0**k for k in range(13)])
    assert_valid_trace(trace)
    assert len(trace.x) > 1


def test_construct_h_hand_computed_trace():
    # sample {1, 2, 4}: thresholds advance by the +1 spacing floor until the
    # empirical tail is exhausted at 4; the integrand crosses level 1 at
    # x = 1 exactly (unit weight over unit survival on [0, 1)), and level 2
    # is out of reach, so the result has a single unit segment
    trace = construct_h([1.0, 2.0, 4.0])
    assert trace.z == (0.0, 1.0, 2.0, 3.0, 4.0)
    assert trace.x == (0.0, 1.0)
    assert trace.a == (1.0, 1.0)
    assert trace.h_tilde_at_x == (0.0, 1.0)
    assert trace.result(2.5) == 2.5


def test_construct_h_random_and_heavy_tails():
    rng = np.random.default_rng(43)
    for i in range(50):
        if i % 2 == 0:
            sample = rng.uniform(0, 30, int(rng.integers(2, 200)))
        else:
            u = rng.random(int(rng.integers(2, 200)))
            sample = (1.0 / (1.0 - u)) ** (1.0 / 1.5)  # heavy tail
        trace = construct_h(sample)
        assert_valid_trace(trace)


def test_construct_h_rejects_bad_input():
    with pytest.raises(ValueError):
        construct_h([])
    with pytest.raises(ValueError):
        construct_h([-1.0, 2.0])
    with pytest.raises(ValueError, match="sample values must be finite"):
        construct_h([0.0, math.inf, 2.0])
    with pytest.raises(ValueError):
        construct_h([1.0], bounded_hint=0.0)


def _integrate_h_tilde_per_cut(z, xs):
    """The primitive of g / (1 - F) one cut at a time, as the oracle of the
    array form: the left end's segment weight over the left end's survival,
    times the cut's width, added to the running total."""
    upper = xs[-1]
    m = xs.size
    cuts = np.unique(np.concatenate([[0.0], z, xs[(xs > 0) & (xs < upper)], [upper]]))
    cuts = cuts[cuts <= upper]
    weights = 1.0 / (np.diff(z) * (np.arange(1, z.size) ** 2))
    cum = np.zeros(cuts.size)
    for i in range(cuts.size - 1):
        left, right = cuts[i], cuts[i + 1]
        seg = np.searchsorted(z, left, side="right") - 1
        g_val = weights[seg] if 0 <= seg < weights.size else 0.0
        survival = 1.0 - np.searchsorted(xs, left, side="right") / m
        cum[i + 1] = cum[i] + g_val / survival * (right - left)
    return cuts, cum


# nonnegative samples with ties and zeros (drawn from a small pool beside
# fresh values) and heavy tails (magnitudes up to 1e12)
_h_samples = st.lists(
    st.floats(0.0, 10.0, allow_nan=False),
    min_size=1,
    max_size=5,
).flatmap(
    lambda pool: st.lists(
        st.one_of(
            st.sampled_from(pool),
            st.just(0.0),
            st.floats(0.0, 1e3, allow_nan=False),
            st.integers(0, 12).map(lambda k: 10.0**k),
        ),
        min_size=2,
        max_size=60,
    )
)


@settings(max_examples=200, deadline=None)
@given(sample=_h_samples)
def test_integrate_h_tilde_matches_the_per_cut_loop(sample):
    xs = np.sort(np.asarray(sample, dtype=float))
    assume(xs[0] != xs[-1])  # construct_h returns the identity and never integrates
    z = np.asarray(construct_h(sample).z)
    cuts, cum = _integrate_h_tilde(z, xs)
    want_cuts, want_cum = _integrate_h_tilde_per_cut(z, xs)
    assert [v.hex() for v in cuts.tolist()] == [v.hex() for v in want_cuts.tolist()]
    assert [v.hex() for v in cum.tolist()] == [v.hex() for v in want_cum.tolist()]
