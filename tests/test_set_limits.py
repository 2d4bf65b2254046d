"""Set distances, limit estimates, convergence criteria in finite form, and
the three counterexample fixtures."""

import contextlib
import json
import math
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_sets.cost_model import (
    IntegratedH,
    NondecreasingFn,
    check_lemma_inequalities,
    construct_h,
    estimate_doubling_constant,
    power_cost,
)
from frechet_sets.frechet_solver import (
    FiniteDistribution,
    Objective,
    eps_argmin,
    median_interval_1d,
    product_mean_set,
)
from frechet_sets.lln_lab import (
    SamplingDistribution,
    SplitMix64,
    _regression_sample,
    make_n_grid,
    markov_bound,
    run_regression_certificate,
    run_ulln_single,
    symmetric_lambda_min,
)
from frechet_sets.metric_core import (
    CandidateGrid,
    GridMismatchError,
    MetricSpace,
    MetricTransform,
    Point,
    PointSet,
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
from frechet_sets import set_limits
from frechet_sets.set_limits import (
    FIXTURE_NAMES,
    SetSequence,
    analyze_sequence,
    approachable_minimizers_check,
    counterexample_fixture,
    d_hausdorff,
    d_subset,
    diagnose_fixture,
    eventually_bounded,
    inner_limit_estimate,
    outer_limit_estimate,
    uniform_on_bounded_check,
)


def line_integer_grid(count):
    return integer_grid(n0_line_space(), count)


def test_d_subset_examples():
    grid = line_integer_grid(10)
    a = PointSet(grid, [0, 5])
    b = PointSet(grid, [0])
    assert d_subset(a, b) == 5.0
    assert d_subset(b, a) == 0.0  # asymmetry
    assert d_subset(PointSet(grid, [0, 3]), PointSet(grid, range(10))) == 0.0


def test_d_subset_empty_conventions():
    grid = line_integer_grid(4)
    empty = PointSet.empty(grid)
    some = PointSet(grid, [1])
    assert d_subset(empty, some) == 0.0
    assert d_subset(some, empty) == math.inf
    assert d_subset(empty, empty) == 0.0


def test_d_hausdorff_examples():
    grid = line_integer_grid(6)
    a = PointSet(grid, [0])
    b = PointSet(grid, [0, 1])
    assert d_hausdorff(a, b) == 1.0
    assert d_hausdorff(a, a) == 0.0
    with pytest.raises(GridMismatchError):
        d_subset(a, PointSet(line_integer_grid(6), [0]))


def test_d_hausdorff_is_metric_on_nonempty_sets():
    rng = np.random.default_rng(2)
    grid = line_integer_grid(12)
    for _ in range(300):
        sets = [
            PointSet(grid, rng.choice(12, size=rng.integers(1, 6), replace=False))
            for _ in range(3)
        ]
        a, b, c = sets
        assert d_hausdorff(a, b) == d_hausdorff(b, a)
        assert (d_hausdorff(a, b) == 0.0) == (a == b)
        assert d_hausdorff(a, c) <= d_hausdorff(a, b) + d_hausdorff(b, c) + 1e-12


def test_d_subset_zero_iff_subset_on_finite_grids():
    rng = np.random.default_rng(4)
    grid = line_integer_grid(10)
    for _ in range(200):
        a = PointSet(grid, rng.choice(10, size=rng.integers(1, 5), replace=False))
        b = PointSet(grid, rng.choice(10, size=rng.integers(1, 8), replace=False))
        assert (d_subset(a, b) == 0.0) == a.is_subset_of(b)


def test_outer_and_inner_limit_basic_sequences():
    grid = line_integer_grid(8)
    constant = SetSequence(grid, tuple(PointSet(grid, [2, 3]) for _ in range(10)))
    assert outer_limit_estimate(constant, 0).indices.tolist() == [2, 3]
    assert inner_limit_estimate(constant, 0).indices.tolist() == [2, 3]

    alternating = SetSequence(
        grid, tuple(PointSet(grid, [i % 2]) for i in range(10))
    )
    assert outer_limit_estimate(alternating, 0).indices.tolist() == [0, 1]
    assert inner_limit_estimate(alternating, 0).indices.tolist() == []


def test_escaping_pair_limits_on_line():
    # sets {0, n}: the persistent point is 0; the escaping points are
    # transient, which the inner estimate detects exactly
    horizon = 60
    grid = line_integer_grid(horizon + 1)
    seq = SetSequence(grid, tuple(PointSet(grid, [0, n]) for n in range(1, horizon + 1)))
    tail = 30
    outer = outer_limit_estimate(seq, tail)
    inner = inner_limit_estimate(seq, tail)
    assert inner.indices.tolist() == [0]
    assert outer.indices.tolist() == [0, *range(tail + 1, horizon + 1)]
    assert inner.is_subset_of(outer)
    # one-sided distance to the true limit {0} never decays
    assert [d_subset(s, inner) for s in seq.sets] == list(range(1, horizon + 1))


def test_inner_subset_of_outer_random():
    rng = np.random.default_rng(8)
    grid = line_integer_grid(9)
    for _ in range(100):
        seq = SetSequence(
            grid,
            tuple(
                PointSet(grid, rng.choice(9, size=rng.integers(1, 4), replace=False))
                for _ in range(12)
            ),
        )
        assert inner_limit_estimate(seq, 3).is_subset_of(outer_limit_estimate(seq, 3))


def _outer_per_set(seq, tail_start, tol):
    # oracle: the per-set form min over tail sets of dist(q, B_n)
    every = np.arange(len(seq.grid))
    best = np.full(len(seq.grid), math.inf)
    for s in seq.sets[tail_start:]:
        if len(s):
            best = np.minimum(best, seq.grid.distance_matrix(every, s.indices).min(axis=1))
    return np.flatnonzero(best <= tol)


@st.composite
def _tail_cases(draw):
    space = draw(st.sampled_from([n0_line_space, n0_unit_space]))()
    size = draw(st.integers(1, 12))
    sets = draw(
        st.lists(st.lists(st.integers(0, size - 1), max_size=4), min_size=1, max_size=8)
    )
    tail_start = draw(st.integers(0, len(sets) - 1))
    tol = draw(st.sampled_from([0.0, 1.0, 3.5]))
    grid = integer_grid(space, size)
    return SetSequence(grid, tuple(PointSet(grid, s) for s in sets)), tail_start, tol


@settings(max_examples=300, deadline=None)
@given(_tail_cases())
def test_outer_limit_is_distance_to_the_tail_union(case):
    seq, tail_start, tol = case
    outer = outer_limit_estimate(seq, tail_start, tol)
    assert np.array_equal(outer.indices, _outer_per_set(seq, tail_start, tol))
    assert inner_limit_estimate(seq, tail_start, tol).is_subset_of(outer)


def _inner_per_point(seq, tail_start, tol):
    # oracle: max over tail sets of the per-point profile dist(q, B_n),
    # +inf for an empty set, thresholded at tol
    grid = seq.grid
    worst = np.zeros(len(grid))
    for s in seq.sets[tail_start:]:
        profile = np.full(len(grid), math.inf)
        for b in s.indices:
            profile = np.minimum(profile, grid.distances_from(grid.space.pack((grid[b],))))
        worst = np.maximum(worst, profile)
    return np.flatnonzero(worst <= tol)


@settings(max_examples=300, deadline=None)
@given(_tail_cases())
def test_inner_limit_is_the_intersection_of_tail_enlargements(case):
    seq, tail_start, tol = case
    inner = inner_limit_estimate(seq, tail_start, tol)
    assert np.array_equal(inner.indices, _inner_per_point(seq, tail_start, tol))


@st.composite
def _float_tail_cases(draw):
    # non-integer distances: a float line (with transform) or a circle; tol
    # is often a distance that occurs on the grid, so ties sit on the boundary
    size = draw(st.integers(1, 10))
    if draw(st.booleans()):
        values = draw(
            st.lists(
                st.floats(-5, 5, allow_nan=False, allow_subnormal=False),
                min_size=size, max_size=size, unique=True,
            )
        )
        transform = draw(st.sampled_from([None, MetricTransform.power(0.5)]))
        grid = line_grid(euclidean_space(1, transform=transform), values)
    else:
        grid = circle_grid(circle_space(), size)
    sets = draw(
        st.lists(st.lists(st.integers(0, size - 1), max_size=4), min_size=1, max_size=8)
    )
    tail_start = draw(st.integers(0, len(sets) - 1))
    every = np.arange(size)
    occurring = grid.distance_matrix(every, every).ravel().tolist()
    tol = draw(st.one_of(st.sampled_from(occurring), st.sampled_from([0.0, 0.3, math.inf])))
    return SetSequence(grid, tuple(PointSet(grid, s) for s in sets)), tail_start, tol


@settings(max_examples=300, deadline=None)
@given(_float_tail_cases())
def test_inner_limit_matches_the_per_point_form_on_float_grids(case):
    seq, tail_start, tol = case
    inner = inner_limit_estimate(seq, tail_start, tol)
    assert np.array_equal(inner.indices, _inner_per_point(seq, tail_start, tol))
    assert inner.is_subset_of(outer_limit_estimate(seq, tail_start, tol))


def _hausdorff_grids(rng):
    def vector_grid(space):
        points = [Point.vector(*rng.uniform(-10, 10, space.dimension)) for _ in range(20)]
        return CandidateGrid(space, space.pack(points))

    pts = rng.integers(0, 50, size=(16, 3))
    table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
    table[(table == 0) & ~np.eye(16, dtype=bool)] = 1.0
    return [
        vector_grid(euclidean_space(3)),
        vector_grid(product_l1_space(2)),
        CandidateGrid(
            circle_space(),
            circle_space().pack([Point.angle(a) for a in rng.uniform(0, 2 * math.pi, 20)]),
        ),
        integer_grid(table_space(table), 16),
        integer_grid(n0_unit_space(), 20),
        integer_grid(n0_line_space(), 20),
        vector_grid(euclidean_space(2, transform=MetricTransform.power(0.5))),
        vector_grid(product_l1_space(3, transform=MetricTransform.concave_inverse(np.sqrt))),
    ]


def test_d_hausdorff_is_the_larger_one_sided_distance_bit_for_bit():
    rng = np.random.default_rng(14)
    grids = _hausdorff_grids(rng)
    assert {g.space.kind for g in grids} == set(SpaceKind)
    for grid in grids:
        empty = PointSet.empty(grid)
        some = PointSet(grid, [1, 3])
        assert d_hausdorff(empty, empty) == 0.0
        assert d_hausdorff(empty, some) == math.inf
        assert d_hausdorff(some, empty) == math.inf
        for _ in range(100):
            a, b = (
                PointSet(grid, rng.choice(len(grid), size=rng.integers(1, 8), replace=False))
                for _ in range(2)
            )
            expected = max(d_subset(a, b), d_subset(b, a))
            got = d_hausdorff(a, b)
            assert type(got) is float
            assert math.copysign(1.0, got) == 1.0
            assert got.hex() == expected.hex()


def test_d_hausdorff_rejects_sets_of_different_grids():
    a = PointSet(line_integer_grid(6), [0])
    b = PointSet(line_integer_grid(6), [0])
    for x, y in ((a, b), (a, PointSet.empty(b.grid)), (PointSet.empty(a.grid), b)):
        with pytest.raises(GridMismatchError):
            d_hausdorff(x, y)


def test_d_subset_trajectory_is_d_subset_per_set_bit_for_bit():
    rng = np.random.default_rng(15)
    for grid in _hausdorff_grids(rng):
        def some(low):
            size = rng.integers(low, 8)
            return PointSet(grid, rng.choice(len(grid), size=size, replace=False))

        empty, full = PointSet.empty(grid), PointSet.full(grid)
        seq = SetSequence(grid, (empty, full, *(some(0) for _ in range(40))))
        for target in [empty, full] + [some(1) for _ in range(10)]:
            got = d_subset(seq, target)
            expected = [d_subset(s, target) for s in seq.sets]
            assert type(got) is tuple
            assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
    a, b = (PointSet(line_integer_grid(6), [0]) for _ in range(2))
    for distance in (d_subset, d_hausdorff):
        with pytest.raises(GridMismatchError):
            distance(SetSequence(a.grid, (a,)), b)


def test_eventually_bounded_examples():
    horizon = 100
    line = line_integer_grid(horizon + 1)
    escaping_line = SetSequence(
        line, tuple(PointSet(line, [0, n]) for n in range(1, horizon + 1))
    )
    report = eventually_bounded(escaping_line, cap=50.0)
    assert not report.bounded and report.witness is None

    singleton = SetSequence(line, tuple(PointSet(line, [4]) for _ in range(5)))
    report = eventually_bounded(singleton, cap=50.0)
    assert report.bounded and report.witness == 0

    unit = integer_grid(n0_unit_space(), horizon + 1)
    escaping_unit = SetSequence(
        unit, tuple(PointSet(unit, [0, n]) for n in range(1, horizon + 1))
    )
    report = eventually_bounded(escaping_unit, cap=50.0)
    assert report.bounded and report.witness == 0
    assert max(report.tail_diameters) == 1.0


def _scalar_distances(grid):
    """All-pairs grid distances, one scalar ``MetricSpace.distance`` call per
    pair: no block, ``nearest`` or ``metric_core.diameter`` involved."""
    points = [grid[i] for i in range(len(grid))]
    return np.array([[grid.space.distance(p, q) for q in points] for p in points])


def _brute_tail_diameters(distances, sets):
    """The diameter of each tail union ``sets[k:]``: the largest entry of
    ``distances`` over all pairs of its members, 0 with fewer than two."""
    tails = []
    for k in range(len(sets)):
        union = np.unique(np.concatenate([s.indices for s in sets[k:]]))
        tails.append(float(distances[np.ix_(union, union)].max()) if union.size > 1 else 0.0)
    return tuple(tails)


def test_tail_diameters_match_brute_force_unions():
    rng = np.random.default_rng(11)
    for make_space in (n0_line_space, n0_unit_space):
        grid = integer_grid(make_space(), 30)
        distances = _scalar_distances(grid)
        for _ in range(200):
            # sizes start at 0 so empty sets appear in most sequences
            sets = tuple(
                PointSet(grid, rng.choice(30, size=rng.integers(0, 5), replace=False))
                for _ in range(rng.integers(1, 10))
            )
            report = eventually_bounded(SetSequence(grid, sets))
            assert report.tail_diameters == _brute_tail_diameters(distances, sets)


def test_line_tail_diameters_build_no_block():
    # a block of the full grid's new points against the union would hold
    # 4096 x 4096 floats (134 MB); the two ends of the union take one cell
    grid = line_integer_grid(4096)
    seq = SetSequence(grid, (PointSet(grid, [3, 9]), PointSet(grid, [5]), PointSet.full(grid)))
    tracemalloc.start()
    try:
        report = eventually_bounded(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.tail_diameters == (4095.0, 4095.0, 4095.0)
    assert peak < 1_000_000


def test_singleton_distance_memory_is_independent_of_grid_size():
    grid = circle_grid(circle_space(), 5000)
    a, b = PointSet(grid, [0]), PointSet(grid, [2500])
    tracemalloc.start()
    try:
        assert d_subset(a, b) == pytest.approx(math.pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_approachable_minimizers_trajectories():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(-2, 2, 41))
    quad = Objective(grid, np.array([grid[i].value[0] ** 2 for i in range(len(grid))]))
    traj = approachable_minimizers_check(quad, [1.0, 0.25, 0.04, 0.001])
    assert [d for _, d in traj] == sorted([d for _, d in traj], reverse=True)
    assert traj[-1][1] == 0.0

    flat = Objective(grid, np.zeros(41))
    assert all(d == 0.0 for _, d in approachable_minimizers_check(flat, [0.5, 0.1]))

    with pytest.raises(ValueError):
        approachable_minimizers_check(quad, [0.1, 0.5])


def test_inner_estimate_on_a_median_run():
    # mean sets of a fair-bit sample on the endpoint-midpoint grid: the
    # inner estimate over a long run stays strictly inside the outer one
    from frechet_sets.frechet_solver import grid_restrict_interval, median_interval_1d
    from frechet_sets.lln_lab import SplitMix64

    # seed 7 gives a walk whose tail revisits zero and changes sign, so the
    # tail sets alternate between the two corners and the full interval
    grid = line_grid(euclidean_space(1), [0.0, 0.5, 1.0])
    bits = SplitMix64(7).bits_block(400)
    sets = []
    for n in range(1, 401):
        lo, hi = median_interval_1d(bits[:n].astype(float))
        sets.append(grid_restrict_interval(grid, lo, hi))
    seq = SetSequence(grid, tuple(sets))
    inner = inner_limit_estimate(seq, tail_start=200)
    outer = outer_limit_estimate(seq, tail_start=200)
    assert inner.is_subset_of(outer)
    assert len(inner) < len(outer)
    assert all(grid[i].value[0] in (0.0, 1.0) for i in inner.indices)


def test_uniform_on_bounded_check_values():
    grid = line_integer_grid(5)
    f = Objective(grid, np.arange(5.0))
    same = [Objective(grid, np.arange(5.0)) for _ in range(3)]
    assert np.array_equal(uniform_on_bounded_check(same, f, PointSet.full(grid)), np.zeros(3))
    drift = [Objective(grid, np.arange(5.0) + 1.0 / n) for n in (1, 2, 4)]
    assert np.allclose(
        uniform_on_bounded_check(drift, f, PointSet.full(grid)), [1.0, 0.5, 0.25]
    )


# -- finite forms of the convergence criteria ------------------------------------


def test_one_sided_convergence_implies_outer_inside_reference():
    rng = np.random.default_rng(21)
    grid = line_integer_grid(10)
    for _ in range(50):
        ref = PointSet(grid, rng.choice(10, size=rng.integers(2, 5), replace=False))
        stabilize = 6
        sets = []
        for n in range(12):
            if n < stabilize:
                sets.append(PointSet(grid, rng.choice(10, size=2, replace=False)))
            else:
                sets.append(
                    PointSet(
                        grid,
                        rng.choice(list(ref.indices), size=rng.integers(1, len(ref) + 1), replace=False),
                    )
                )
        seq = SetSequence(grid, tuple(sets))
        d_tail = [d_subset(s, ref) for s in sets[stabilize:]]
        assert max(d_tail) == 0.0
        assert outer_limit_estimate(seq, stabilize).is_subset_of(ref)
        # converse on a finite grid: the tail distances vanish exactly
        outer = outer_limit_estimate(seq, stabilize)
        assert all(d_subset(s, outer) == 0.0 for s in sets[stabilize:])


def test_epi_pass_forces_argmin_containment():
    rng = np.random.default_rng(33)
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 21))
    for _ in range(50):
        base = rng.uniform(0, 1, 21)
        f = Objective(grid, base)
        horizon = 16
        objs = [
            Objective(grid, base + rng.uniform(-1, 1, 21) / (n + 1) ** 2)
            for n in range(horizon)
        ]
        tail = 8
        tol = 1.0 / tail
        # balls of a radius below the 0.05 grid spacing hold one point, so
        # epi-convergence within tol over the tail is pointwise convergence
        if uniform_on_bounded_check(objs[tail:], f, PointSet.full(grid)).max() > tol:
            continue
        eps_n = [1.0 / (n + 1) for n in range(horizon)]
        argmin_seq = SetSequence(
            grid, tuple(eps_argmin(o, e) for o, e in zip(objs, eps_n))
        )
        outer = outer_limit_estimate(argmin_seq, tail, tol=0.0)
        # near-minimizers of the tail stay within the 2*tol-argmin of f
        target = eps_argmin(f, 2 * tol + max(eps_n[tail:]))
        assert outer.is_subset_of(target)


def test_uniform_plus_bounded_plus_approachable_gives_convergence():
    rng = np.random.default_rng(55)
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 21))
    for _ in range(50):
        base = rng.uniform(0, 1, 21)
        f = Objective(grid, base)
        horizon = 24
        objs = [
            Objective(grid, base + rng.uniform(-1, 1, 21) / (n + 2) ** 2)
            for n in range(horizon)
        ]
        sup_dev = uniform_on_bounded_check(objs, f, PointSet.full(grid))
        argmin_seq = SetSequence(
            grid, tuple(eps_argmin(o, 0.0) for o in objs)
        )
        assert eventually_bounded(argmin_seq).bounded  # finite grid
        argmin_f = eps_argmin(f, 0.0)
        final_gap = d_subset(argmin_seq.sets[-1], argmin_f)
        # distances are controlled by the value gaps: a near-minimizer of
        # f_n is a (2 sup_dev)-minimizer of f
        allowed = eps_argmin(f, 2 * float(sup_dev[-1]) + 1e-9)
        assert argmin_seq.sets[-1].is_subset_of(allowed)
        if allowed == argmin_f:
            assert final_gap == 0.0
        # the infima converge along with the sets
        assert abs(objs[-1].values.min() - f.values.min()) <= float(sup_dev[-1])


# -- counterexample fixtures -------------------------------------------------------


def test_fixtures_violate_exactly_their_hypothesis():
    for name in FIXTURE_NAMES:
        fixture = counterexample_fixture(name, horizon=100, grid_max=100)
        diag = diagnose_fixture(fixture, diameter_cap=50.0)
        flags = diag.hypothesis_flags
        assert not flags[fixture.violates], name
        assert sum(1 for ok in flags.values() if not ok) == 1, name
        # the escaping minimizer stays at unit distance across the horizon
        assert min(diag.escape_distances) >= 1.0
        for n, argmin_n in enumerate(fixture.argmin_sequence.sets, start=1):
            assert fixture.grid.index_of(Point.index(n)) in argmin_n


def test_fixture_escape_is_exactly_one_on_unit_metrics():
    for name in ("unit-indicator", "reciprocal-tail"):
        diag = diagnose_fixture(counterexample_fixture(name, horizon=60, grid_max=80))
        assert set(diag.escape_distances) == {1.0}


def test_fixture_uniform_deviation_profiles():
    unit = diagnose_fixture(counterexample_fixture("unit-indicator", horizon=50, grid_max=60))
    assert set(unit.sup_deviation_trajectory) == {1.0}
    line = diagnose_fixture(counterexample_fixture("line-indicator", horizon=50, grid_max=60))
    assert line.sup_deviation_trajectory[-1] == 0.0
    tail = diagnose_fixture(counterexample_fixture("reciprocal-tail", horizon=50, grid_max=60))
    assert tail.sup_deviation_trajectory[-1] == pytest.approx(1.0 / 50.0)


@pytest.mark.parametrize("horizon,grid_max", [(50, 60), (500, 500), (64, 4095)])
def test_fixture_approachability_reads_only_the_finest_probe(monkeypatch, horizon, grid_max):
    # the flag is the last entry of the whole ladder's trajectory, found
    # with one eps-argmin at a positive eps: the ladder's finest
    probes = []
    argmin = set_limits.eps_argmin

    def counting(obj, eps):
        probes.append(eps)
        return argmin(obj, eps)

    monkeypatch.setattr(set_limits, "eps_argmin", counting)
    for name in FIXTURE_NAMES:
        fixture = counterexample_fixture(name, horizon=horizon, grid_max=grid_max)
        limit, ladder = fixture.limit_objective, fixture.approachability_eps
        last = approachable_minimizers_check(limit, ladder)[-1]
        probes.clear()
        diag = diagnose_fixture(fixture)
        assert diag.approachable_minimizers == (last[1] == 0.0), name
        assert diag.approachable_minimizers == (name != "reciprocal-tail"), name
        assert [e for e in probes if e > 0] == [ladder[-1]], name


@pytest.mark.parametrize("horizon,grid_max", [(1, 1), (7, 7), (50, 80), (500, 500), (64, 4095)])
def test_fixture_objectives_and_argmins_follow_their_closed_forms(horizon, grid_max):
    points = range(grid_max + 1)
    for name in FIXTURE_NAMES:
        fixture = counterexample_fixture(name, horizon=horizon, grid_max=grid_max)
        objectives, argmins = fixture.objective_sequence, fixture.argmin_sequence.sets
        assert len(objectives) == len(argmins) == horizon
        if name == "reciprocal-tail":
            limit = [1.0 / i if i else 0.0 for i in points]
        else:
            limit = [0.0 if i == 0 else 1.0 for i in points]
        assert fixture.limit_objective.values.tolist() == limit
        for n, (obj, argmin) in enumerate(zip(objectives, argmins), start=1):
            if name == "reciprocal-tail":
                # f_n = f below n and 0 from n on: minimal at 0 and the far tail
                values = [limit[i] if i < n else 0.0 for i in points]
                minimizers = [0, *range(n, grid_max + 1)]
            else:  # f_n = 1 - indicator({0, n})
                values = [0.0 if i in (0, n) else 1.0 for i in points]
                minimizers = [0, n]
            assert _hex(obj.values) == _hex(values), (name, n)
            assert argmin.indices.tolist() == minimizers, (name, n)
            assert argmin == eps_argmin(obj, 0.0), (name, n)
            assert not obj.values.flags.writeable
            with pytest.raises(ValueError):
                obj.values[0] = 5.0
            assert not np.shares_memory(obj.values, fixture.limit_objective.values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 600).flatmap(lambda g: st.tuples(st.integers(1, g), st.just(g))),
    st.sampled_from(FIXTURE_NAMES),
)
def test_fixture_edits_match_the_materialized_rows(sizes, name):
    horizon, grid_max = sizes
    fixture = counterexample_fixture(name, horizon=horizon, grid_max=grid_max)
    objectives = fixture.objective_sequence
    rows = list(objectives)
    assert len(rows) == horizon
    # the closed-form argmins {0} u Z_n are the eps-argmins of the built rows
    assert [s.indices.tolist() for s in fixture.argmin_sequence.sets] == [
        eps_argmin(f, 0.0).indices.tolist() for f in rows
    ]
    # the sup-deviations read from the edit are the check over the built rows
    check = uniform_on_bounded_check(objectives, fixture.limit_objective, fixture.bounded_subset)
    assert _hex(diagnose_fixture(fixture).sup_deviation_trajectory) == _hex(check)
    # a Sequence: negative indices, IndexError past either end, and a fresh
    # read-only row on every access, sharing no memory with the limit row
    assert _hex(objectives[-1].values) == _hex(rows[-1].values)
    assert _hex(objectives[-horizon].values) == _hex(rows[0].values)
    for past in (horizon, -horizon - 1):
        with pytest.raises(IndexError):
            objectives[past]
    first, again = objectives[0], objectives[0]
    assert first is not again and not np.shares_memory(first.values, again.values)
    assert not np.shares_memory(first.values, fixture.limit_objective.values)
    with pytest.raises(ValueError):
        first.values[0] = 5.0


def test_fixture_memory_holds_only_the_argmin_sets():
    # f_n is built on access, so a fixture and its diagnosis hold the argmin
    # sets and a few grid-long arrays, never the horizon x (grid_max + 1)
    # rows: 134 MB at this size if every f_n were stored
    size = 4095
    for name in FIXTURE_NAMES:
        tracemalloc.start()
        try:
            fixture = counterexample_fixture(name, horizon=size, grid_max=size)
            diagnose_fixture(fixture)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if name == "reciprocal-tail":  # the sets {0} u {n..grid_max} hold 67 MB
            index_bytes = sum(sys.getsizeof(s.indices) for s in fixture.argmin_sequence.sets)
            assert index_bytes <= peak < index_bytes + 1_000_000, name
        else:
            assert peak < 2_000_000, name


def test_fixture_rejects_unknown_name_and_bad_horizon():
    with pytest.raises(ValueError):
        counterexample_fixture("nope")
    with pytest.raises(ValueError):
        counterexample_fixture("unit-indicator", horizon=200, grid_max=100)


# -- reports and serialization ------------------------------------------------------


def test_analyze_sequence_defaults_to_outer_reference():
    grid = line_integer_grid(5)
    seq = SetSequence(grid, tuple(PointSet(grid, [1]) for _ in range(4)))
    report = analyze_sequence(seq)
    assert report.outer_limit.indices.tolist() == [1]
    assert report.params["reference"] is None
    assert all(v == 0.0 for v in report.d_subset_trajectory)
    with pytest.raises(ValueError):
        SetSequence(grid, ())


def test_analyze_sequence_report_and_json():
    grid = line_integer_grid(6)
    seq = SetSequence(grid, tuple(PointSet(grid, [0, n % 3]) for n in range(9)))
    ref = PointSet(grid, [0, 1, 2])
    report = analyze_sequence(seq, reference=ref, tail_start=3, tol=0.0, diameter_cap=10.0)
    assert report.inner_limit.is_subset_of(report.outer_limit)
    assert len(report.d_subset_trajectory) == len(seq.sets)
    assert all(v == 0.0 for v in report.d_subset_trajectory)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert set(doc) == {"outer", "inner", "d_sub", "d_haus", "bounded", "witness", "params"}
    assert doc["bounded"] is True
    assert doc["params"]["tail_start"] == 3


def _kernel_rows(monkeypatch):
    """Record the result shape of every ``MetricSpace.distances`` call."""
    shapes = []
    kernel = MetricSpace.distances

    def counting(space, x, y):
        d = kernel(space, x, y)
        shapes.append(d.shape)
        return d

    monkeypatch.setattr(MetricSpace, "distances", counting)
    return shapes


def _trajectory_pairs(seq, target, hausdorff):
    """The pairs a line-kind trajectory is cut into: every point that occurs
    in some set (every grid point, once the sets hold as many members as
    the grid has points) against the target, and for the Hausdorff
    distance each nonempty set's members (its search keys) and the
    target's rows against it."""
    members = sum(map(len, seq.sets))
    occurring = np.unique(np.concatenate([s.indices for s in seq.sets]))
    profile = len(seq.grid) if members >= len(seq.grid) else len(occurring)
    if not hausdorff:
        return profile
    return profile + members + len(target) * sum(1 for s in seq.sets if len(s))


def _unsorted_line_grid(size):
    values = np.random.default_rng(17).permutation(size).astype(float)
    return line_grid(euclidean_space(1, MetricTransform.power(0.5)), values)


@pytest.mark.parametrize("block", [set_limits._BLOCK, 64, 7, 1])
def test_line_trajectories_cost_a_kernel_call_per_block_of_pairs(monkeypatch, block):
    # at most ceil(pairs / block) + 1 kernel calls, none of more than block
    # rows, also where a set's rows run on across blocks (small blocks) and
    # on a line grid whose coordinates do not increase with the index
    monkeypatch.setattr(set_limits, "_BLOCK", block)
    shapes = _kernel_rows(monkeypatch)
    rng = np.random.default_rng(18)
    sequences = [counterexample_fixture(name, horizon=60).argmin_sequence for name in FIXTURE_NAMES]
    grid = _unsorted_line_grid(90)
    sequences.append(
        SetSequence(
            grid,
            tuple(
                PointSet(grid, rng.choice(90, size=rng.integers(0, 12), replace=False))
                for _ in range(30)
            ),
        )
    )
    for seq in sequences:
        outer = outer_limit_estimate(seq, len(seq) // 2)
        for target in (outer, PointSet(seq.grid, [0]), PointSet.full(seq.grid)):
            for distance, hausdorff in ((d_subset, False), (d_hausdorff, True)):
                shapes.clear()
                distance(seq, target)
                pairs = _trajectory_pairs(seq, target, hausdorff)
                assert 1 <= len(shapes) <= -(-pairs // block) + 1
                assert all(shape[0] == 2 and shape[1] <= block for shape in shapes)
        shapes.clear()
        for distance in (d_subset, d_hausdorff):
            distance(seq, PointSet.empty(seq.grid))
        assert shapes == []


def test_other_kinds_take_one_block_per_set(monkeypatch):
    shapes = _kernel_rows(monkeypatch)
    axis = line_grid(euclidean_space(1), [0.0, 0.5, 1.0, 2.0])
    grid = product_grid([axis, axis])
    rng = np.random.default_rng(16)
    sets = tuple(
        PointSet(grid, rng.choice(len(grid), size=rng.integers(0, 7), replace=False))
        for _ in range(12)
    )
    seq = SetSequence(grid, sets)
    target = PointSet(grid, [1, 4, 7])
    for distance in (d_subset, d_hausdorff):
        shapes.clear()
        distance(seq, target)
        assert shapes == [(len(s), len(target)) for s in sets if len(s)]


def test_reports_compute_each_trajectory_once(monkeypatch):
    # analyze_sequence and diagnose_fixture evaluate the distances of their
    # parts and nothing else: one sequence call per trajectory
    shapes = _kernel_rows(monkeypatch)
    fixture = counterexample_fixture("reciprocal-tail", horizon=40)
    seq = fixture.argmin_sequence

    def used(run):
        shapes.clear()
        run()
        return Counter(shapes)

    report = analyze_sequence(seq)

    def parts():
        outer_limit_estimate(seq, 0, 0.0)
        inner_limit_estimate(seq, 0, 0.0)
        d_subset(seq, report.outer_limit)
        d_hausdorff(seq, report.outer_limit)
        eventually_bounded(seq, math.inf)

    assert used(lambda: analyze_sequence(seq)) == used(parts)
    limit_argmin = eps_argmin(fixture.limit_objective, 0.0)
    finest = eps_argmin(fixture.limit_objective, fixture.approachability_eps[-1])

    def diagnosis_parts():
        eventually_bounded(seq, 50.0)
        d_subset(finest, limit_argmin)
        d_subset(seq, limit_argmin)

    assert used(lambda: diagnose_fixture(fixture)) == used(diagnosis_parts)


def test_line_hausdorff_memory_is_linear_in_the_set_sizes():
    # reciprocal-tail at the CLI's largest grid: a block of its largest set
    # against the horizon/2 outer limit would hold 4096 x 4064 floats (133 MB)
    fixture = counterexample_fixture("reciprocal-tail", horizon=64, grid_max=4095)
    seq = fixture.argmin_sequence
    outer = outer_limit_estimate(seq, len(seq) // 2)
    largest = max(seq.sets, key=len)
    assert (len(largest), len(outer)) == (4096, 4064)
    tracemalloc.start()
    try:
        assert d_hausdorff(largest, outer) == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


_TRANSFORMS = (None, MetricTransform.power(0.5), MetricTransform.concave_inverse(np.sqrt))

# coordinates of mixed scale, small enough that no coordinate difference
# overflows and no product-L1 sum over three axes does (at 2**1022 two
# axes can sum past the float range); integers give equidistant neighbours
_COORDS = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-(2.0**1021), 2.0**1021, allow_nan=False),
)


@st.composite
def _any_grid(draw):
    # every kind, each without a transform and with the two sqrt transforms;
    # coordinates in drawn (unsorted) order, N0 indices with gaps
    kind = draw(st.sampled_from(list(SpaceKind)))
    transform = draw(st.sampled_from(_TRANSFORMS))
    size = draw(st.integers(1, 10))
    if kind in (SpaceKind.EUCLIDEAN_L2, SpaceKind.PRODUCT_L1):
        dimension = draw(st.sampled_from([1, 1, 2, 3]))
        rows = draw(
            st.lists(
                st.tuples(*[_COORDS] * dimension), min_size=size, max_size=size, unique=True
            )
        )
        space = MetricSpace(kind, dimension=dimension, transform=transform)
        return CandidateGrid(space, rows)
    if kind is SpaceKind.CIRCLE_ARCLENGTH:
        angles = st.floats(0.0, 2 * math.pi, exclude_max=True)
        values = draw(st.lists(angles, min_size=size, max_size=size, unique=True))
        return CandidateGrid(circle_space(transform), values)
    if kind is SpaceKind.DISCRETE_TABLE:
        pts = np.array(
            draw(
                st.lists(
                    st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=size, max_size=size, unique=True,
                )
            )
        )
        table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float)
        return integer_grid(table_space(table, transform), size)
    values = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size, unique=True))
    return CandidateGrid(MetricSpace(kind, transform=transform), values)


# float coordinates of mixed scale, and near +-1e308, where a difference
# between two coordinates can overflow to a +inf distance
_LINE_COORDS = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(1e307, 1.7e308),
    st.floats(-1.7e308, -1e307),
)


@st.composite
def _line_kind_grid(draw):
    # every kind where ``MetricSpace.on_line`` holds, each without a
    # transform and with the two sqrt transforms; coordinates unsorted
    transform = draw(st.sampled_from(_TRANSFORMS))
    size = draw(st.integers(1, 10))
    make = draw(st.sampled_from([euclidean_space, product_l1_space, n0_unit_space, n0_line_space]))
    if make in (n0_unit_space, n0_line_space):
        values = draw(st.lists(st.integers(0, 60), min_size=size, max_size=size, unique=True))
        return CandidateGrid(MetricSpace(make().kind, transform=transform), values)
    values = draw(st.lists(_LINE_COORDS, min_size=size, max_size=size, unique=True))
    return line_grid(make(1, transform), values)


def _indices(grid, **kwargs):
    return st.lists(st.integers(0, len(grid) - 1), **kwargs)


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_nearest_is_the_block_row_minimum_bit_for_bit(data):
    grid = data.draw(st.one_of(_any_grid(), _line_kind_grid()))
    rows = data.draw(_indices(grid, max_size=12))  # unsorted, with repeats
    cols = data.draw(_indices(grid, max_size=12))
    got = grid.nearest(rows, cols)
    if cols:
        expected = grid.distance_matrix(rows, cols).min(axis=1)
    else:
        expected = np.full(len(rows), math.inf)
    assert got.shape == (len(rows),)
    assert _hex(got) == _hex(expected)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_any_grid(), _line_kind_grid()))
def test_grid_points_round_trip_through_point_and_packed_row(grid):
    # one value per point: every grid point's Point finds its own index, and
    # its packed row gives the grid's own row of distances bit for bit
    every = np.arange(len(grid))
    for i in every:
        assert grid.index_of(grid[i]) == i
        row = grid.distances_from(grid.coords[i : i + 1])
        assert _hex(row) == _hex(grid.distance_matrix([i], every)[0])


def _block_d_subset(a, b):
    if not len(a):
        return 0.0
    if not len(b):
        return math.inf
    return float(a.grid.distance_matrix(a.indices, b.indices).min(axis=1).max())


def _block_inner(seq, tail_start, tol):
    grid = seq.grid
    every = np.arange(len(grid))
    worst = np.zeros(len(grid))
    for s in seq.sets[tail_start:]:
        if len(s):
            worst = np.maximum(worst, grid.distance_matrix(every, s.indices).min(axis=1))
        else:
            worst[:] = math.inf
    return np.flatnonzero(worst <= tol)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_set_distances_match_the_block_oracle(data):
    # line grids near +-1e308 too, where neighbour candidates overflow to +inf
    grid = data.draw(st.one_of(_any_grid(), _line_kind_grid()))
    sets = [
        PointSet(grid, s)
        for s in data.draw(st.lists(_indices(grid, max_size=6), min_size=2, max_size=6))
    ]
    a, b = sets[:2]
    assert _hex([d_subset(a, b)]) == _hex([_block_d_subset(a, b)])
    expected = max(_block_d_subset(a, b), _block_d_subset(b, a))
    assert _hex([d_hausdorff(a, b)]) == _hex([expected])

    every = np.arange(len(grid))
    occurring = grid.distance_matrix(every, every).ravel().tolist()
    tol = data.draw(st.sampled_from(occurring + [0.0, 0.3, math.inf]))
    tail_start = data.draw(st.integers(0, len(sets) - 1))
    seq = SetSequence(grid, tuple(sets))
    inner = inner_limit_estimate(seq, tail_start, tol)
    assert np.array_equal(inner.indices, _block_inner(seq, tail_start, tol))


@contextlib.contextmanager
def _block_of(size):
    """Run with ``set_limits._BLOCK`` set to ``size`` (hypothesis examples
    share one function call, so no monkeypatch fixture)."""
    saved = set_limits._BLOCK
    set_limits._BLOCK = size
    try:
        yield
    finally:
        set_limits._BLOCK = saved


def _per_set_loops(seq, target, tail_start, tol):
    return (
        [d_subset(s, target) for s in seq.sets],
        [d_hausdorff(s, target) for s in seq.sets],
        _block_inner(seq, tail_start, tol),
    )


def _assert_sequence_forms_match(seq, target, tail_start, tol):
    sub, haus, inner = _per_set_loops(seq, target, tail_start, tol)
    got_sub, got_haus = d_subset(seq, target), d_hausdorff(seq, target)
    assert type(got_sub) is tuple and type(got_haus) is tuple
    assert _hex(got_sub) == _hex(sub)
    assert _hex(got_haus) == _hex(haus)
    assert np.array_equal(inner_limit_estimate(seq, tail_start, tol).indices, inner)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_sequence_distances_and_inner_filter_match_the_per_set_loops(data):
    # every kind, empty sets and an empty target; the block is drawn so that
    # a trajectory's pairs are block - 1, block or block + 1, or is small,
    # so that sets run on across blocks
    grid = data.draw(st.one_of(_any_grid(), _line_kind_grid()))
    raw = data.draw(st.lists(_indices(grid, max_size=6), min_size=1, max_size=10))
    seq = SetSequence(grid, tuple(PointSet(grid, s) for s in raw))
    target = PointSet(grid, data.draw(_indices(grid, max_size=6)))
    pairs = data.draw(st.sampled_from([_trajectory_pairs(seq, target, h) for h in (False, True)]))
    block = data.draw(
        st.one_of(st.sampled_from([pairs - 1, pairs, pairs + 1]), st.integers(1, 6)).filter(
            lambda b: b >= 1
        )
    )
    every = np.arange(len(grid))
    occurring = grid.distance_matrix(every, every).ravel().tolist()
    tol = data.draw(st.sampled_from(occurring + [0.0, math.inf]))
    tail_start = data.draw(st.integers(0, len(seq) - 1))
    with _block_of(block):
        _assert_sequence_forms_match(seq, target, tail_start, tol)


@pytest.mark.parametrize("pairs", [set_limits._BLOCK - 1, set_limits._BLOCK, set_limits._BLOCK + 1])
@pytest.mark.parametrize("grid", [line_integer_grid(1100), _unsorted_line_grid(1100)], ids=["integer", "unsorted"])
def test_sequence_forms_at_the_block_size(grid, pairs):
    # one target point and disjoint runs of members: the Hausdorff
    # trajectory's pairs are 2 M + m for M members in m sets
    m = 2 - pairs % 2
    sets = [PointSet(grid, range(1, 1 + (pairs - m) // 2 - (m - 1))), PointSet.empty(grid)]
    if m == 2:
        sets.append(PointSet(grid, [1050]))
    seq = SetSequence(grid, tuple(sets))
    target = PointSet(grid, [0])
    assert _trajectory_pairs(seq, target, True) == pairs
    _assert_sequence_forms_match(seq, target, 0, 0.0)
    _assert_sequence_forms_match(seq, PointSet.full(grid), 0, math.inf)
    _assert_sequence_forms_match(seq, PointSet.empty(grid), 0, 1.0)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_diameter_is_the_block_maximum_bit_for_bit(data):
    grid = data.draw(st.one_of(_any_grid(), _line_kind_grid()))
    subset = PointSet(grid, data.draw(_indices(grid, max_size=12)))
    if len(subset) > 1:
        expected = float(grid.distance_matrix(subset.indices, subset.indices).max())
    else:
        expected = 0.0
    got = diameter(grid, subset)
    assert type(got) is float
    assert _hex([got]) == _hex([expected])


def test_line_diameter_builds_no_block():
    # the 4096 x 4096 block of the full grid would hold 134 MB
    grid = line_integer_grid(4096)
    tracemalloc.start()
    try:
        assert diameter(grid, PointSet.full(grid)) == 4095.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_outer_limit_marks_the_tail_union_in_one_grid_mask():
    # reciprocal-tail at the grid_max cap: the tail sets {0} u {n..4095} for
    # n >= 2048 hold 2.1 million indices (16.8 MB) for a 2,049-point union
    fixture = counterexample_fixture("reciprocal-tail", horizon=4095, grid_max=4095)
    tracemalloc.start()
    try:
        outer = outer_limit_estimate(fixture.argmin_sequence, 2047)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outer.indices.tolist() == [0, *range(2048, 4096)]
    assert peak < 1_000_000


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_line_tail_diameters_match_the_brute_force_union(data):
    grid = data.draw(_line_kind_grid())
    assert grid.space.on_line
    # sizes start at 0, so empty sets appear, also at the back
    raw = data.draw(st.lists(_indices(grid, max_size=6), min_size=1, max_size=8))
    sets = tuple(PointSet(grid, s) for s in raw)
    brute = _brute_tail_diameters(_scalar_distances(grid), sets)
    cap = data.draw(st.sampled_from([*brute, 0.0, math.inf]))
    report = eventually_bounded(SetSequence(grid, sets), cap)
    assert _hex(report.tail_diameters) == _hex(brute)
    within = [k for k, d in enumerate(brute) if d <= cap]
    assert report.witness == (within[0] if within else None)
    assert report.bounded == bool(within)


def test_sequence_space_embedding_counterexample():
    # truncation of the orthonormal-sequence phenomenon: pairs {origin, e_n}
    # keep one-sided distance 1 from {origin} while the inner estimate
    # recovers the origin alone
    n_basis = 12
    size = n_basis + 1
    table = np.full((size, size), math.sqrt(2.0))
    table[0, 1:] = table[1:, 0] = 1.0
    np.fill_diagonal(table, 0.0)
    space = table_space(table)
    grid = integer_grid(space, size)
    origin = PointSet(grid, [0])
    seq = SetSequence(
        grid, tuple(PointSet(grid, [0, n]) for n in range(1, n_basis + 1))
    )
    assert all(d_subset(s, origin) == 1.0 for s in seq.sets)
    assert inner_limit_estimate(seq, tail_start=0).indices.tolist() == [0]


_NAN = float("nan")


def _nan_cases():
    grid = line_integer_grid(5)
    line = line_grid(euclidean_space(1), [0.0, 1.0])
    obj = Objective(grid, np.arange(5.0))
    seq = SetSequence(grid, (PointSet(grid, [0]), PointSet(grid, [0, 1])))
    return {
        "eps_argmin": (lambda: eps_argmin(obj, _NAN), "eps must be nonnegative"),
        "median_interval_1d": (
            lambda: median_interval_1d([0.0, 1.0, 3.0], _NAN),
            "eps must be nonnegative",
        ),
        "outer_limit_estimate": (
            lambda: outer_limit_estimate(seq, 0, tol=_NAN),
            "tol must be nonnegative",
        ),
        "inner_limit_estimate": (
            lambda: inner_limit_estimate(seq, 0, tol=_NAN),
            "tol must be nonnegative",
        ),
        "eventually_bounded": (
            lambda: eventually_bounded(seq, cap=_NAN),
            "cap must be nonnegative",
        ),
        "approachable_minimizers_check": (
            lambda: approachable_minimizers_check(obj, [0.5, _NAN]),
            "eps values must be positive",
        ),
        "markov_bound": (lambda: markov_bound(10, _NAN, 1.0), "eps must be positive"),
        "FiniteDistribution": (
            lambda: FiniteDistribution((0, 1), [_NAN, 1.0]),
            "weights must be finite",
        ),
        "markov_bound_fourth_moment": (
            lambda: markov_bound(10, 1.0, fourth_central_moment=_NAN),
            "fourth central moment must be nonnegative",
        ),
        "construct_h": (
            lambda: construct_h([0.0, 1.0, 2.0], bounded_hint=_NAN),
            "bounded_hint must be positive",
        ),
        "construct_h_sample": (
            lambda: construct_h([0.0, _NAN, 2.0]),
            "sample values must be finite",
        ),
        "check_lemma_inequalities_b": (
            lambda: check_lemma_inequalities(NondecreasingFn.identity(), 1.0, 2.0, b=_NAN),
            "b must be at least 1",
        ),
        "check_lemma_inequalities_x": (
            lambda: check_lemma_inequalities(NondecreasingFn.identity(), _NAN, 1.0),
            "x and y must be finite and nonnegative",
        ),
        "estimate_doubling_constant_x_max": (
            lambda: estimate_doubling_constant(NondecreasingFn.identity(), _NAN),
            "x_max must be positive and finite",
        ),
        "median_interval_1d_sample": (
            lambda: median_interval_1d([_NAN, 1.0, 2.0], 0.1),
            "sample values must be finite",
        ),
        "MetricSpace.pack": (
            lambda: line.distances_from([[_NAN]]),
            "coordinates must be finite",
        ),
        "power_cost_anchor": (
            lambda: power_cost(2.0, Point.vector(_NAN)).row(Point.vector(0.0), line),
            "coordinates must be finite",
        ),
        "NondecreasingFn_breakpoints": (
            lambda: NondecreasingFn((0.0, _NAN), (0.0, 1.0), 1.0),
            "breakpoints must be strictly increasing",
        ),
        "NondecreasingFn_values": (
            lambda: NondecreasingFn((0.0, 1.0), (0.0, _NAN), 1.0),
            "values must be nonnegative",
        ),
        "NondecreasingFn_tail_slope": (
            lambda: NondecreasingFn((0.0,), (0.0,), _NAN),
            "tail_slope must be nonnegative",
        ),
        "NondecreasingFn_call": (
            lambda: NondecreasingFn.identity()(np.array([1.0, _NAN])),
            "h is only defined for nonnegative arguments",
        ),
        "IntegratedH_call": (
            lambda: IntegratedH(NondecreasingFn.identity())(_NAN),
            "H is only defined for nonnegative arguments",
        ),
        "IntegratedH_inverse": (
            lambda: IntegratedH(NondecreasingFn.identity()).inverse(_NAN),
            "H inverse is only defined for nonnegative arguments",
        ),
        "run_regression_certificate_noise": (
            lambda: run_regression_certificate(1, 50, 0, noise=_NAN),
            "noise level must be nonnegative",
        ),
    }


@pytest.mark.parametrize("name", sorted(_nan_cases()))
def test_nan_parameters_are_rejected(name):
    call, message = _nan_cases()[name]
    with pytest.raises(ValueError, match=message):
        call()


def _triangle_violating_table(n):
    """An n-point table, n beyond the full-check limit, whose first half is
    3 apart and every other pair 1 apart: a triple (i, j, k) with i and j in
    the first half and k in the second breaks the triangle inequality, about
    one sampled triple in eight."""
    table = np.ones((n, n))
    table[: n // 2, : n // 2] = 3.0
    np.fill_diagonal(table, 0.0)
    return table


def _argument_check_cases():
    """One row per argument check of the library: its call, its exception
    type and its message."""
    grid = line_integer_grid(5)
    other = line_integer_grid(5)
    obj = Objective(grid, np.arange(5.0))
    seq = SetSequence(grid, (PointSet(grid, [0]), PointSet(grid, [0, 1])))
    axis = line_grid(euclidean_space(1), [0.0, 1.0])
    law = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    euclid = SpaceKind.EUCLIDEAN_L2
    return {
        "NondecreasingFn_start": (
            lambda: NondecreasingFn((1.0,), (0.0,), 1.0),
            ValueError,
            "breakpoints must start at 0",
        ),
        "NondecreasingFn_lengths": (
            lambda: NondecreasingFn((0.0, 1.0), (0.0,), 1.0),
            ValueError,
            "breakpoints and values must have equal length",
        ),
        "NondecreasingFn_decreasing": (
            lambda: NondecreasingFn((0.0, 1.0), (2.0, 1.0), 1.0),
            ValueError,
            "values must be nondecreasing",
        ),
        "FiniteDistribution_empty": (
            lambda: FiniteDistribution((), []),
            ValueError,
            "support must be nonempty",
        ),
        "FiniteDistribution_weights_length": (
            lambda: FiniteDistribution((0, 1), [1.0]),
            ValueError,
            "weights must match the support length",
        ),
        "FiniteDistribution_negative": (
            lambda: FiniteDistribution((0, 1), [-1.0, 2.0]),
            ValueError,
            "weights must be nonnegative",
        ),
        "median_interval_1d_empty": (
            lambda: median_interval_1d([], 0.1),
            ValueError,
            "sample must be nonempty",
        ),
        "product_mean_set_axes": (
            lambda: product_mean_set([], product_grid([axis, axis])),
            GridMismatchError,
            "one axis set per product axis is required",
        ),
        "SamplingDistribution_draw": (
            lambda: SamplingDistribution(law).draw(SplitMix64(0), 0),
            ValueError,
            "n must be positive",
        ),
        "make_n_grid": (lambda: make_n_grid(0), ValueError, "n_max must be positive"),
        "markov_bound_n": (lambda: markov_bound(0, 1.0, 1.0), ValueError, "n must be positive"),
        "symmetric_lambda_min": (
            lambda: symmetric_lambda_min(np.zeros((2, 3))),
            ValueError,
            "matrix must be square",
        ),
        "_regression_sample_n": (
            lambda: _regression_sample(SplitMix64(0), 1, 0, 0.0),
            ValueError,
            "n must be positive",
        ),
        "run_ulln_single_n_list": (
            lambda: run_ulln_single(law, power_cost(2.0, Point.vector(0.0)), axis, [], 0),
            ValueError,
            "n_list must hold positive sample sizes",
        ),
        "MetricSpace_dimension": (
            lambda: MetricSpace(euclid, dimension=0),
            ValueError,
            "vector spaces need dimension >= 1",
        ),
        "MetricSpace_no_table": (
            lambda: MetricSpace(SpaceKind.DISCRETE_TABLE),
            ValueError,
            "discrete-table space needs a distance table",
        ),
        "MetricSpace_stray_table": (
            lambda: MetricSpace(euclid, distance_table=np.zeros((1, 1))),
            ValueError,
            "distance_table is only valid for discrete-table spaces",
        ),
        "table_space_square": (
            lambda: table_space(np.zeros((2, 3))),
            ValueError,
            "distance table must be square, got shape (2, 3)",
        ),
        "table_space_empty": (
            lambda: table_space(np.zeros((0, 0))),
            ValueError,
            "distance table must be nonempty",
        ),
        "table_space_finite": (
            lambda: table_space([[0.0, math.inf], [math.inf, 0.0]]),
            ValueError,
            "distance table entries must be finite",
        ),
        "table_space_distinct": (
            lambda: table_space(np.zeros((2, 2))),
            ValueError,
            "distance table has zero distance between distinct points",
        ),
        "table_space_sampled_triangle": (
            lambda: table_space(_triangle_violating_table(520)),
            ValueError,
            "distance table violates the triangle inequality",
        ),
        "CandidateGrid_empty": (
            lambda: line_grid(euclidean_space(1), []),
            ValueError,
            "a candidate grid needs at least one point",
        ),
        "diameter_grid": (
            lambda: diameter(grid, PointSet(other, [0, 1])),
            GridMismatchError,
            "subset belongs to a different grid",
        ),
        "line_grid_space": (
            lambda: line_grid(euclidean_space(2), [[0.0, 0.0]]),
            ValueError,
            "line_grid needs a 1-dimensional vector space",
        ),
        "circle_grid_space": (
            lambda: circle_grid(euclidean_space(1), 3),
            ValueError,
            "circle_grid needs a circle space",
        ),
        "circle_grid_count": (
            lambda: circle_grid(circle_space(), 0),
            ValueError,
            "count must be positive",
        ),
        "integer_grid_space": (
            lambda: integer_grid(euclidean_space(1), 3),
            ValueError,
            "integer_grid needs a discrete space kind",
        ),
        "integer_grid_count": (
            lambda: integer_grid(table_space(np.zeros((1, 1))), 2),
            ValueError,
            "count exceeds the distance table size",
        ),
        "product_grid_empty": (
            lambda: product_grid([]),
            ValueError,
            "product_grid needs at least one axis",
        ),
        "product_grid_axes": (
            lambda: product_grid([circle_grid(circle_space(), 3)]),
            ValueError,
            "product axes must be 1-dimensional vector grids",
        ),
        "SetSequence_grid": (
            lambda: SetSequence(grid, (PointSet(other, [0]),)),
            GridMismatchError,
            "all sets must live on the sequence grid",
        ),
        "outer_limit_estimate_tail_start": (
            lambda: outer_limit_estimate(seq, 2),
            ValueError,
            "tail_start must index into the sequence",
        ),
        "inner_limit_estimate_tail_start": (
            lambda: inner_limit_estimate(seq, -1),
            ValueError,
            "tail_start must index into the sequence",
        ),
        "uniform_on_bounded_check_subset": (
            lambda: uniform_on_bounded_check([obj], obj, PointSet(other, [0])),
            GridMismatchError,
            "subset must live on the objectives' grid",
        ),
        "uniform_on_bounded_check_objectives": (
            lambda: uniform_on_bounded_check(
                [Objective(other, np.arange(5.0))], obj, PointSet(grid, [0])
            ),
            GridMismatchError,
            "all objectives must share one grid",
        ),
    }


@pytest.mark.parametrize("name", sorted(_argument_check_cases()))
def test_argument_checks_raise_their_error(name):
    call, error, message = _argument_check_cases()[name]
    with pytest.raises(error, match=re.escape(message)) as raised:
        call()
    assert type(raised.value) is error


@pytest.mark.parametrize(
    "param,value",
    [
        ("noise", math.inf),
        ("noise", 1e308),
    ],
)
def test_infinite_and_huge_regression_scales_are_rejected(param, value):
    # squares of these overflow: the runner would write inf or NaN values
    with pytest.raises(ValueError, match=r"noise level must be nonnegative and <= 1e\+100"):
        run_regression_certificate(1, 50, 0, **{param: value})
