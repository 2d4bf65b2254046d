"""Pinned generator, sampling laws, experiment runners, and result writers."""

import json
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet_sets.cost_model import power_cost
from frechet_sets import lln_lab
from frechet_sets.frechet_solver import (
    EpsilonSchedule,
    FiniteDistribution,
    grid_restrict_interval,
    median_interval_1d,
    product_mean_set,
)
from frechet_sets.lln_lab import (
    _CHUNK,
    JACOBI_OFF_TARGET,
    MAX_MEDIAN_N,
    MAX_STORED_INDICES,
    MEDIAN_AXIS_COORDS,
    _box_d_subset,
    _box_events,
    MAX_REGRESSION_SCALE,
    SamplingDistribution,
    _regression_sample,
    SplitMix64,
    make_n_grid,
    markov_bound,
    run_circle_experiment,
    run_fixture_diagnostics,
    run_median_experiment,
    run_regression_certificate,
    run_ulln_single,
    symmetric_lambda_min,
    ulln_table,
    write_results_csv,
    write_results_json,
)
from frechet_sets.metric_core import Point, PointSet, euclidean_space, line_grid, product_grid
from frechet_sets.set_limits import d_hausdorff, d_subset

ANTIPODAL = FiniteDistribution.uniform((Point.angle(0.0), Point.angle(math.pi)))

# reference stream of the pinned generator; the seed-0 values agree with
# the widely published test vector for this mixer
GOLDEN_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
    0x3EE5789041C98AC3,
    0xF3B8488C368CB0A6,
)
GOLDEN_SEED42 = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
    0x09BC585A244823F2,
    0xDE4431FA3C80DB06,
    0x37E9671C45376D5D,
    0xCCF635EE9E9E2FA4,
    0x5705B8770B3D7DD5,
    0x9E54D738297F77AE,
)


MASK64 = (1 << 64) - 1


def scalar_stream(seed, count):
    """The SplitMix64 step in plain integer arithmetic, one output at a
    time: the oracle for the library's block path."""
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def uniform_floats(rng, count):
    """u = m * 2**-53 from the top 53 bits m of each of the next outputs:
    the float a finite-law draw places among its cumulative weights."""
    return (rng.next_block(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_rng_golden_streams():
    for seed, golden in ((0, GOLDEN_SEED0), (42, GOLDEN_SEED42)):
        assert tuple(scalar_stream(seed, 10)) == golden
        assert tuple(int(v) for v in SplitMix64(seed).next_block(10)) == golden


def test_rng_block_matches_scalar_stream():
    seeds = (
        987654321,
        MASK64,  # the first step wraps the state
        (1 << 64) - 0x9E3779B97F4A7C15 - 1,  # one step below the wrap
    )
    # consecutive blocks that end just before, on, and past next_block's
    # chunk boundaries, and one that spans several chunks
    sizes = (_CHUNK - 1, 1, _CHUNK + 1, 3 * _CHUNK + 5)
    for seed in seeds:
        scalars = scalar_stream(seed, sum(sizes))
        for method, dtype, derive in (
            ("next_block", np.uint64, lambda u: u),
            ("bits_block", np.int64, lambda u: u >> 63),
        ):
            rng = SplitMix64(seed)
            start = 0
            for size in sizes:
                block = getattr(rng, method)(size)
                # a Python-int scalar in the mixing would promote to float64
                # under numpy 1.x value-based casting
                assert block.dtype == dtype, method
                expected = [derive(u) for u in scalars[start : start + size]]
                assert block.tolist() == expected, (method, seed, size)
                start += size


def test_rng_derived_draws():
    outputs = scalar_stream(7, 100)
    floats = [(u >> 11) * 2.0**-53 for u in outputs]
    assert all(0.0 <= f < 1.0 for f in floats)
    assert np.array_equal(uniform_floats(SplitMix64(7), 100), np.array(floats))
    scalar_bits = [u >> 63 for u in outputs]
    assert SplitMix64(7).bits_block(100).tolist() == scalar_bits


class _CountedRng(SplitMix64):
    """The pinned generator, counting the outputs its instances draw."""

    drawn = 0

    def next_block(self, count):
        _CountedRng.drawn += count
        return super().next_block(count)


def test_sampling_draw_budgets(monkeypatch):
    # each law consumes its documented number of outputs per sample: s fair
    # bits per median sample (output i * s + k is axis k of sample i) ...
    monkeypatch.setattr(lln_lab, "SplitMix64", _CountedRng)
    _CountedRng.drawn = 0
    s, n_max = 3, _CHUNK + 5
    result = run_median_experiment(s, EpsilonSchedule.constant(0.0), n_max, seed=11)
    assert _CountedRng.drawn == s * n_max
    bits = SplitMix64(11).bits_block(s * n_max).reshape(n_max, s)
    walks = 2 * np.cumsum(bits, axis=0) - np.arange(1, n_max + 1)[:, None]
    for record in result.records:
        assert [record[f"walk{k}"] for k in range(s)] == walks[record["n"] - 1].tolist()

    # ... s signs and one noise output per regression sample ...
    _CountedRng.drawn = 0
    run_regression_certificate(2, 7, seed=13)
    assert _CountedRng.drawn == 21
    base = SplitMix64(13)
    _regression_sample(base, 2, 7, 0.5)
    stepped = SplitMix64(13)
    stepped.next_block(21)
    assert base.state == stepped.state

    # ... and one output per draw of a finite law
    base = SplitMix64(17)
    SamplingDistribution(ANTIPODAL).draw(base, 9)
    stepped = SplitMix64(17)
    stepped.next_block(9)
    assert base.state == stepped.state


def test_sampling_values():
    rng = SplitMix64(3)
    indices = SamplingDistribution(ANTIPODAL).draw(rng, 200)
    assert indices.dtype == np.intp and set(indices.tolist()) == {0, 1}
    # index k is drawn exactly when the float lies in k's cumulative slot
    u = uniform_floats(SplitMix64(3), 200)
    assert np.array_equal(indices, (u >= 0.5).astype(np.intp))

    mass = SamplingDistribution(FiniteDistribution((Point.vector(2.0),), [1.0]))
    assert np.array_equal(mass.draw(SplitMix64(5), 5), np.zeros(5, dtype=np.intp))

    bits = SplitMix64(9).bits_block(1000)
    p = bits.mean()
    assert 0.0 <= p <= 1.0 and 0.3 < p < 0.7

    x, y = _regression_sample(SplitMix64(1), 1, 50, 0.0)
    assert set(np.unique(x[:, 0])) == {1.0}
    assert set(np.unique(x[:, 1])) == {-1.0, 1.0}
    assert np.allclose(y, x.sum(axis=1))


@st.composite
def _finite_laws(draw):
    """Laws of 1 to 64 support points, some weights zero or subnormal, the
    weights summing to 1 within the 1e-12 that ``FiniteDistribution``
    admits (the last cumulative weight may lie on either side of 1)."""
    k = draw(st.integers(1, 64))
    massive = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    massive[draw(st.integers(0, k - 1))] = True
    mass = st.one_of(st.floats(1e-6, 1.0), st.sampled_from([0.5, 0.25, 2.0**-30]))
    weights = np.array([draw(mass) if big else 0.0 for big in massive])
    weights *= (1.0 + draw(st.floats(-5e-13, 5e-13))) / weights.sum()
    tiny = st.sampled_from([0.0, 5e-324, 2.0**-1050, 2.0**-1022])
    for i in np.flatnonzero(~np.array(massive)):
        weights[i] = draw(tiny)
    return FiniteDistribution(tuple(range(k)), weights)


@settings(max_examples=150, deadline=None)
@given(
    _finite_laws(),
    st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
    st.integers(0, MASK64),
)
def test_finite_draw_matches_searchsorted_oracle(law, n, seed):
    # the integer cut tests against a binary search of the drawn floats
    rng = SplitMix64(seed)
    indices = SamplingDistribution(law).draw(rng, n)
    stepped = SplitMix64(seed)
    u = uniform_floats(stepped, n)
    k = len(law.weights)
    expected = np.minimum(np.searchsorted(np.cumsum(law.weights), u, side="right"), k - 1)
    assert indices.dtype == np.intp
    assert np.array_equal(indices, expected)
    assert rng.state == stepped.state


def test_finite_draw_cut_points_are_exact():
    # a cumulative weight equal to the drawn float takes the next index,
    # one a float step above it does not
    for seed in range(20):
        u = float(uniform_floats(SplitMix64(seed), 1)[0])
        for w0, index in ((u, 1), (np.nextafter(u, 2.0), 0)):
            law = FiniteDistribution((0, 1), [w0, 1.0 - w0])
            assert SamplingDistribution(law).draw(SplitMix64(seed), 1).tolist() == [index]


def test_finite_draw_memory_is_one_array():
    # the indices are written into the generator block: 8 B per draw plus
    # chunk scratch, where a float array and a separate index array took 16
    n = 2**20
    law = SamplingDistribution(ANTIPODAL)
    tracemalloc.start()
    try:
        indices = law.draw(SplitMix64(0), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(indices) == n
    assert peak < 8 * n + (1 << 20)


def test_make_n_grid():
    grid = make_n_grid(100)
    assert grid[0] == 1 and grid[-1] == 100
    assert all(n in grid for n in (2, 4, 8, 16, 32, 64))
    assert all(n in grid for n in range(1, 64, 2))
    assert make_n_grid(4095)[-1] == 4095


def test_markov_bound_values():
    # fourth central moment of a fair bit via direct enumeration
    m4 = 0.5 * (0.0 - 0.5) ** 4 + 0.5 * (1.0 - 0.5) ** 4
    assert m4 == 1.0 / 16.0
    n = 4096
    assert markov_bound(n, n**-0.25, m4) == pytest.approx(n**-2.0, rel=1e-12)
    assert markov_bound(2, 100.0, m4) <= 1.0
    assert markov_bound(10, 0.5, m4) >= markov_bound(10, 1.0, m4)
    assert markov_bound(1, 0.1, m4) == 1.0  # clamped
    # eps**4 beyond the float range either way
    assert markov_bound(10, 1e100, 1.0) == 0.0
    assert markov_bound(10, 1e-100, 1.0) == 1.0
    with pytest.raises(ValueError):
        markov_bound(10, 0.0, m4)


# -- median experiment -----------------------------------------------------------


def test_median_experiment_zero_slack_exactness():
    result = run_median_experiment(1, EpsilonSchedule.constant(0.0), 1023, seed=5)
    for record in result.records:
        assert record["d_sub"] == 0.0
        assert record["d_sub_box"] == 0.0
        assert record["lo0"] in (0.0, 1.0) or record["lo0"] == 0.0
        assert (record["lo0"], record["hi0"]) in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        if record["n"] % 2 == 1:
            assert record["d_haus"] == 1.0
            assert record["d_haus_box"] == 1.0
        # interval is the unit box exactly when the walk sits at zero
        assert (record["walk0"] == 0) == (
            (record["lo0"], record["hi0"]) == (0.0, 1.0)
        )


def test_median_experiment_flags_match_intervals():
    schedule = EpsilonSchedule.power_decay(1.0, 0.25)
    result = run_median_experiment(1, schedule, 2048, seed=11)
    for record in result.records:
        contains_unit = record["lo0"] <= 0.0 and record["hi0"] >= 1.0
        assert record["unit_box_subset"] == int(contains_unit)
        # analytic criterion: |walk| <= n * eps
        assert record["unit_box_subset"] == int(
            abs(record["walk0"]) <= record["n"] * record["eps"]
        )
        assert record["d_haus"] == 0.0 or not contains_unit


def test_median_experiment_interior_tracks_simultaneous_zeros():
    result = run_median_experiment(3, EpsilonSchedule.constant(0.0), 20000, seed=2)
    assert (
        result.summary["interior_occurrence_indices"]
        == result.summary["zero_return_indices"]
    )
    assert result.summary["zero_return_count"] == len(
        result.summary["zero_return_indices"]
    )
    # some corner is always available
    for record in result.records:
        assert record["any_corner_member"] == 1


def test_median_experiment_deterministic():
    a = run_median_experiment(2, EpsilonSchedule.constant(0.0), 512, seed=77)
    b = run_median_experiment(2, EpsilonSchedule.constant(0.0), 512, seed=77)
    assert a.records == b.records and a.summary == b.summary


def median_walk_oracle(s, schedule, n_max, seed):
    """The median runner's walk fields in the (n, s) formulation: each
    per-axis membership test is evaluated on its own, then required of
    every axis row by row."""
    bits = SplitMix64(seed).bits_block(n_max * s).reshape(n_max, s)
    n_col = np.arange(1, n_max + 1, dtype=np.int64)[:, None]
    walks = 2 * np.cumsum(bits, axis=0) - n_col
    eps = schedule.values(np.arange(1, n_max + 1))
    slack = n_col.astype(float) * eps[:, None]
    zero_ok = np.maximum(walks, 0) <= slack
    one_ok = np.maximum(-walks, 0) <= slack
    sim_zero = (walks == 0).all(axis=1)
    flags = {
        "unit_box_subset": (np.abs(walks) <= slack).all(axis=1),
        "interior_member": (np.abs(walks) <= 2.0 * slack).all(axis=1),
        "corner_zero_member": zero_ok.all(axis=1),
        "corner_one_member": one_ok.all(axis=1),
        "any_corner_member": (zero_ok | one_ok).all(axis=1),
    }
    records = []
    for n in make_n_grid(n_max):
        record = {"n": n, "eps": float(eps[n - 1])}
        record.update({key: int(flag[n - 1]) for key, flag in flags.items()})
        record["sim_zero_count"] = int(sim_zero[:n].sum())
        for k in range(s):
            lo, hi = median_interval_1d(bits[:n, k], eps[n - 1])
            record[f"lo{k}"], record[f"hi{k}"] = lo, hi
            record[f"walk{k}"] = int(walks[n - 1, k])
        records.append(record)
    checkpoints = [2**j for j in range(n_max.bit_length()) if 2**j < n_max]
    interior = flags["interior_member"]
    summary = {
        "zero_return_count": int(sim_zero.sum()),
        "zero_return_indices": (np.flatnonzero(sim_zero) + 1).tolist(),
        "interior_occurrence_count": int(interior.sum()),
        "interior_occurrence_indices": (np.flatnonzero(interior) + 1).tolist(),
        "checkpoints": checkpoints,
        "final_unit_box_subset": int(flags["unit_box_subset"][-1]),
    }
    for key, flag in (
        ("corner_any", flags["any_corner_member"]),
        ("corner_zero", flags["corner_zero_member"]),
        ("corner_one", flags["corner_one_member"]),
        ("interior", interior),
    ):
        summary[f"{key}_beyond_checkpoint"] = [bool(flag[c:].any()) for c in checkpoints]
    return records, summary


# slack constants and exponents that put |S_n| exactly on n * eps_n often
_TIE_C = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_TIE_EXPONENT = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 5),
    n_max=st.integers(1, 600),
    c=_TIE_C | st.floats(0.0, 2.0),
    exponent=st.none() | _TIE_EXPONENT | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_median_walk_matches_per_axis_oracle(s, n_max, c, exponent, seed):
    if exponent is None:
        schedule = EpsilonSchedule.constant(c)
    else:
        schedule = EpsilonSchedule.power_decay(c, exponent)
    result = run_median_experiment(s, schedule, n_max, seed)
    records, summary = median_walk_oracle(s, schedule, n_max, seed)
    assert len(result.records) == len(records)
    assert [{key: r[key] for key in o} for r, o in zip(result.records, records)] == records
    assert {key: result.summary[key] for key in summary} == summary


def axis_factored_distances(axis_sets):
    """``d_subset`` and ``d_hausdorff`` from the product of ``axis_sets``
    (nonempty subsets of the axis grids) to the full box grid, by axis.
    The mean set lies in the box grid, so ``d_sub`` is 0. Under the L1
    metric the distance of a box point to the product set is the sum of its
    per-axis distances to the axis sets, and the farthest box point takes
    the farthest coordinate on each axis independently: ``d_haus`` is the
    sum over axes k of max over x in {0, 1/2, 1} of min over a in A_k of
    |x - a|."""
    d_haus = 0.0
    for axis_set in axis_sets:
        values = axis_set.grid.coords[axis_set.indices, 0]
        d_haus += max(min(abs(x - a) for a in values) for x in MEDIAN_AXIS_COORDS)
    return 0.0, float(d_haus)


def uncached_median_oracle(s, schedule, n_max, seed):
    """The median runner's records and summary with nothing shared between
    records: each one restricts its own axis sets and measures both
    distances by axis (``axis_factored_distances``, which
    ``test_axis_factored_distances_match_the_product_set_distances`` ties to
    the set distances on the product grid), and each beyond-checkpoint flag
    scans its own window."""
    bits = SplitMix64(seed).bits_block(n_max * s).reshape(n_max, s).T
    n_row = np.arange(1, n_max + 1)
    walks = 2 * np.cumsum(bits, axis=1) - n_row
    eps = schedule.values(n_row)
    sim_zero, corner_zero, corner_one, unit_box, interior = _box_events(walks, n_row * eps)
    sim_zero_counts = np.cumsum(sim_zero)
    axes = [line_grid(euclidean_space(1), MEDIAN_AXIS_COORDS) for _ in range(s)]
    target_box = [(0.0, 1.0)] * s
    records = []
    for n in make_n_grid(n_max):
        intervals = [median_interval_1d(bits[k, :n], eps[n - 1]) for k in range(s)]
        axis_sets = [grid_restrict_interval(axes[k], *intervals[k]) for k in range(s)]
        d_sub, d_haus = axis_factored_distances(axis_sets)
        d_sub_box = _box_d_subset(intervals, target_box)
        record = {
            "n": n,
            "eps": float(eps[n - 1]),
            "d_sub": d_sub,
            "d_haus": d_haus,
            "d_sub_box": d_sub_box,
            "d_haus_box": max(d_sub_box, _box_d_subset(target_box, intervals)),
            "unit_box_subset": int(unit_box[n - 1]),
            "interior_member": int(interior[n - 1]),
            "corner_zero_member": int(corner_zero[n - 1]),
            "corner_one_member": int(corner_one[n - 1]),
            "any_corner_member": 1,
            "sim_zero_count": int(sim_zero_counts[n - 1]),
        }
        for k in range(s):
            record[f"lo{k}"], record[f"hi{k}"] = intervals[k]
            record[f"walk{k}"] = int(walks[k, n - 1])
        records.append(record)
    checkpoints = [2**j for j in range(n_max.bit_length()) if 2**j < n_max]
    summary = {
        "zero_return_count": int(sim_zero.sum()),
        "zero_return_indices": (np.flatnonzero(sim_zero) + 1).tolist(),
        "zero_return_indices_truncated": False,
        "interior_occurrence_count": int(interior.sum()),
        "interior_occurrence_indices": (np.flatnonzero(interior) + 1).tolist(),
        "interior_occurrence_indices_truncated": False,
        "checkpoints": checkpoints,
        "corner_any_beyond_checkpoint": [True] * len(checkpoints),
        "corner_zero_beyond_checkpoint": [bool(corner_zero[c:].any()) for c in checkpoints],
        "corner_one_beyond_checkpoint": [bool(corner_one[c:].any()) for c in checkpoints],
        "interior_beyond_checkpoint": [bool(interior[c:].any()) for c in checkpoints],
        "final_unit_box_subset": int(unit_box[-1]),
        "final_d_haus": records[-1]["d_haus"],
    }
    return records, summary


def _hexed(value):
    """A JSON value with every float as its hex string and every other
    scalar tagged with its type, so equality is bit equality."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return type(value).__name__, value


_ORACLE_SCHEDULES = (
    EpsilonSchedule.constant(0.0),
    EpsilonSchedule.constant(0.05),
    EpsilonSchedule.power_decay(1.0, 0.25),
)


def _assert_axis_factored_distances_match(positions):
    # every coordinate and distance is a multiple of 1/2 far below 2**53,
    # so both sides are exact and agree bit for bit
    axes = [line_grid(euclidean_space(1), MEDIAN_AXIS_COORDS) for _ in positions]
    box_grid = product_grid(axes)
    axis_sets = [PointSet(axis, list(p)) for axis, p in zip(axes, positions)]
    mean_set = product_mean_set(axis_sets, box_grid)
    target = PointSet.full(box_grid)
    expected = (d_subset(mean_set, target), d_hausdorff(mean_set, target))
    assert [v.hex() for v in axis_factored_distances(axis_sets)] == [v.hex() for v in expected]


_AXIS_SUBSETS = st.sets(st.sampled_from(range(len(MEDIAN_AXIS_COORDS))), min_size=1)


@settings(max_examples=100, deadline=None)
@given(
    positions=st.integers(1, 4).flatmap(
        lambda s: st.lists(_AXIS_SUBSETS, min_size=s, max_size=s)
    )
)
def test_axis_factored_distances_match_the_product_set_distances(positions):
    _assert_axis_factored_distances_match(positions)


def test_axis_factored_distances_match_the_product_set_distances_at_dimension_6():
    rng = np.random.default_rng(6)
    for _ in range(50):
        positions = []
        for _ in range(6):
            subset = np.flatnonzero(rng.random(3) < 0.5)
            positions.append(subset if subset.size else [int(rng.integers(3))])
        _assert_axis_factored_distances_match(positions)


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 4),
    schedule=st.sampled_from(_ORACLE_SCHEDULES),
    n_max=st.sampled_from([2, 63, 64, 1000, 4097]),
    seed=st.integers(0, 2**64 - 1),
)
def test_median_set_distances_match_uncached_oracle(s, schedule, n_max, seed):
    # indices stay below MAX_STORED_INDICES, so nothing is truncated
    result = run_median_experiment(s, schedule, n_max, seed)
    records, summary = uncached_median_oracle(s, schedule, n_max, seed)
    assert _hexed(result.records) == _hexed(records)
    assert _hexed(result.summary) == _hexed(summary)


@settings(max_examples=12, deadline=None)
@given(
    s=st.sampled_from([1, 3, 6]),
    schedule=st.sampled_from(_ORACLE_SCHEDULES),
    n_max=st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
    seed=st.integers(0, 2**64 - 1),
)
def test_median_blocks_match_the_whole_array_oracle(s, schedule, n_max, seed):
    # the runner streams n in _CHUNK-sized blocks, carrying the walk, the
    # counts and the last event index across each boundary; the oracle draws
    # and scans the whole array at once. Indices are stored only while their
    # count stays within MAX_STORED_INDICES, so the oracle's full lists are
    # compared where that holds
    result = run_median_experiment(s, schedule, n_max, seed)
    records, summary = uncached_median_oracle(s, schedule, n_max, seed)
    assert _hexed(result.records) == _hexed(records)
    for key in ("zero_return", "interior_occurrence"):
        if summary[f"{key}_count"] > MAX_STORED_INDICES:
            summary[f"{key}_indices"] = []
            summary[f"{key}_indices_truncated"] = True
    assert _hexed(result.summary) == _hexed(summary)


@pytest.mark.parametrize(
    "s, schedule, n_max",
    [
        # at seed 3 the interior count passes the bound at n = 10,031, in
        # the first block, and two more blocks are counted after it
        (1, EpsilonSchedule.constant(0.05), 2 * _CHUNK + 3),
        # ... and here at n = 25,818, in the second block
        (3, EpsilonSchedule.constant(0.006), 2 * _CHUNK + 3),
    ],
)
def test_median_occurrence_indices_truncate_past_the_bound(s, schedule, n_max):
    result = run_median_experiment(s, schedule, n_max, seed=3)
    bits = SplitMix64(3).bits_block(n_max * s).reshape(n_max, s).T
    n_row = np.arange(1, n_max + 1)
    walks = 2 * np.cumsum(bits, axis=1) - n_row
    interior = _box_events(walks, n_row * schedule.values(n_row))[4]
    count = int(np.count_nonzero(interior))
    assert count > MAX_STORED_INDICES
    assert result.summary["interior_occurrence_count"] == count
    assert result.summary["interior_occurrence_indices_truncated"] is True
    assert result.summary["interior_occurrence_indices"] == []


@pytest.mark.parametrize(
    "s, schedule, n_max, one_to_one",
    [
        # at slack 0 each axis interval is {0}, {1} or [0, 1]: keys repeat,
        # and each interval tuple restricts to its own axis sets
        (3, EpsilonSchedule.constant(0.0), 4096, True),
        # a decaying slack gives nearly every record its own intervals, but
        # they restrict to few distinct axis sets
        (2, EpsilonSchedule.power_decay(1.0, 0.25), 1000, False),
        (6, EpsilonSchedule.power_decay(1.0, 0.25), 1000, False),
    ],
)
def test_median_set_distances_once_per_interval_tuple(monkeypatch, s, schedule, n_max, one_to_one):
    # the restriction runs once per distinct interval tuple, the mean set and
    # its distances once per distinct tuple of restricted axis sets
    calls = {"grid_restrict_interval": 0, "product_mean_set": 0, "d_hausdorff": 0}
    for name in calls:
        original = getattr(lln_lab, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lln_lab, name, counted)
    result = run_median_experiment(s, schedule, n_max, seed=0)
    intervals = {
        tuple((record[f"lo{k}"], record[f"hi{k}"]) for k in range(s))
        for record in result.records
    }
    restricted = {
        tuple(tuple(x for x in MEDIAN_AXIS_COORDS if lo <= x <= hi) for lo, hi in key)
        for key in intervals
    }
    assert calls == {
        "grid_restrict_interval": s * len(intervals),
        "product_mean_set": len(restricted),
        "d_hausdorff": len(restricted),
    }
    assert len(restricted) < len(result.records)
    assert (len(restricted) == len(intervals)) == one_to_one


def test_median_walk_memory_has_no_per_sample_matrix_temporaries():
    # the peak is the interval solve at n_max: the int8 bits (s B per n) and
    # one sorted float prefix (8 B per n) beside the _CHUNK-sized walk and
    # event scratch; it measures 1,463,837 B (4.88 B per output), 363,837 B
    # beyond (s + 8) * n_max. Walks held n_max long (one int32 row per axis)
    # measure 2,469,781 B and int64 bits 3,566,389 B, both past the 512 KiB
    # margin.
    s, n_max = 3, 100_000
    tracemalloc.start()
    try:
        run_median_experiment(s, EpsilonSchedule.constant(0.0), n_max, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (s + 8) * n_max + 2**19


def test_median_walk_memory_is_the_bits_and_one_sorted_prefix():
    # the int8 bits (s B per n) are the only n_max-long array the stream
    # keeps; the walks, events and generator block are _CHUNK-sized scratch,
    # and the longest interval solve adds one sorted float prefix (8 B per
    # n); the 2 MiB covers the block scratch and the records
    s, n_max = 3, 2**20
    tracemalloc.start()
    try:
        run_median_experiment(s, EpsilonSchedule.constant(0.0), n_max, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (s + 8) * n_max + 2 * 2**20


def test_median_slack_interval_memory_is_a_few_reused_rows():
    # with a positive slack the longest interval solve holds the sorted copy,
    # the compensated prefix and three reused float rows (40 B per n) beside
    # the int8 bits; it measures 44.7 B per n, and about 68 when each step
    # of the prefix and the knot values made its own temporary
    s, n_max = 3, 2**20
    tracemalloc.start()
    try:
        run_median_experiment(s, EpsilonSchedule.power_decay(1.0, 0.25), n_max, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (s + 40) * n_max + 4 * 2**20


def test_median_runner_rejects_n_max_beyond_int32_walks():
    # the bound is checked before anything is drawn or allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            run_median_experiment(1, EpsilonSchedule.constant(0.0), MAX_MEDIAN_N + 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert MAX_MEDIAN_N + 1 == 2**30
    assert peak < 1 << 20


# -- circle experiment -------------------------------------------------------------


def test_circle_experiment_population_set():
    result = run_circle_experiment(360, 256, seed=1)
    assert result.summary["population_cardinality"] == 2
    assert result.summary["population_angles"] == [math.pi / 2, 3 * math.pi / 2]
    for record in result.records:
        assert record["cardinality"] in (1, 2)
    final = result.records[-1]
    assert final["d_sub"] <= math.pi / 4


def test_circle_memory_does_not_grow_with_checkpoints():
    # the runner consumes one prefix objective at a time: from n_max 64 to
    # 4096 the n-grid gains 6 checkpoints (38 -> 44), and holding every
    # objective at once would add 6 grid-sized float arrays to the peak;
    # the 32 KB of extra draws and records stay below one such array
    grid_size = 2**15
    peaks = []
    for n_max in (64, 4096):
        tracemalloc.start()
        try:
            run_circle_experiment(grid_size, n_max, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * grid_size


def test_circle_point_mass_is_singleton():
    # degenerate check through the population pipeline
    from frechet_sets.frechet_solver import eps_argmin, population_objective
    from frechet_sets.metric_core import circle_grid, circle_space

    space = circle_space()
    grid = circle_grid(space, 90)
    dist = FiniteDistribution((Point.angle(0.0),), np.array([1.0]))
    obj = population_objective(dist, power_cost(2.0, Point.angle(1.0)), grid)
    assert eps_argmin(obj, 0.0).points() == (Point.angle(0.0),)


# -- regression experiment -----------------------------------------------------------


def test_symmetric_lambda_min_examples():
    assert symmetric_lambda_min(np.eye(3)) == 1.0
    assert symmetric_lambda_min(np.diag([1.0, 3.0])) == 1.0
    assert symmetric_lambda_min(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_lambda_min(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="at most 8"):
        symmetric_lambda_min(np.eye(9))
    # a NaN fails every comparison, so the symmetry check alone passes it and
    # the sweeps return nan; an inf makes a - a.T warn
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="matrix must be finite"):
            symmetric_lambda_min(np.array([[1.0, bad], [bad, 1.0]]))


def test_symmetric_lambda_min_takes_the_rotation_limit_for_a_tiny_pivot():
    # the (0, 1) pivot 1e-160 against a diagonal gap of 1 gives |theta| > 1e150,
    # where tan would overflow and the rotation takes its limit 1 / (2 theta)
    a = np.array([[1.0, 1e-160, 0.5], [1e-160, 0.0, 0.5], [0.5, 0.5, 2.0]])
    expected = float(np.linalg.eigvalsh(a)[0])
    assert expected == pytest.approx(-0.13090112262998585, rel=1e-12)
    assert symmetric_lambda_min(a) == pytest.approx(expected, rel=1e-12)


def test_symmetric_lambda_min_random_against_numpy():
    rng = np.random.default_rng(6)
    for _ in range(300):
        dim = int(rng.integers(1, 9))
        m = rng.normal(size=(dim, dim))
        sym = (m + m.T) / 2.0
        assert symmetric_lambda_min(sym) == pytest.approx(
            float(np.linalg.eigvalsh(sym)[0]), rel=1e-10, abs=1e-10
        )


def test_regression_certificate_convergence_and_bound():
    result = run_regression_certificate(1, 10_000, seed=3)
    assert result.summary["a_plus_population"] == 1.0
    assert result.summary["a_minus_population"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert result.summary["final_a_plus_rel_err"] < 0.05
    assert result.summary["final_a_minus_rel_err"] < 0.05


@pytest.mark.parametrize("dimension", [1, 7])
def test_regression_at_the_scale_bound_keeps_every_output_finite(dimension):
    # overflow and invalid-value warnings are errors in this suite
    result = run_regression_certificate(dimension, 64, seed=dimension, noise=MAX_REGRESSION_SCALE)
    for part in (result.config, result.records, result.summary):
        _assert_plain_json(part)


def test_regression_early_singular_gram_reports_zero():
    result = run_regression_certificate(1, 64, seed=9)
    first = result.records[0]
    assert first["n"] == 1
    assert first["a_plus_n"] == 0.0  # rank-1 Gram from one sample


def test_regression_cross_moment_norm_is_the_fsum_of_the_drawn_sample():
    # the bundled config's seeds and horizon: a BLAS norm rounded 23 of these
    # 184 values differently. The cross moment is summed row by row in draw
    # order, as the runner's cumsum does, and its norm through math.fsum;
    # the longer horizon carries the sum across three block boundaries.
    for seed, n_max in [(seed, 10_000) for seed in range(4)] + [(0, 3 * _CHUNK + 5)]:
        result = run_regression_certificate(1, n_max, seed, noise=0.5)
        x, y = _regression_sample(SplitMix64(seed), 1, n_max, 0.5)
        checkpoints = {record["n"]: record["a_minus_n"] for record in result.records}
        moment = [0.0, 0.0]
        for n, (row, response) in enumerate(zip(x.tolist(), y.tolist()), start=1):
            moment = [m + xi * response for m, xi in zip(moment, row)]
            if n in checkpoints:
                v = [m / n for m in moment]
                assert checkpoints[n] == 2.0 * math.sqrt(math.fsum(t * t for t in v)), (seed, n)


@pytest.mark.parametrize("dimension", [-1, 0])
def test_regression_rejects_a_dimension_below_one(dimension):
    # -1 used to fail with an IndexError inside the draw, 0 to run an
    # intercept-only certificate
    with pytest.raises(ValueError, match="dimension must be positive"):
        _regression_sample(SplitMix64(0), dimension, 50, 0.5)
    with pytest.raises(ValueError, match="dimension must be positive"):
        run_regression_certificate(dimension, 50, 0)


@pytest.mark.parametrize("dimension", [-1, 0])
def test_median_rejects_a_dimension_below_one(dimension):
    with pytest.raises(ValueError, match="dimension must be positive"):
        run_median_experiment(dimension, EpsilonSchedule.constant(0.0), 64, seed=0)


def test_uniform_law_rejects_empty_support():
    with pytest.raises(ValueError, match="support must be nonempty"):
        FiniteDistribution.uniform(())


def test_regression_gram_checkpoints_match_cumulative_outer_products():
    # the longer horizon crosses three block boundaries
    for s, n_max in [(s, 300) for s in range(1, 8)] + [(7, 3 * _CHUNK + 5)]:
        result = run_regression_certificate(s, n_max, seed=s)
        x, _ = _regression_sample(SplitMix64(s), s, n_max, 0.5)
        for record in result.records:
            n = record["n"]
            gram = np.einsum("ni,nj->ij", x[:n], x[:n])  # the integer sum of outer products
            assert record["a_plus_n"] == max(0.0, symmetric_lambda_min(gram / n))


def _regression_peak(s, n_max):
    tracemalloc.start()
    try:
        run_regression_certificate(s, n_max, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_regression_memory_does_not_hold_per_sample_gram_matrices():
    # the design streams in blocks of _CHUNK rows: at the draw cap (dimension
    # 7, 2**24 outputs) the peak is that of a four-block run, not the 134 MB
    # of the design itself
    peak = _regression_peak(7, 2**21)
    assert peak < 16_000_000
    assert abs(peak - _regression_peak(7, 4 * _CHUNK)) < 1_000_000


def test_regression_gram_form_equals_mean_cost():
    # the quadratic-form objective is the algebraic rewriting of the mean of
    # (y - b.x)**2 - y**2; the two agree to rounding
    x, y = _regression_sample(SplitMix64(3), 1, 500, 0.5)
    gram = x.T @ x / 500
    v = x.T @ y / 500
    rng = np.random.default_rng(0)
    for _ in range(50):
        beta = rng.uniform(-2, 2, 2)
        gram_form = beta @ gram @ beta - 2 * beta @ v
        raw = np.mean((y - x @ beta) ** 2 - y**2)
        assert gram_form == pytest.approx(raw, abs=1e-12)


def _sqrt_bracket(q):
    """Rationals lo <= sqrt(q) <= hi for a rational q >= 0, 2**-64 / q.denominator apart."""
    scale = 2**64
    root = math.isqrt(q.numerator * q.denominator * scale * scale)
    return Fraction(root, q.denominator * scale), Fraction(root + 1, q.denominator * scale)


@settings(max_examples=50, deadline=None)
@given(
    s=st.integers(1, 7),
    n=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    noise=st.sampled_from([0.0, 0.5, 3.0]),
    directions=st.lists(
        st.lists(st.fractions(-10, 10, max_denominator=1000), min_size=8, max_size=8),
        min_size=1,
        max_size=3,
    ),
    scale=st.sampled_from([Fraction(1, 10**6), Fraction(1), Fraction(10**6), Fraction(10**12)]),
)
def test_regression_bound_is_the_two_bracket_identity(s, n, seed, noise, directions, scale):
    # objective - bound = (b.G_n b - a_plus_n |b|**2) + 2 (|b| |v_n| - b.v_n),
    # a Rayleigh-quotient and a Cauchy-Schwarz bracket, both >= 0. With G_n
    # and v_n the runner's floats and b rational, the slack is exact but for
    # the rounding of the constants: a_plus_n exceeds lambda_min(G_n) by at
    # most the off-diagonal norm at which the Jacobi sweeps stop (Weyl), which
    # is JACOBI_OFF_TARGET here (|G_n|_F <= 8 puts the scale floor at 8e-15),
    # and one ulp; a_minus_n, a correctly rounded fsum of rounded squares and
    # a correctly rounded sqrt, is within 2 ulps of 2|v_n|. |b| is bracketed
    # by rationals.
    p = s + 1
    final = run_regression_certificate(s, n, seed, noise).records[-1]
    x, y = _regression_sample(SplitMix64(seed), s, n, noise)
    a_plus, a_minus = final["a_plus_n"], final["a_minus_n"]
    # G_n and v_n as the runner forms them: the integer Gram divided once, the
    # cross moment summed in draw order; they give the runner's constants
    gram = (x.T @ x) / n
    v = np.cumsum(x * y[:, None], axis=0)[-1] / n
    assert a_plus == max(0.0, symmetric_lambda_min(gram))
    assert a_minus == 2.0 * math.sqrt(math.fsum(t * t for t in v.tolist()))
    g = [[Fraction(e) for e in row] for row in gram.tolist()]
    vq = [Fraction(t) for t in v.tolist()]
    # the smallest eigenvalue's eigenvector, where the Rayleigh bracket
    # vanishes, and v_n, where the Cauchy-Schwarz bracket does
    tight = [np.linalg.eigh(gram)[1][:, 0].tolist(), v.tolist()]
    for direction in [[Fraction(t) for t in d] for d in tight] + [d[:p] for d in directions]:
        b = [scale * t for t in direction]
        norm2 = sum(t * t for t in b)
        lo, hi = _sqrt_bracket(norm2)
        gb = [sum(map(operator.mul, row, b)) for row in g]
        objective = sum(bi * (gbi - 2 * vi) for bi, gbi, vi in zip(b, gb, vq))  # b.G_n b - 2 b.v_n
        bound_hi = Fraction(a_plus) * norm2 - Fraction(a_minus) * lo
        rounding = (Fraction(JACOBI_OFF_TARGET) + Fraction(math.ulp(a_plus))) * norm2
        rounding += 2 * Fraction(math.ulp(a_minus)) * hi
        assert objective - bound_hi >= -rounding, direction


# -- uniform law diagnostic -----------------------------------------------------------


def test_ulln_point_mass_has_zero_deviation():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 5))
    dist = FiniteDistribution((Point.vector(0.5),), np.array([1.0]))
    cost = power_cost(2.0, Point.vector(0.0))
    result = run_ulln_single(dist, cost, grid, [10, 100], seed=4)
    assert all(record["sup_dev"] == 0.0 for record in result.records)


def test_ulln_deviation_bounded_and_tightening():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0, 1, 21))
    dist = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    cost = power_cost(2.0, Point.vector(0.0))
    results = [
        run_ulln_single(dist, cost, grid, [100, 10_000], seed) for seed in range(10)
    ]
    table = ulln_table(results)
    assert len(table[100]) == 10
    # cost spread on this grid bounds every deviation
    rows = [cost.row(y, grid) for y in dist.support]
    spread = float(np.abs(np.vstack(rows)).max())
    assert all(dev <= spread for devs in table.values() for dev in devs)
    assert np.median(table[10_000]) < np.median(table[100])


# -- fixture experiment ----------------------------------------------------------------


def test_fixture_experiment_summary():
    result = run_fixture_diagnostics(horizon=80, grid_max=90, diameter_cap=40.0)
    assert set(result.summary) == {
        "unit-indicator",
        "line-indicator",
        "reciprocal-tail",
    }
    for name, entry in result.summary.items():
        flags = {
            "uniform-on-bounded": entry["uniform_on_bounded"],
            "eventually-bounded": entry["eventually_bounded"],
            "approachable-minimizers": entry["approachable_minimizers"],
        }
        assert not flags[entry["violates"]]
        assert sum(1 for ok in flags.values() if not ok) == 1
        assert entry["min_escape"] >= 1.0


# -- heavy-tail demo -----------------------------------------------------------------


def test_heavy_tail_median_stays_put_demo(capsys):
    # demo, reported rather than asserted: on a heavy-tailed sample the
    # absolute-loss mean set stays in a fixed window while the squared-loss
    # minimizer drifts with the largest observations
    rng = SplitMix64(2024)
    u = uniform_floats(rng, 4000)
    sample = (1.0 / (1.0 - u)) ** (1.0 / 1.2)  # infinite variance regime
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0.0, 50.0, 201))
    anchor = Point.vector(0.0)
    rows = []
    from frechet_sets.cost_model import construct_h
    from frechet_sets.frechet_solver import empirical_objective, eps_argmin

    adapted = construct_h(sample)
    for n in (250, 1000, 4000):
        pts = [Point.vector(float(v)) for v in sample[:n]]
        idx = np.arange(n)
        med = eps_argmin(empirical_objective(pts, idx, power_cost(1.0, anchor), grid), 0.0)
        mean = eps_argmin(empirical_objective(pts, idx, power_cost(2.0, anchor), grid), 0.0)
        med_at = grid[med.indices[0]].value[0]
        mean_at = grid[mean.indices[0]].value[0]
        rows.append((n, med_at, mean_at))
        assert math.isfinite(med_at) and math.isfinite(mean_at)
    mean_h = float(np.mean(adapted.result(sample)))
    print("\n[demo] heavy-tail location estimates (n, absolute-loss, squared-loss):")
    for row in rows:
        print(f"[demo]   n={row[0]:5d}  median~{row[1]:6.2f}  mean~{row[2]:6.2f}")
    print(f"[demo] adapted-h sample mean: {mean_h:.3f} (finite by construction)")


# -- result writers ----------------------------------------------------------------------


def test_result_writers_are_deterministic(tmp_path):
    results = [
        run_median_experiment(1, EpsilonSchedule.constant(0.0), 128, seed=s)
        for s in (3, 1)
    ]
    j1, c1 = tmp_path / "a.json", tmp_path / "a.csv"
    j2, c2 = tmp_path / "b.json", tmp_path / "b.csv"
    write_results_json(results, str(j1))
    write_results_csv(results, str(c1))
    write_results_json(list(reversed(results)), str(j2))
    write_results_csv(list(reversed(results)), str(c2))
    assert j1.read_bytes() == j2.read_bytes()  # seed-sorted aggregation
    assert c1.read_bytes() == c2.read_bytes()

    doc = json.loads(j1.read_text())
    assert doc["schema_version"] == 1
    assert [r["seed"] for r in doc["results"]] == [1, 3]
    header = c1.read_text().splitlines()[0]
    assert header == "experiment,seed,n,metric,value"


def _assert_plain_json(value, where="result"):
    # exact types: np.float64 subclasses float, so isinstance would pass it
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, (where, key)
            _assert_plain_json(item, f"{where}.{key}")
    elif type(value) is list:
        for i, item in enumerate(value):
            _assert_plain_json(item, f"{where}[{i}]")
    elif type(value) is float:
        assert math.isfinite(value), where
    else:
        assert value is None or type(value) in (str, int, bool), (where, type(value))


def test_every_runner_returns_plain_finite_json_values():
    # the writers emit config, records and summary as they are, so each
    # runner must hand over values that json and csv write unchanged; the
    # CSV writer takes only record values that are exactly int or float
    law = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    line = line_grid(euclidean_space(1), np.linspace(0.0, 1.0, 5))
    results = [
        run_median_experiment(3, EpsilonSchedule.power_decay(1.0, 0.25), 100, seed=1),
        run_median_experiment(2, EpsilonSchedule.constant(0.0), 64, seed=2),
        run_circle_experiment(60, 64, seed=0),
        run_regression_certificate(2, 64, seed=0),
        run_ulln_single(law, power_cost(2.0, Point.vector(0.0)), line, [10, 50], seed=0),
        run_fixture_diagnostics(horizon=20, grid_max=30, diameter_cap=10.0),
    ]
    for result in results:
        assert type(result.seed) is int
        for part in ("config", "records", "summary"):
            value = getattr(result, part)
            assert type(value) is (list if part == "records" else dict)
            _assert_plain_json(value, f"{result.experiment}.{part}")
        assert all(type(record["n"]) is int for record in result.records)
        for record in result.records:
            kinds = {key: type(value) for key, value in record.items()}
            assert set(kinds.values()) <= {int, float}, (result.experiment, kinds)
