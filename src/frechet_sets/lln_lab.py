"""Seeded Monte-Carlo experiments for empirical mean-set convergence.

A pinned SplitMix64 generator (identical streams on every platform, one
documented draw per primitive), sampling distributions (a finite law is a
``FiniteDistribution`` and draws arrays of support indices), and the
experiment runners:

* the product-median experiment (escaping Hausdorff distance at slack 0,
  the simultaneous-zero-return mechanism behind strict outer limits in
  dimension >= 3, and the n**-1/4 slack schedule that restores Hausdorff
  convergence),
* the circle experiment with antipodal masses and its two-point mean set,
* the regression coercivity certificate with data-driven constants,
* the uniform law-of-large-numbers diagnostic,
* the counterexample fixture diagnostics.

Every runner is a pure function of (seed, config) and returns its
config, records and summary as plain JSON values (dicts with string
keys, lists, strings, ints, finite floats, bools); the writers emit them
as they are, as byte-identical JSON and long-format CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import result_files
from .cost_model import CostFunction, TableCost, power_cost
from .frechet_solver import (
    EpsilonSchedule,
    FiniteDistribution,
    empirical_objective,
    eps_argmin,
    grid_restrict_interval,
    median_interval_1d,
    population_objective,
    product_mean_set,
)
from .metric_core import (
    CandidateGrid,
    Point,
    PointSet,
    circle_grid,
    circle_space,
    euclidean_space,
    line_grid,
    product_grid,
)
from .set_limits import FIXTURE_NAMES, counterexample_fixture, d_hausdorff, d_subset, diagnose_fixture

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FLOAT_SCALE = 2.0**-53
#: Outputs mixed per pass of ``next_block``: two 128 KiB uint64 arrays
#: (chunk and shift scratch) stay in cache across the mixing rounds.
_CHUNK = 2**14

#: Occurrence-index lists longer than this are dropped from summaries
#: (the count is always kept), keeping result files small and
#: deterministic.
MAX_STORED_INDICES = 10_000

RESULT_SCHEMA_VERSION = 1

#: Upper bound on the median runner's ``n_max``: its walks are int32, and
#: every partial walk value lies within 2 * n_max < 2**31.
MAX_MEDIAN_N = 2**30 - 1

#: Upper bound on the regression noise level: squares and products of
#: values this large stay finite in every output.
MAX_REGRESSION_SCALE = 1e100


class SplitMix64:
    """The pinned pseudo-random generator.

    64-bit state advanced by a fixed odd constant, finalized by the
    standard two-round multiply-xorshift mix. ``next_block`` returns the
    next ``count`` outputs at once and is the only stream path; a block of
    k outputs followed by a block of m equals one block of k + m. It mixes
    ``_CHUNK`` = 2**14 outputs at a time, so a long block streams through
    memory once, not once per mixing round; the stream does not depend on
    the chunking. Derived draws read the top bits of an output: a fair bit
    is the top bit (``bits_block``); a finite-law index and the regression
    noise read the top 53 bits m, the uniform float u = m * 2**-53. Draw
    budgets: one output per finite-law draw (``SamplingDistribution.draw``),
    s fair bits per median sample (``run_median_experiment``), s signs then
    one noise output per regression sample (``_regression_sample``).
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = int(seed) & MASK64

    def next_block(self, count: int) -> np.ndarray:
        # mixed one cache-sized chunk at a time, with one chunk-sized shift
        # scratch; uint64 arithmetic wraps modulo 2**64 exactly like the
        # masked integer step. Every scalar is an explicit np.uint64: a
        # Python int would promote the chunk to float64 under numpy 1.x.
        out = np.empty(count, dtype=np.uint64)
        steps = np.arange(1, min(count, _CHUNK) + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)
        shifted = np.empty_like(steps)
        for start in range(0, count, _CHUNK):
            z = out[start : start + _CHUNK]
            m = z.size
            scratch = shifted[:m]
            np.add(steps[:m], np.uint64((self.state + start * _GAMMA) & MASK64), out=z)
            z ^= np.right_shift(z, np.uint64(30), out=scratch)
            z *= np.uint64(_MIX1)
            z ^= np.right_shift(z, np.uint64(27), out=scratch)
            z *= np.uint64(_MIX2)
            z ^= np.right_shift(z, np.uint64(31), out=scratch)
        self.state = (self.state + count * _GAMMA) & MASK64
        return out

    def bits_block(self, count: int) -> np.ndarray:
        block = self.next_block(count)
        block >>= np.uint64(63)
        return block.view(np.int64)


@dataclass(frozen=True, eq=False)
class SamplingDistribution:
    """The sampler of a finite law: one generator output per draw, which
    yields a support index.

    A finite law with cumulative weights cum_0 <= ... <= cum_{K-1} draws
    index min(#{k : cum_k <= u}, K - 1) for the uniform float
    u = m * 2**-53 of an output's top 53 bits m. That u is exact, so
    cum_k <= u exactly when m >= ceil(cum_k * 2**53), and the index is the
    number of the K - 1 integer cut points ceil(cum_k * 2**53), k < K - 1,
    that m reaches: no float is formed and nothing is searched. The counts
    are written back into the generator block, viewed as ``np.intp``, one
    ``_CHUNK``-sized slice at a time, so a draw of n holds 8n bytes plus
    chunk scratch. The cost is K - 1 comparisons per draw, O(n * K): on a
    shared 2-core x86-64 machine 10**5 draws took 0.6-0.8 ms at K = 2
    against 1.5-2.0 ms for a binary search of u in the cumulative weights,
    which overtakes the cut tests near K = 40 (between 32 and 48 in three
    runs). Every law the runners draw from has K = 2."""

    law: FiniteDistribution

    def draw(self, rng: SplitMix64, n: int) -> np.ndarray:
        """Draw n i.i.d. support indices, one generator output each."""
        if n < 1:
            raise ValueError("n must be positive")
        block = rng.next_block(n)
        block >>= np.uint64(11)  # m, the top 53 bits
        # cum * 2**53 is exact and so is its ceil; uint64 cut points
        # keep every comparison in integers under numpy 1.x too
        cuts = np.ceil(np.cumsum(self.law.weights)[:-1] * 2.0**53).astype(np.uint64)
        flags = np.empty(min(n, _CHUNK), dtype=bool)
        counts = np.empty(min(n, _CHUNK), dtype=np.intp)
        for start in range(0, n, _CHUNK):
            chunk = block[start : start + _CHUNK]
            acc = counts[: chunk.size]
            acc.fill(0)
            for cut in cuts:
                acc += np.greater_equal(chunk, cut, out=flags[: chunk.size])
            chunk.view(np.intp)[:] = acc  # the slice's m are read: overwrite them
        return block.view(np.intp)


@dataclass
class ExperimentResult:
    """Deterministic record of one experiment replication; config, records
    and summary hold plain JSON values, which the writers emit as they are."""

    experiment: str
    seed: int
    config: dict
    records: list[dict]
    summary: dict


def make_n_grid(n_max: int) -> list[int]:
    """Powers of two up to n_max, all odd n below 64, plus n_max itself."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    ns = {n_max}
    k = 1
    while k <= n_max:
        ns.add(k)
        k *= 2
    ns.update(range(1, min(64, n_max + 1), 2))
    return sorted(ns)


def result_to_jsonable(result: ExperimentResult) -> dict:
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiment": result.experiment,
        "seed": result.seed,
        "config": result.config,
        "n_grid": [r["n"] for r in result.records],
        "records": result.records,
        "summary": result.summary,
    }


def write_results_json(results: Sequence[ExperimentResult], path: str) -> None:
    """One JSON document per experiment, replications sorted by seed."""
    ordered = sorted(results, key=lambda r: r.seed)
    doc = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "experiment": ordered[0].experiment if ordered else None,
        "results": [result_to_jsonable(r) for r in ordered],
    }
    result_files.write_json(doc, path)


def write_results_csv(results: Sequence[ExperimentResult], path: str) -> None:
    """Long-format rows (experiment, seed, n, metric, value) for all records."""
    result_files.write_csv(sorted(results, key=lambda r: r.seed), path)


# -- product-median experiment -------------------------------------------------

#: Per-axis candidate grid for the median experiments: the two mass points
#: and the interior midpoint, enough to distinguish corners from interior.
MEDIAN_AXIS_COORDS = (0.0, 0.5, 1.0)


def _interval_d_subset(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, b[0] - a[0], a[1] - b[1])


def _box_d_subset(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    # one-sided Hausdorff distance between boxes factors along L1 axes
    return float(sum(_interval_d_subset(ai, bi) for ai, bi in zip(a, b)))


def _box_events(walks: np.ndarray, slack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-n box events of the walks (one row per axis) at slack n * eps_n.

    Returns (simultaneous zero, corner 0, corner 1, unit box, interior),
    each a boolean array over n. The event that 0 or 1 lies in every axis
    set is not among them: it always holds, since -|S_k| <= 0 <= slack.
    """
    top = walks[0].copy()  # max_k S_k
    bottom = walks[0].copy()  # min_k S_k
    for row in walks[1:]:
        np.maximum(top, row, out=top)
        np.minimum(bottom, row, out=bottom)
    absmax = np.maximum(top, -bottom)
    # exact because slack = n * eps_n >= 0 (EpsilonSchedule admits no
    # negative eps_n): max(S, 0) <= slack iff S <= slack, so each
    # every-axis test is one comparison of a cross-axis statistic
    return (
        absmax == 0,  # every walk at zero
        top <= slack,  # probe coordinate 0 in every axis set
        -bottom <= slack,  # probe coordinate 1 in every axis set
        absmax <= slack,  # every axis interval contains [0, 1]
        absmax <= 2.0 * slack,  # probe coordinate 1/2 in every axis set
    )


def _last_true(flags: np.ndarray) -> int:
    """Index of the last true entry, or -1: argmax on the reversed view
    finds it without an index array."""
    back = int(np.argmax(flags[::-1]))
    return len(flags) - 1 - back if flags[-1 - back] else -1


def run_median_experiment(
    s: int, schedule: EpsilonSchedule, n_max: int, seed: int
) -> ExperimentResult:
    """Sample the fair product-Bernoulli law and track the median-set walk.

    Coordinates are fair bits, so the per-axis empirical absolute-loss
    mean set is an exact order-statistic interval, the product set is
    their box, and every membership event reduces to integer walk
    arithmetic: with S_n the centered coordinate walk, the axis interval
    is [0, 1] exactly when S_n = 0 (at slack 0), the box [0,1]^s lies in
    the mean set exactly when |S_n| <= n * eps_n, and corner or interior
    probe membership are one-sided versions of the same comparison.

    The per-n trajectories are made in one pass over n in blocks of
    ``_CHUNK`` samples. Each block draws its bits (the stream is the one
    whole draw, since consecutive blocks of the generator concatenate),
    writes them into one contiguous int8 row per axis, builds its int32
    walks from the walk carried out of the block before, and reduces its
    box events in place: the running simultaneous-zero count, the zero and
    interior occurrence indices (kept until their count passes
    ``MAX_STORED_INDICES``; the count goes on), the last n at which each
    beyond-checkpoint event holds, and the walk, flags, count and eps_n of
    every n-grid point. So the bits, 1 byte per generator output, are the
    only n_max-long array; the block scratch is O(s * ``_CHUNK``), and each
    interval solve adds one sorted float copy of its prefix (8 bytes per
    sample). The int32 walks are exact because n_max <= ``MAX_MEDIAN_N`` =
    2**30 - 1, so every partial value of 2 * ones_n - n lies within
    2 * n_max < 2**31; a larger n_max raises ``ValueError`` before
    anything is drawn. Every box event is a comparison of one of two
    cross-axis statistics with the slack n * eps_n: top = max_k S_k and
    bottom = min_k S_k. This relies on the slack being nonnegative, which
    ``EpsilonSchedule`` guarantees; for the same reason some corner (0 or
    1 in every axis set) is always a member, so that event is recorded as
    the constant it is.

    Per-n trajectories (every n up to n_max) drive the summary counters;
    full interval solves and set distances are recorded on the n-grid.
    Every n-grid record solves its own axis intervals, but the grid mean
    set and its ``d_sub``/``d_haus`` to the box grid depend on the sample
    only through the restricted axis sets, so they are computed once per
    distinct tuple of them; a cache keyed by the interval tuple
    ``((lo_0, hi_0), ...)`` skips the restriction itself. Interval keys
    that compare equal (0.0 and -0.0) give the same grid sets.
    """
    if n_max > MAX_MEDIAN_N:
        raise ValueError(f"n_max must be <= {MAX_MEDIAN_N}: the walks are int32")
    if s < 1:
        raise ValueError("dimension must be positive")
    rng = SplitMix64(seed)
    grid_ns = make_n_grid(n_max)
    # the powers of two strictly below n_max, so every beyond-window is nonempty
    checkpoints = [n for n in grid_ns if n < n_max and not n & (n - 1)]

    axis_bits = np.empty((s, n_max), dtype=np.int8)
    # int32: int64 walks read median-walk peak RSS 0.2 MB higher and wall_s
    # 0.235-0.252 s against 0.215-0.246 s (4 pairs, shared 2-core x86-64)
    walk_block = np.empty((s, min(n_max, _CHUNK)), dtype=np.int32)
    ones = np.zeros((s, 1), dtype=np.int32)  # ones per axis before the block
    counts = {"zero_return": 0, "interior_occurrence": 0}
    indices: dict[str, list[int]] = {key: [] for key in counts}
    last = {"corner_zero": -1, "corner_one": -1, "interior": -1}
    records = []  # n-grid records: intervals and distances are added after the pass
    for start in range(0, n_max, _CHUNK):
        stop = min(start + _CHUNK, n_max)
        bits = axis_bits[:, start:stop]
        # s fair bits per sample, in sample order: output i * s + k is axis k
        bits[...] = rng.bits_block((stop - start) * s).reshape(stop - start, s).T
        n_row = np.arange(start + 1, stop + 1, dtype=np.int32)
        walks = walk_block[:, : stop - start]
        np.cumsum(bits, axis=1, dtype=np.int32, out=walks)
        walks += ones
        ones[:, 0] = walks[:, -1]
        walks *= 2
        walks -= n_row
        eps = schedule.values(n_row)
        sim_zero, corner_zero, corner_one, unit_box, interior = _box_events(walks, n_row * eps)

        zeros_before = counts["zero_return"]
        zeros = np.flatnonzero(sim_zero)
        occurrences = (("zero_return", zeros), ("interior_occurrence", np.flatnonzero(interior)))
        for key, hits in occurrences:
            counts[key] += hits.size
            if counts[key] <= MAX_STORED_INDICES:
                indices[key] += (hits + (start + 1)).tolist()
        for key, flags in zip(last, (corner_zero, corner_one, interior)):
            i = _last_true(flags)
            if i >= 0:
                last[key] = start + i
        while len(records) < len(grid_ns) and grid_ns[len(records)] <= stop:
            n = grid_ns[len(records)]
            i = n - 1 - start
            record = {
                "n": n,
                "eps": float(eps[i]),
                "unit_box_subset": int(unit_box[i]),
                "interior_member": int(interior[i]),
                "corner_zero_member": int(corner_zero[i]),
                "corner_one_member": int(corner_one[i]),
                "any_corner_member": 1,  # -|S_k| <= 0 <= slack: always true
                "sim_zero_count": zeros_before + int(np.searchsorted(zeros, i, side="right")),
            }
            for k in range(s):
                record[f"walk{k}"] = int(walks[k, i])
            records.append(record)

    axis_space = euclidean_space(1)
    axes = [line_grid(axis_space, MEDIAN_AXIS_COORDS) for _ in range(s)]
    box_grid = product_grid(axes)
    target_grid_set = PointSet.full(box_grid)
    target_box = [(0.0, 1.0)] * s

    by_intervals: dict[tuple, tuple[float, float]] = {}
    by_axis_sets: dict[tuple, tuple[float, float]] = {}
    for record in records:
        n = record["n"]
        eps_n = record["eps"]
        intervals = tuple(median_interval_1d(axis_bits[k, :n], eps_n) for k in range(s))
        distances = by_intervals.get(intervals)
        if distances is None:
            axis_sets = [
                grid_restrict_interval(axes[k], *intervals[k]) for k in range(s)
            ]
            restricted = tuple(a.indices.tobytes() for a in axis_sets)
            distances = by_axis_sets.get(restricted)
            if distances is None:
                mean_set = product_mean_set(axis_sets, box_grid)
                distances = by_axis_sets[restricted] = (
                    d_subset(mean_set, target_grid_set),
                    d_hausdorff(mean_set, target_grid_set),
                )
            by_intervals[intervals] = distances
        d_sub_box = _box_d_subset(intervals, target_box)
        record["d_sub"], record["d_haus"] = distances
        record["d_sub_box"] = d_sub_box
        record["d_haus_box"] = max(d_sub_box, _box_d_subset(target_box, intervals))
        for k in range(s):
            record[f"lo{k}"] = float(intervals[k][0])
            record[f"hi{k}"] = float(intervals[k][1])

    summary = {}
    for key in counts:
        stored = counts[key] <= MAX_STORED_INDICES
        summary[f"{key}_count"] = counts[key]
        summary[f"{key}_indices"] = indices[key] if stored else []
        summary[f"{key}_indices_truncated"] = not stored
    summary.update({
        "checkpoints": checkpoints,
        "corner_any_beyond_checkpoint": [True] * len(checkpoints),  # as any_corner_member
        "corner_zero_beyond_checkpoint": [last["corner_zero"] >= c for c in checkpoints],
        "corner_one_beyond_checkpoint": [last["corner_one"] >= c for c in checkpoints],
        "interior_beyond_checkpoint": [last["interior"] >= c for c in checkpoints],
        "final_unit_box_subset": records[-1]["unit_box_subset"],
        "final_d_haus": records[-1]["d_haus"],
    })
    config = {
        "s": s,
        "schedule": {
            "kind": schedule.kind,
            "c": schedule.c,
            "exponent": schedule.exponent,
        },
        "n_max": n_max,
        "axis_coords": list(MEDIAN_AXIS_COORDS),
    }
    return ExperimentResult(
        experiment="median",
        seed=seed,
        config=config,
        records=records,
        summary=summary,
    )


def markov_bound(n: int, eps: float, fourth_central_moment: float) -> float:
    """Fourth-moment tail bound for the centered mean exceeding eps/2.

    The raw bound is n**-3 * m4 / (eps/2)**4, clamped into [0, 1]. Where
    eps**4 leaves the float range, the bound is evaluated exactly.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if not fourth_central_moment >= 0:
        raise ValueError("the fourth central moment must be nonnegative")
    try:
        raw = float(n) ** -3 * fourth_central_moment / (2.0**-4 * eps**4)
    except (OverflowError, ZeroDivisionError):  # eps**4 beyond the float range, or 0
        from fractions import Fraction  # imported on first use: it loads decimal

        exact = Fraction(fourth_central_moment) * 16 / (n**3 * Fraction(eps) ** 4)
        raw = float(min(exact, 1))
    return min(1.0, raw)


# -- circle experiment ---------------------------------------------------------


def run_circle_experiment(
    grid_size: int, n_max: int, seed: int, alpha: float = 2.0
) -> ExperimentResult:
    """Empirical power mean sets of the antipodal two-point law on a circle grid.

    The population mean set is computed exactly from the two-point law;
    per n on the n-grid the empirical set at slack 0 is recorded together
    with its one-sided distance to the population set and its cardinality.
    """
    space = circle_space()
    grid = circle_grid(space, grid_size)
    anchor = Point.angle(0.0)
    cost = power_cost(alpha, anchor)
    dist = FiniteDistribution.uniform((Point.angle(0.0), Point.angle(math.pi)))
    population = population_objective(dist, cost, grid)
    population_set = eps_argmin(population, 0.0)

    sample = SamplingDistribution(dist).draw(SplitMix64(seed), n_max)
    records = []
    grid_ns = make_n_grid(n_max)
    objectives = empirical_objective(dist.support, sample, cost, grid, ns=grid_ns)
    for n, emp in zip(grid_ns, objectives):
        emp_set = eps_argmin(emp, 0.0)
        records.append(
            {
                "n": n,
                "d_sub": d_subset(emp_set, population_set),
                "cardinality": len(emp_set),
            }
        )
    summary = {
        "population_indices": population_set.indices.tolist(),
        "population_angles": grid.coords[population_set.indices].tolist(),
        "population_cardinality": len(population_set),
    }
    config = {"grid_size": grid_size, "n_max": n_max, "alpha": alpha}
    return ExperimentResult(
        experiment="circle",
        seed=seed,
        config=config,
        records=records,
        summary=summary,
    )


# -- regression certificate ----------------------------------------------------


#: Off-diagonal Frobenius norm at which the Jacobi sweeps stop.
JACOBI_OFF_TARGET = 1e-12


def symmetric_lambda_min(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of a small symmetric matrix by cyclic Jacobi sweeps.

    Rotations run until the off-diagonal Frobenius norm falls below
    ``JACOBI_OFF_TARGET`` (or the rounding floor of the matrix scale,
    whichever is larger). Inputs must be finite, symmetric within 1e-10 and
    of dimension at most 8.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    dim = a.shape[0]
    if dim > 8:
        raise ValueError("dimension must be at most 8")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ValueError("matrix must be symmetric within 1e-10")
    a = (a + a.T) / 2.0
    if dim == 1:
        return float(a[0, 0])
    floor = max(JACOBI_OFF_TARGET, 1e-15 * np.linalg.norm(a))
    off_mask = ~np.eye(dim, dtype=bool)
    # the rotations run on Python floats: the same IEEE operations as numpy
    # scalars, without an array read and a scalar allocation per entry
    a = a.tolist()
    for _ in range(60):
        off = math.sqrt(float((np.array(a)[off_mask] ** 2).sum()))
        if off < floor:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > 1e150:  # tan would overflow; use its limit
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for i in range(dim):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i][p], a[i][q]
                    a[i][p] = a[p][i] = c * aip - s * aiq
                    a[i][q] = a[q][i] = s * aip + c * aiq
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
    return min(a[i][i] for i in range(dim))


def _regression_sample(
    rng: SplitMix64, s: int, n: int, noise: float
) -> tuple[np.ndarray, np.ndarray]:
    """n samples of s + 1 outputs each, s signs U_k then one noise float u:
    design rows (1, U_1..U_s) and responses sum(row) + noise * (2u - 1)."""
    if s < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= noise <= MAX_REGRESSION_SCALE:
        raise ValueError(f"noise level must be nonnegative and <= {MAX_REGRESSION_SCALE:g}")
    if n < 1:
        raise ValueError("n must be positive")
    p = s + 1
    block = rng.next_block(n * p).reshape(n, p)
    signs = 2.0 * (block[:, :s] >> np.uint64(63)).astype(float) - 1.0
    u = (block[:, s] >> np.uint64(11)).astype(np.float64) * _FLOAT_SCALE
    x = np.column_stack([np.ones(n), signs])
    y = x @ np.ones(p) + noise * (2.0 * u - 1.0)
    return x, y


def run_regression_certificate(
    s: int, n_max: int, seed: int, noise: float = 0.5
) -> ExperimentResult:
    """Track the coercivity certificate of the squared-loss regression objective.

    The design is (1, U_1..U_s) with independent sign coordinates, the
    response is the all-ones linear form plus bounded uniform noise, drawn
    in blocks of at most ``_CHUNK`` rows. At each n-grid point the
    certificate is a_plus_n = max(0, lambda_min(G_n)) and a_minus_n = 2|v_n|
    for the Gram matrix G_n and cross moment v_n; the population constants
    follow from the design's known moments (identity Gram, all-ones cross
    moment). With psi_plus(d) = d**2 and psi_minus(d) = d, the objective
    b.G_n b - 2 b.v_n minus the bound a_plus_n |b|**2 - a_minus_n |b| is
    (b.G_n b - a_plus_n |b|**2) + 2 (|b| |v_n| - b.v_n): a Rayleigh-quotient
    and a Cauchy-Schwarz bracket, both >= 0, so the bound holds for every b.
    """
    rng = SplitMix64(seed)
    checkpoints = set(make_n_grid(n_max))
    # design entries are +-1, so every Gram entry is an integer and the block
    # sums are exact; the cross moment is carried through cumsum, which adds
    # the rows in draw order. Consecutive blocks are one generator stream,
    # and both sums become arrays at the first.
    gram_sum = xy_sum = 0.0
    records = []
    done = 0
    for stop in sorted({*checkpoints, *range(_CHUNK, n_max, _CHUNK)}):
        x, y = _regression_sample(rng, s, stop - done, noise)
        done = stop
        gram_sum += x.T @ x
        xy = x * y[:, None]
        xy[0] += xy_sum
        xy_sum = np.cumsum(xy, axis=0)[-1]
        if stop in checkpoints:
            v = xy_sum / stop
            records.append(
                {
                    "n": stop,
                    "a_plus_n": max(0.0, symmetric_lambda_min(gram_sum / stop)),
                    # an fsum, so the bytes do not depend on the BLAS kernel
                    "a_minus_n": 2.0 * math.sqrt(math.fsum(t * t for t in v.tolist())),
                }
            )

    a_plus_pop = 1.0  # lambda_min of the identity Gram
    a_minus_pop = 2.0 * math.sqrt(s + 1)
    final = records[-1]
    summary = {
        "a_plus_population": a_plus_pop,
        "a_minus_population": a_minus_pop,
        "final_a_plus": final["a_plus_n"],
        "final_a_minus": final["a_minus_n"],
        "final_a_plus_rel_err": abs(final["a_plus_n"] - a_plus_pop) / a_plus_pop,
        "final_a_minus_rel_err": abs(final["a_minus_n"] - a_minus_pop) / a_minus_pop,
        "psi_plus": "quadratic",
        "psi_minus": "linear",
    }
    config = {
        "s": s,
        "n_max": n_max,
        "design_law": "rademacher",  # the fixed sign design, kept as its name
        "noise": noise,
    }
    return ExperimentResult(
        experiment="regression",
        seed=seed,
        config=config,
        records=records,
        summary=summary,
    )


# -- uniform law-of-large-numbers diagnostic ------------------------------------


def run_ulln_single(
    dist: FiniteDistribution,
    cost: "CostFunction | TableCost",
    grid: CandidateGrid,
    n_list: Sequence[int],
    seed: int,
) -> ExperimentResult:
    """Sup-deviation of the empirical objective from the exact population one."""
    n_list = sorted(int(n) for n in n_list)
    if not n_list or n_list[0] < 1:
        raise ValueError("n_list must hold positive sample sizes")
    population = population_objective(dist, cost, grid)
    sample = SamplingDistribution(dist).draw(SplitMix64(seed), n_list[-1])
    records = []
    objectives = empirical_objective(dist.support, sample, cost, grid, ns=n_list)
    for n, emp in zip(n_list, objectives):
        sup_dev = float(np.abs(emp.values - population.values).max())
        records.append({"n": n, "sup_dev": sup_dev})
    config = {"n_list": n_list, "grid_size": len(grid)}
    return ExperimentResult(
        experiment="ulln",
        seed=seed,
        config=config,
        records=records,
        summary={"final_sup_dev": records[-1]["sup_dev"]},
    )


def ulln_table(results: Sequence[ExperimentResult]) -> dict[int, list[float]]:
    """Sup-deviations grouped by sample size across replications."""
    table: dict[int, list[float]] = {}
    for result in results:
        for record in result.records:
            table.setdefault(record["n"], []).append(record["sup_dev"])
    return table


# -- fixture diagnostics ---------------------------------------------------------


def run_fixture_diagnostics(
    horizon: int = 100, grid_max: int = 100, diameter_cap: float = 50.0
) -> ExperimentResult:
    """Deterministic diagnostics of the three counterexample fixtures.

    For each fixture the three hypothesis flags and the per-n escape
    distance d_subset(argmin f_n, argmin f) are recorded; each fixture
    must violate exactly its designated hypothesis while the escape
    distance stays at least 1 over the whole horizon.
    """
    diagnostics = [
        diagnose_fixture(
            counterexample_fixture(name, horizon=horizon, grid_max=grid_max),
            diameter_cap=diameter_cap,
        )
        for name in FIXTURE_NAMES
    ]
    records = []
    for n in range(1, horizon + 1):
        record: dict = {"n": n}
        for diag in diagnostics:
            record[f"escape_{diag.name}"] = diag.escape_distances[n - 1]
            record[f"supdev_{diag.name}"] = diag.sup_deviation_trajectory[n - 1]
        records.append(record)
    summary = {
        diag.name: {
            "violates": diag.violates,
            "uniform_on_bounded": diag.uniform_on_bounded,
            "eventually_bounded": diag.eventually_bounded,
            "approachable_minimizers": diag.approachable_minimizers,
            "min_escape": min(diag.escape_distances),
        }
        for diag in diagnostics
    }
    config = {"horizon": horizon, "grid_max": grid_max, "diameter_cap": diameter_cap}
    return ExperimentResult(
        experiment="fixtures",
        seed=0,
        config=config,
        records=records,
        summary=summary,
    )
