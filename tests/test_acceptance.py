"""Acceptance suite: eleven criteria, one pass/fail line each.

Statistical thresholds (the 3x tail-bound slack, the 19/20, 16/20 and
95/100 seed counts, the 0.05 deviation cap) were frozen after pilot runs
on the pinned generator; with the seed lists fixed below every outcome
is deterministic. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frechet_sets as fs
from frechet_sets.cost_model import check_lemma_inequalities, construct_h
from frechet_sets.frechet_solver import (
    EpsilonSchedule,
    FiniteDistribution,
    eps_argmin,
    grid_restrict_interval,
    median_interval_1d,
    population_objective,
    product_mean_set,
)
from frechet_sets.lln_lab import (
    markov_bound,
    run_median_experiment,
    run_regression_certificate,
    run_ulln_single,
    ulln_table,
)
from frechet_sets.metric_core import Point, euclidean_space, line_grid, product_grid
from frechet_sets.set_limits import FIXTURE_NAMES, counterexample_fixture, diagnose_fixture

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

E1_SEEDS = tuple(range(10))
E2_SEEDS = tuple(range(20))
E3_SEEDS = tuple(range(100))
ULLN_SEEDS = tuple(range(50))

GOLDEN_E3_SEED42_CSV_SHA256 = (
    "a4921ff8e2e9fd763db5ad38f684a64b936e61db1d20e960438ab463eee9a8be"
)
GOLDEN_E3_SEED42_JSON_SHA256 = (
    "3a04cbbfb878395386f3d756223937039e92927735b69579b9e6bea9d18034b4"
)
#: SHA-256 of the outputs of the bundled circle and ulln configs. They
#: held when the empirical objective became the correctly rounded count sum.
GOLDEN_BUNDLED_SHA256 = {
    "circle.json": "9f7d6048ea8f5d38881924da8e48b9ff83742b724f090bd1d47873ab04be533b",
    "circle.csv": "a206ede0da5c9e5dcecb15cb4beeefb7ba7372cce3808a5932d25abf4742ec28",
    "ulln.json": "97a1b7ae5f5865dd863b0cfdfc276dab8dc7ca0dff2e59609527ab16a18da4e8",
    "ulln.csv": "bb1b0e29c891dd200e5b318f46b6a0db19b69f4016646b115cd8b16a5ea5c94a",
}
#: SHA-256 of the outputs of the other bundled configs (e3 is pinned at
#: seed 42 above), keyed by config name and output file. The regression
#: pins date from its cross-moment norm becoming an fsum, free of BLAS.
GOLDEN_OTHER_BUNDLED_SHA256 = {
    ("e1", "median.json"): "44cf7ce1916571c1d8917449c3b74c03d3d16e4664f59caa4b11f69f7cf418a9",
    ("e1", "median.csv"): "9b51e8b86d07cfd31f4d6753efdad3340f816a3f3fad871bf4eeec41e1eb7863",
    ("e2", "median.json"): "ed74c5fdd1681b7d7c12476c69b9f87913ad994af7ef6e8780208be25c43fc38",
    ("e2", "median.csv"): "295b0dab6ca4f09314f4a2c4ce85c7b4f185e40638630a7037002ac606442802",
    ("fixtures", "fixtures.json"): "8bba7bc46c56f3a6f0b3f7379fe16bb15515597b1a8eb8be25ede4166ebb7a22",
    ("fixtures", "fixtures.csv"): "05f34adcfe50711412f2baf770d092dfe0f68256e7288bbd10e4e798a4d1c4f5",
    ("regression", "regression.json"): "89930069b157759e7a7a78bd5b6de38e7c3098de7196f6e3d1a16f9a59968bc2",
    ("regression", "regression.csv"): "b10fc638b63205d27dc4cdda7a5503e36e99f01c07c00fc910d446d3cb63389d",
}


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


@pytest.fixture(scope="module")
def e1_runs():
    schedule = EpsilonSchedule.constant(0.0)
    return [run_median_experiment(1, schedule, 4095, seed=s) for s in E1_SEEDS]


@pytest.fixture(scope="module")
def e2_runs():
    schedule = EpsilonSchedule.constant(0.0)
    s1 = [run_median_experiment(1, schedule, 100_000, seed=s) for s in E2_SEEDS]
    s3 = [run_median_experiment(3, schedule, 100_000, seed=s) for s in E2_SEEDS]
    return s1, s3


@pytest.fixture(scope="module")
def e3_runs():
    schedule = EpsilonSchedule.power_decay(1.0, 0.25)
    return [run_median_experiment(1, schedule, 2**14, seed=s) for s in E3_SEEDS]


def test_c01_median_exactness(e1_runs):
    ok = True
    for result in e1_runs:
        for record in result.records:
            ok &= record["d_sub"] == 0.0 and record["d_sub_box"] == 0.0
            if record["n"] % 2 == 1:
                ok &= record["d_haus"] == 1.0 and record["d_haus_box"] == 1.0
    report(
        "C1 median exactness (one-sided 0 always, Hausdorff 1 at odd n)",
        ok,
        f"{len(e1_runs)} seeds, n <= 4095",
    )


def test_c02_quarter_power_schedule(e3_runs):
    grid_ns = [r["n"] for r in e3_runs[0].records if r["n"] >= 256]
    freq_ok = True
    detail = []
    for n in grid_ns:
        failures = sum(
            1 - next(r["unit_box_subset"] for r in run.records if r["n"] == n)
            for run in e3_runs
        )
        bound = 3.0 * markov_bound(n, n**-0.25, 1.0 / 16.0)
        freq_ok &= failures / len(e3_runs) <= bound
        detail.append(f"n={n}:{failures}")
    final_zero = sum(run.records[-1]["d_haus"] == 0.0 for run in e3_runs)
    haus_ok = final_zero >= 95
    report(
        "C2 slack schedule n**-1/4 restores Hausdorff convergence",
        freq_ok and haus_ok,
        f"failures {' '.join(detail)}; final d_haus=0 in {final_zero}/100",
    )


def test_c03_recurrence_contrast(e2_runs):
    s1, s3 = e2_runs
    paired_wins = sum(
        a.summary["zero_return_count"] > b.summary["zero_return_count"]
        for a, b in zip(s1, s3)
    )
    interior_absent = sum(
        not any(1_000 < i <= 100_000 for i in run.summary["interior_occurrence_indices"])
        for run in s3
    )
    corners_recur = all(
        all(run.summary["corner_any_beyond_checkpoint"]) for run in s3
    )
    ok = paired_wins >= 19 and interior_absent >= 16 and corners_recur
    report(
        "C3 recurrence contrast (dimension 1 vs 3) and probe membership",
        ok,
        f"paired wins {paired_wins}/20, interior absent {interior_absent}/20, "
        f"corners recur {corners_recur}",
    )


def test_c04_circle_antipodal_mean_set():
    result = fs.run_circle_experiment(360, 64, seed=0, alpha=2.0)
    angles = result.summary["population_angles"]
    ok = (
        result.summary["population_cardinality"] == 2
        and angles == [math.pi / 2, 3 * math.pi / 2]
    )
    # independent brute-force oracle over the same grid
    grid_angles = 2 * math.pi * np.arange(360) / 360
    gap0 = np.minimum(grid_angles, 2 * math.pi - grid_angles)
    gap1 = np.abs(grid_angles - math.pi)
    oracle = 0.5 * gap0**2 + 0.5 * gap1**2
    oracle_set = np.flatnonzero(oracle <= oracle.min() + 1e-12)
    ok &= oracle_set.tolist() == [90, 270]
    report("C4 circle antipodal mean set is exactly {90deg, 270deg}", ok)


def test_c05_product_composition_against_brute_force():
    rng = np.random.default_rng(20240811)
    coords = np.arange(11) * 0.25  # dyadic: all arithmetic is exact
    space1 = euclidean_space(1)
    ax, ay = line_grid(space1, coords), line_grid(space1, coords)
    prod = product_grid([ax, ay])
    anchor2, anchor1 = Point.vector(0.0, 0.0), Point.vector(0.0)
    cost2, cost1 = fs.power_cost(1.0, anchor2), fs.power_cost(1.0, anchor1)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        sup = [rng.choice(coords, k, replace=False) for _ in range(2)]
        counts = rng.multinomial(64, np.full(k, 1.0 / k))
        while np.any(counts == 0):
            counts = rng.multinomial(64, np.full(k, 1.0 / k))
        weights = counts / 64.0
        # brute force: exact 2-D grid argmin of the product distribution
        support_2d = tuple(
            Point.vector(a, b) for a in sup[0] for b in sup[1]
        )
        weights_2d = np.outer(weights, weights).ravel()
        brute = eps_argmin(
            population_objective(FiniteDistribution(support_2d, weights_2d), cost2, prod),
            0.0,
        )
        # composed: exact per-axis median intervals of the weight-expanded
        # multiset, grid-restricted and product-composed
        axis_sets = []
        for values, axis in zip(sup, (ax, ay)):
            multiset = np.repeat(values, counts)
            lo, hi = median_interval_1d(multiset)
            axis_sets.append(grid_restrict_interval(axis, lo, hi))
        composed = product_mean_set(axis_sets, prod)
        ok &= composed == brute
    report("C5 product mean sets equal brute-force product-grid argmin", ok, "100 draws")


def test_c06_inequality_suite():
    rng = np.random.default_rng(61)
    ok = True
    worst = math.inf
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        bp = (0.0, *np.sort(rng.uniform(0.5, 20.0, k - 1)).tolist()) if k > 1 else (0.0,)
        start = float(rng.uniform(0.0, 5.0))
        vals = (
            (start, *(start + np.cumsum(rng.uniform(0.01, 5.0, k - 1))).tolist())
            if k > 1
            else (start,)
        )
        f = fs.NondecreasingFn(tuple(bp), tuple(vals), float(rng.uniform(0.01, 2.0)))
        x, y = (float(v) for v in rng.uniform(0.0, 100.0, 2))
        rep = check_lemma_inequalities(f, x, y)
        ok &= rep.all_pass
        worst = min(
            worst, rep.mvt_slack, rep.additivity_slack, rep.reverse_slack
        )
    report("C6 H/h inequality suite on 10^4 random triples", ok, f"worst slack {worst:.3g}")


def test_c07_construct_h_invariants():
    rng = np.random.default_rng(67)
    ok = True
    for i in range(50):
        if i % 2 == 0:
            sample = rng.uniform(0.0, 30.0, int(rng.integers(2, 200)))
        else:
            u = rng.random(int(rng.integers(2, 200)))
            sample = (1.0 / (1.0 - u)) ** (1.0 / 1.5)  # heavy tail
        trace = construct_h(sample)
        ok &= trace.x[0] == 0.0 and trace.z[0] == 0.0
        ok &= all(b > a for a, b in zip(trace.x, trace.x[1:]))
        ok &= all(trace.result(x) == float(n) for n, x in enumerate(trace.x))
        ok &= all(a2 <= a1 + 1e-12 for a1, a2 in zip(trace.a, trace.a[1:]))
        ok &= trace.result.tail_slope > 0
        ok &= all(
            trace.result(x) <= ht + 1.0 + 1e-9
            for x, ht in zip(trace.x, trace.h_tilde_at_x)
        )
    bounded = construct_h([3.0, 1.0], bounded_hint=5.0)
    ok &= bounded.result == fs.NondecreasingFn.identity()
    report("C7 constructive concave h invariants on 50 samples", ok)


def test_c08_counterexample_fixtures():
    ok = True
    details = []
    for name in FIXTURE_NAMES:
        fixture = counterexample_fixture(name, horizon=100, grid_max=100)
        diag = diagnose_fixture(fixture, diameter_cap=50.0)
        flags = diag.hypothesis_flags
        violated = [k for k, holds in flags.items() if not holds]
        ok &= violated == [fixture.violates]
        ok &= min(diag.escape_distances) >= 1.0
        details.append(f"{name}->{violated[0] if violated else 'none'}")
    report("C8 each fixture violates exactly its hypothesis", ok, "; ".join(details))


def test_c09_uniform_law_diagnostic():
    space = euclidean_space(1)
    grid = line_grid(space, np.linspace(0.0, 1.0, 21))
    dist = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    cost = fs.power_cost(2.0, Point.vector(0.0))
    table = ulln_table(
        [run_ulln_single(dist, cost, grid, [100, 10_000], seed) for seed in ULLN_SEEDS]
    )
    med_small = float(np.median(table[100]))
    med_large = float(np.median(table[10_000]))
    ok = med_large < med_small and med_large <= 0.05
    report(
        "C9 sup-deviation tightens with n and is below 0.05 at n=10^4",
        ok,
        f"median {med_small:.4f} -> {med_large:.4f}",
    )


def test_c10_regression_certificate():
    result = run_regression_certificate(1, 10_000, seed=0)
    summary = result.summary
    # analytic targets from the design's moments: identity Gram and the
    # all-ones cross moment, so a_plus = 1 and a_minus = 2 * sqrt(2)
    ok = summary["a_plus_population"] == 1.0
    ok &= summary["a_minus_population"] == pytest.approx(2 * math.sqrt(2), rel=1e-12)
    ok &= summary["final_a_plus_rel_err"] <= 0.05
    ok &= summary["final_a_minus_rel_err"] <= 0.05
    ok &= summary["min_slack_overall"] >= -1e-9
    report(
        "C10 regression coercivity certificate",
        bool(ok),
        f"rel errs {summary['final_a_plus_rel_err']:.4f}, "
        f"{summary['final_a_minus_rel_err']:.4f}; "
        f"min slack {summary['min_slack_overall']:.3g}",
    )


def test_c11_byte_identical_reruns(tmp_path):
    from frechet_sets.cli import run

    import json as json_mod

    ok = True
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run(str(CONFIG_DIR / "circle.json"), out_dir=str(out), seed_override=7)
        ok &= code == 0
    for name in ("circle.json", "circle.csv"):
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # the recorded content hashes agree even though the output paths differ
    hashes = [
        json_mod.loads((out / "manifest.json").read_text())["files"]
        for out in (out_a, out_b)
    ]
    ok &= hashes[0] == hashes[1]

    golden_dir = tmp_path / "golden"
    code = run(str(CONFIG_DIR / "e3.json"), out_dir=str(golden_dir), seed_override=42)
    ok &= code == 0
    csv_digest = hashlib.sha256((golden_dir / "median.csv").read_bytes()).hexdigest()
    json_digest = hashlib.sha256((golden_dir / "median.json").read_bytes()).hexdigest()
    ok &= csv_digest == GOLDEN_E3_SEED42_CSV_SHA256
    ok &= json_digest == GOLDEN_E3_SEED42_JSON_SHA256
    report(
        "C11 determinism: byte-identical reruns and pinned golden outputs",
        ok,
        f"csv sha256 {csv_digest[:12]}...",
    )


def test_c11_bundled_circle_and_ulln_golden_outputs(tmp_path):
    from frechet_sets.cli import run

    ok = True
    digests = {}
    for experiment in ("circle", "ulln"):
        out = tmp_path / experiment
        ok &= run(str(CONFIG_DIR / f"{experiment}.json"), out_dir=str(out)) == 0
        for suffix in ("json", "csv"):
            name = f"{experiment}.{suffix}"
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    ok &= digests == GOLDEN_BUNDLED_SHA256
    report(
        "C11 determinism: pinned outputs of the bundled circle and ulln configs",
        ok,
        ", ".join(f"{name} {digest[:12]}..." for name, digest in digests.items()),
    )


def test_c11_bundled_median_fixtures_and_regression_golden_outputs(tmp_path):
    from frechet_sets.cli import run

    ok = True
    digests = {}
    for config in sorted({config for config, _ in GOLDEN_OTHER_BUNDLED_SHA256}):
        out = tmp_path / config
        ok &= run(str(CONFIG_DIR / f"{config}.json"), out_dir=str(out)) == 0
        for name in sorted(p.name for p in out.iterdir() if p.name != "manifest.json"):
            digests[config, name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    ok &= digests == GOLDEN_OTHER_BUNDLED_SHA256
    report(
        "C11 determinism: pinned outputs of the bundled e1, e2, fixtures and regression configs",
        ok,
        ", ".join(f"{c}/{n} {d[:12]}..." for (c, n), d in digests.items()),
    )


#: Runs every bundled config (e3 at seed 42) in a fresh interpreter and
#: prints the SHA-256 of each output, with the dispatch features that are
#: still enabled after NPY_DISABLE_CPU_FEATURES took effect.
_RERUN_SCRIPT = """
import hashlib, json, os, pathlib, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
from frechet_sets.cli import run

configs, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
digests = {}
for config in ("e1", "e2", "e3", "circle", "ulln", "fixtures", "regression"):
    seed = 42 if config == "e3" else None
    assert run(str(configs / f"{config}.json"), str(out / config), seed_override=seed) == 0
    for path in sorted((out / config).iterdir()):
        if path.name != "manifest.json":
            digests[f"{config}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
disabled = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
print(json.dumps({"enabled": [f for f in disabled if __cpu_features__[f]], "digests": digests}))
"""


def _dispatch_features_beyond_baseline() -> list[str]:
    """The SIMD features numpy dispatches to on this machine beyond its build baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    baseline = set(umath.__cpu_baseline__)
    return [
        f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f) and f not in baseline
    ]


def test_c11_golden_outputs_hold_with_simd_dispatch_off(tmp_path):
    # the pinned bytes must not depend on which SIMD kernels numpy's ufuncs
    # pick at run time: rerun every bundled config with only the baseline
    features = _dispatch_features_beyond_baseline()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RERUN_SCRIPT, str(CONFIG_DIR), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = {
        "e3/median.csv": GOLDEN_E3_SEED42_CSV_SHA256,
        "e3/median.json": GOLDEN_E3_SEED42_JSON_SHA256,
        **{f"{name.split('.')[0]}/{name}": d for name, d in GOLDEN_BUNDLED_SHA256.items()},
        **{f"{config}/{name}": d for (config, name), d in GOLDEN_OTHER_BUNDLED_SHA256.items()},
    }
    report(
        "C11 determinism: pinned outputs with SIMD dispatch beyond the baseline off",
        result["enabled"] == [] and result["digests"] == expected,
        f"disabled {' '.join(features) or 'nothing'}; still enabled {result['enabled']}",
    )
