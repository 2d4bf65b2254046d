"""Command-line front end: run named experiments from a JSON config.

The config names one experiment (median, circle, regression, ulln,
fixtures), the replication seeds, the horizon, the slack schedule, and
per-experiment parameters. Results are written as one JSON document and
one long-format CSV per experiment, plus a manifest with content hashes;
identical configs produce byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .frechet_solver import EpsilonSchedule, FiniteDistribution
from .cost_model import power_cost
from .metric_core import Point, euclidean_space, line_grid
from . import lln_lab

#: Upper bound on the regression coefficient grid, beta_points**(dimension+1).
MAX_BETA_GRID = 10**6

#: Upper bound on the generator outputs one replication draws (each runner
#: draws its whole sample at once, so this also bounds its memory).
MAX_DRAWS = 2**24

#: Upper bound on a circle or line grid. A run holds one float per point for
#: each n-grid checkpoint, plus about 100 B per point of working arrays: about
#: 550 B per point for a circle run at MAX_DRAWS (56 checkpoints), 115 B for ulln.
MAX_GRID_POINTS = 2**20

#: Upper bound on the circle's cost exponent. Its largest cost term is
#: pi**alpha, which overflows a float from alpha of about 620, and an
#: objective sums up to MAX_DRAWS such terms; at 100, pi**alpha is about
#: 5e49 and every sum stays far inside the float range. ulln needs no bound:
#: its grid lies in [0, 1], so no cost term exceeds 1.
MAX_POWER_ALPHA = 100

_TOP_LEVEL_KEYS = {
    "experiment",
    "seeds",
    "n_max",
    "schedule",
    "params",
    "out_dir",
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    # an int or float that converts to a float without overflow
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _is_real(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _is_seed(v) -> bool:
    return _is_int(v) and 0 <= v <= lln_lab.MASK64


@dataclass(frozen=True)
class Param:
    """One experiment parameter: its default and the values it accepts."""

    default: object
    rule: str  # completes "'params.<name>' must be ..."
    ok: Callable[[object], bool]


def _int(default: int, lo: int = 1, hi: "int | None" = None) -> Param:
    rule = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return Param(default, rule, lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi))


def _real(default: float, strict: bool = False, hi: float = math.inf) -> Param:
    rule = "a finite number > 0" if strict else "a finite number >= 0"
    if hi < math.inf:
        rule += f" and <= {hi:g}"
    return Param(default, rule, lambda v: _is_real(v) and (v > 0 if strict else v >= 0) and v <= hi)


@dataclass(frozen=True)
class Experiment:
    """One experiment id: default horizon, params, cross-field checks, runner.

    ``run(params, schedule, n_max, seed)`` looks its ``lln_lab`` runner up
    at call time, so a runner rebound on the module is the one called.
    ``checks`` pairs ``ok(params, n_max)`` with its message; they run once
    ``n_max`` and every param are valid on their own.
    """

    n_max: int
    params: dict[str, Param]
    run: Callable[..., "lln_lab.ExperimentResult"]
    checks: tuple = ()


def _draws(count: Callable[[dict, int], int], what: str) -> tuple:
    """A ``checks`` row bounding the generator outputs of one replication."""
    return (
        lambda p, n_max: count(p, n_max) <= MAX_DRAWS,
        f"{what} must be <= {MAX_DRAWS} generator outputs",
    )


def _run_ulln(p: dict, seed: int) -> lln_lab.ExperimentResult:
    grid = line_grid(euclidean_space(1), np.linspace(0.0, 1.0, p["grid_points"]))
    dist = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    cost = power_cost(p["alpha"], Point.vector(0.0))
    return lln_lab.run_ulln_single(dist, cost, grid, p["n_list"], seed)


EXPERIMENTS = {
    "median": Experiment(
        4096,
        # the d_hausdorff block against the full 3**s box grid holds
        # 9**s * s float64 values: 25.5 MB at s = 6, 268 MB at s = 7
        {"dimension": _int(1, hi=6)},
        lambda p, schedule, n_max, seed: lln_lab.run_median_experiment(
            p["dimension"], schedule, n_max, seed
        ),
        checks=(_draws(lambda p, n: n * p["dimension"], "'n_max' x 'params.dimension'"),),
    ),
    "circle": Experiment(
        4096,
        {
            "grid_size": _int(360, hi=MAX_GRID_POINTS),
            "alpha": _real(2.0, strict=True, hi=MAX_POWER_ALPHA),
        },
        lambda p, schedule, n_max, seed: lln_lab.run_circle_experiment(
            p["grid_size"], n_max, seed, alpha=p["alpha"]
        ),
        checks=(_draws(lambda p, n: n, "'n_max'"),),
    ),
    "regression": Experiment(
        10000,
        {
            "dimension": _int(1, hi=7),  # symmetric_lambda_min stops at 8 x 8
            "noise": _real(0.5, hi=lln_lab.MAX_REGRESSION_SCALE),
            "beta_extent": _real(2.0, hi=lln_lab.MAX_REGRESSION_SCALE),
            "beta_points": _int(9),
        },
        lambda p, schedule, n_max, seed: lln_lab.run_regression_certificate(
            p["dimension"], n_max, seed, **{k: v for k, v in p.items() if k != "dimension"}
        ),
        checks=(
            (
                lambda p, n_max: p["beta_points"] ** (p["dimension"] + 1) <= MAX_BETA_GRID,
                f"'params.beta_points' ** (dimension + 1) must be <= {MAX_BETA_GRID}",
            ),
            _draws(lambda p, n: n * (p["dimension"] + 1), "'n_max' x ('params.dimension' + 1)"),
        ),
    ),
    "ulln": Experiment(
        10000,
        {
            "grid_points": _int(21, hi=MAX_GRID_POINTS),
            "alpha": _real(2.0, strict=True),
            "n_list": Param(
                [100, 10000],
                "a nonempty list of integers >= 1",
                lambda v: isinstance(v, list)
                and len(v) > 0
                and all(_is_int(n) and n >= 1 for n in v),
            ),
        },
        lambda p, schedule, n_max, seed: _run_ulln(p, seed),
        checks=(_draws(lambda p, n: max(p["n_list"]), "'params.n_list' entries"),),
    ),
    "fixtures": Experiment(
        100,
        {
            "horizon": _int(100),
            # eventually_bounded holds about 2 * (grid_max + 1)**2 floats
            "grid_max": _int(100, hi=4095),
            "diameter_cap": _real(50.0),
        },
        lambda p, schedule, n_max, seed: replace(
            lln_lab.run_fixture_diagnostics(**p), seed=seed
        ),
        checks=(
            (
                lambda p, n_max: p["horizon"] <= p["grid_max"],
                "'params.horizon' must be <= 'params.grid_max'",
            ),
        ),
    ),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)


class ConfigError(ValueError):
    """The run configuration is unreadable or invalid."""


@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    defaulted: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_config(raw: dict) -> tuple[dict, ValidationReport]:
    """Check a raw config dict; return the defaults-filled echo and a report.

    Unknown keys are warnings, never errors. Every field the validator
    fills in is listed under ``defaulted`` and written back into the echo,
    so an emitted config is self-describing.
    """
    report = ValidationReport()
    if not isinstance(raw, dict):
        report.issues.append("config must be a JSON object")
        return {}, report
    echo = copy.deepcopy(raw)

    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            report.warnings.append(f"unknown key {key!r} ignored")

    experiment = raw.get("experiment")
    if experiment is None:
        report.issues.append("missing required field 'experiment'")
        return echo, report
    if experiment not in EXPERIMENT_IDS:
        report.issues.append(
            f"unknown experiment {experiment!r}; valid ids: {', '.join(EXPERIMENT_IDS)}"
        )
        return echo, report
    spec = EXPERIMENTS[experiment]

    seeds = raw.get("seeds")
    if seeds is None:
        if experiment == "fixtures":
            echo["seeds"] = [0]
            report.defaulted.append("seeds")
        else:
            report.issues.append("missing required field 'seeds'")
    elif not isinstance(seeds, list) or not seeds or not all(map(_is_seed, seeds)):
        report.issues.append(
            "'seeds' must be a nonempty list of nonnegative integers below 2**64"
        )
    final_seeds = echo.get("seeds")
    if (
        isinstance(final_seeds, list)
        and all(isinstance(s, int) for s in final_seeds)
        and len(set(final_seeds)) != len(final_seeds)
    ):
        report.issues.append("'seeds' must not repeat")

    n_max = raw.get("n_max")
    n_max_ok = n_max is None or (_is_int(n_max) and n_max >= 2)
    if n_max is None:
        echo["n_max"] = spec.n_max
        report.defaulted.append("n_max")
    elif not n_max_ok:
        report.issues.append("'n_max' must be an integer >= 2")

    schedule = raw.get("schedule")
    if schedule is None:
        echo["schedule"] = {"kind": "constant", "c": 0.0, "exponent": 0.0}
        report.defaulted.append("schedule")
    elif not isinstance(schedule, dict):
        report.issues.append("'schedule' must be an object")
    else:
        filled = {"kind": "constant", "c": 0.0, "exponent": 0.0}
        for key in schedule:
            if key not in filled:
                report.warnings.append(f"unknown schedule key {key!r} ignored")
        report.defaulted.extend(
            f"schedule.{k}" for k in sorted(filled.keys() - schedule.keys())
        )
        filled.update((k, v) for k, v in schedule.items() if k in filled)
        if not (_is_number(filled["c"]) and _is_number(filled["exponent"])):
            report.issues.append("schedule c and exponent must be numbers in float range")
        else:
            filled["c"], filled["exponent"] = float(filled["c"]), float(filled["exponent"])
            try:
                EpsilonSchedule(**filled)
            except ValueError as exc:
                report.issues.append(str(exc))
        echo["schedule"] = filled

    params = raw.get("params", {})
    if not isinstance(params, dict):
        report.issues.append("'params' must be an object")
        params = {}
    for key in params:
        if key not in spec.params:
            report.warnings.append(
                f"unknown param {key!r} for experiment {experiment!r} ignored"
            )
    filled_params = {
        key: params[key] if key in params else copy.deepcopy(rule.default)
        for key, rule in spec.params.items()
    }
    for key in sorted(filled_params.keys() - params.keys()):
        report.defaulted.append(f"params.{key}")
    bad = [key for key, rule in spec.params.items() if not rule.ok(filled_params[key])]
    report.issues.extend(f"'params.{key}' must be {spec.params[key].rule}" for key in bad)
    if not bad and n_max_ok:
        report.issues.extend(msg for ok, msg in spec.checks if not ok(filled_params, echo["n_max"]))
    echo["params"] = filled_params

    if "out_dir" not in raw:
        echo["out_dir"] = "results"
        report.defaulted.append("out_dir")

    return echo, report


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


# -- experiment dispatch -------------------------------------------------------


def _run_one_seed(echo: dict, seed: int) -> lln_lab.ExperimentResult:
    schedule = EpsilonSchedule(**echo["schedule"])
    spec = EXPERIMENTS[echo["experiment"]]
    return spec.run(echo["params"], schedule, echo["n_max"], seed)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def run(
    config_path: str,
    out_dir: "str | None" = None,
    seed_override: "int | None" = None,
    jobs: int = 1,
    validate_only: bool = False,
) -> int:
    """Execute the configured experiment; returns the process exit code."""
    try:
        raw = load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    echo, report = validate_config(raw)
    if seed_override is not None and not _is_seed(seed_override):
        report.issues.append("--seed-override must be an integer in [0, 2**64)")
    if jobs < 1:
        report.issues.append("--jobs must be an integer >= 1")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.ok:
        for issue in report.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    if validate_only:
        print(f"config ok; defaulted fields: {', '.join(report.defaulted) or 'none'}")
        return 0
    if seed_override is not None:
        echo["seeds"] = [seed_override]
    if out_dir is not None:
        echo["out_dir"] = out_dir

    try:
        seeds = echo["seeds"]
        if jobs == 1 or len(seeds) == 1:
            results = [_run_one_seed(echo, seed) for seed in seeds]
        else:
            import concurrent.futures  # imported only here: it costs every serial run's startup

            with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(lambda s: _run_one_seed(echo, s), seeds))

        out = Path(echo["out_dir"])
        out.mkdir(parents=True, exist_ok=True)
        experiment = echo["experiment"]
        json_path = out / f"{experiment}.json"
        csv_path = out / f"{experiment}.csv"
        lln_lab.write_results_json(results, str(json_path))
        lln_lab.write_results_csv(results, str(csv_path))
        manifest = {
            "config": echo,
            "files": {
                json_path.name: _sha256(json_path),
                csv_path.name: _sha256(csv_path),
            },
        }
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except Exception as exc:  # runtime failure after a valid config
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(
        prog="frechet-sets",
        description="Run mean-set convergence experiments from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument(
        "--seed-override",
        type=int,
        default=None,
        help="replace the config seed list with this single seed",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="seed-level parallelism, >= 1 (default: 1)",
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="check the config and exit without running",
    )
    args = parser.parse_args(argv)
    sys.exit(
        run(
            args.config,
            out_dir=args.out,
            seed_override=args.seed_override,
            jobs=args.jobs,
            validate_only=args.validate_only,
        )
    )


if __name__ == "__main__":
    main()
