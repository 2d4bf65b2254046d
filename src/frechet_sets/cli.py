"""Command-line front end: run named experiments from a JSON config.

The config names one experiment (median, circle, regression, ulln,
fixtures), the replication seeds, per-experiment parameters and, where
the experiment's runner reads them, the horizon and the slack schedule.
Results are written as one JSON document and one long-format CSV per
experiment, plus a manifest with content hashes; identical configs
produce byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import copy
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
from . import lln_lab, result_files

# The interpreter's builtin SHA-256, as CPython's own `random` takes its builtin
# SHA-512: importing `hashlib` loads and initializes OpenSSL's libcrypto, about
# 3.5 MB of a run's peak RSS, to hash two result files. Same digest either way.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: Upper bound on the generator outputs one replication draws. Peaks per output
#: (tracemalloc): circle and ulln hold the whole sample, 8.3 B; the median streams,
#: 3.8 B at s = 3 and slack 0 (15 B with a decaying slack); the regression streams
#: one block of _CHUNK rows, 0.41 B at s = 7 (6.8 MB).
MAX_DRAWS = 2**24

#: Upper bound on a circle or line grid. A run holds one objective at a time:
#: tracemalloc measured 114-132 B per point beside the sample (circle, G = 2**16
#: and n_max = 2**20: 15.9 MB; G = 2**18 and n_max = 2**16: 34.6 MB).
MAX_GRID_POINTS = 2**20

#: Upper bound on the circle's cost exponent. Its largest cost term is
#: pi**alpha, which overflows a float from alpha of about 620, and an
#: objective sums up to MAX_DRAWS such terms; at 100, pi**alpha is about
#: 5e49 and every sum stays far inside the float range. ulln needs no bound:
#: its grid lies in [0, 1], so no cost term exceeds 1.
MAX_POWER_ALPHA = 100


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
    """One config field or experiment param: its default, the values it accepts.

    A ``None`` default makes the field required. ``fill(value, report)``,
    if given, returns the accepted value completed, or raises
    ``ValueError`` with the message to report.
    """

    default: object
    rule: str  # completes "'<name>' must be ..."
    ok: Callable[[object], bool]
    fill: "Callable[[object, ValidationReport], object] | None" = None


def _int(default: int, lo: int = 1, hi: "int | None" = None) -> Param:
    rule = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return Param(default, rule, lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi))


def _real(default: float, strict: bool = False, hi: float = math.inf) -> Param:
    rule = "a finite number > 0" if strict else "a finite number >= 0"
    if hi < math.inf:
        rule += f" and <= {hi:g}"
    return Param(default, rule, lambda v: _is_real(v) and (v > 0 if strict else v >= 0) and v <= hi)


def _fill_schedule(value: dict, report: ValidationReport) -> dict:
    """The schedule with its missing keys defaulted, as ``EpsilonSchedule`` accepts it."""
    default = _SCHEDULE.default
    report.warnings.extend(f"unknown schedule key {k!r} ignored" for k in value if k not in default)
    report.defaulted.extend(f"schedule.{k}" for k in sorted(default.keys() - value.keys()))
    filled = {k: value.get(k, v) for k, v in default.items()}
    if not (_is_number(filled["c"]) and _is_number(filled["exponent"])):
        raise ValueError("schedule c and exponent must be numbers in float range")
    filled["c"], filled["exponent"] = float(filled["c"]), float(filled["exponent"])
    EpsilonSchedule(**filled)  # raises its own message
    return filled


_SCHEDULE = Param(
    {"kind": "constant", "c": 0.0, "exponent": 0.0},
    "an object",
    lambda v: isinstance(v, dict),
    _fill_schedule,
)

#: Top-level fields every runner reads; an experiment's ``fields`` add to them.
FIELDS = {
    "seeds": Param(
        None,
        "a nonempty list of distinct nonnegative integers below 2**64",
        lambda v: isinstance(v, list) and all(map(_is_seed, v)) and 0 < len(set(v)) == len(v),
    ),
    "out_dir": Param("results", "a string", lambda v: isinstance(v, str)),
}


@dataclass(frozen=True)
class Experiment:
    """One experiment id: the fields and params its runner reads, checks, runner.

    ``fields`` are the top-level fields the runner reads beside ``FIELDS``
    (a key in both replaces the ``FIELDS`` entry). ``run(config, seed)``
    takes the defaults-filled config and looks its ``lln_lab`` runner up at
    call time, so a runner rebound on the module is the one called.
    ``checks`` pairs ``ok(config)`` with its message; they run once every
    field and param is valid on its own.
    """

    fields: dict[str, Param]
    params: dict[str, Param]
    run: Callable[[dict, int], "lln_lab.ExperimentResult"]
    checks: tuple = ()


def _draws(count: Callable[[dict], int], what: str) -> tuple:
    """A ``checks`` row bounding the generator outputs of one replication."""
    return (
        lambda c: count(c) <= MAX_DRAWS,
        f"{what} must be <= {MAX_DRAWS} generator outputs",
    )


def _run_ulln(p: dict, seed: int) -> lln_lab.ExperimentResult:
    grid = line_grid(euclidean_space(1), np.linspace(0.0, 1.0, p["grid_points"]))
    dist = FiniteDistribution.uniform((Point.vector(0.0), Point.vector(1.0)))
    cost = power_cost(p["alpha"], Point.vector(0.0))
    return lln_lab.run_ulln_single(dist, cost, grid, p["n_list"], seed)


EXPERIMENTS = {
    "median": Experiment(
        {"n_max": _int(4096, lo=2), "schedule": _SCHEDULE},
        # the d_hausdorff block against the full 3**s box grid holds
        # 9**s * s float64 values: 25.5 MB at s = 6, 268 MB at s = 7
        {"dimension": _int(1, hi=6)},
        lambda c, seed: lln_lab.run_median_experiment(
            c["params"]["dimension"], EpsilonSchedule(**c["schedule"]), c["n_max"], seed
        ),
        checks=(
            _draws(lambda c: c["n_max"] * c["params"]["dimension"], "'n_max' x 'params.dimension'"),
        ),
    ),
    "circle": Experiment(
        {"n_max": _int(4096, lo=2)},
        {
            "grid_size": _int(360, hi=MAX_GRID_POINTS),
            "alpha": _real(2.0, strict=True, hi=MAX_POWER_ALPHA),
        },
        lambda c, seed: lln_lab.run_circle_experiment(
            c["params"]["grid_size"], c["n_max"], seed, alpha=c["params"]["alpha"]
        ),
        checks=(_draws(lambda c: c["n_max"], "'n_max'"),),
    ),
    "regression": Experiment(
        {"n_max": _int(10000, lo=2)},
        {
            "dimension": _int(1, hi=7),  # symmetric_lambda_min stops at 8 x 8
            "noise": _real(0.5, hi=lln_lab.MAX_REGRESSION_SCALE),
        },
        lambda c, seed: lln_lab.run_regression_certificate(
            c["params"]["dimension"], c["n_max"], seed, c["params"]["noise"]
        ),
        checks=(
            _draws(
                lambda c: c["n_max"] * (c["params"]["dimension"] + 1),
                "'n_max' x ('params.dimension' + 1)",
            ),
        ),
    ),
    "ulln": Experiment(
        {},
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
        lambda c, seed: _run_ulln(c["params"], seed),
        checks=(_draws(lambda c: max(c["params"]["n_list"]), "'params.n_list' entries"),),
    ),
    "fixtures": Experiment(
        {"seeds": replace(FIELDS["seeds"], default=[0])},  # it draws nothing
        {
            "horizon": _int(100),
            # the argmin sets bind: reciprocal-tail's {0} u {n..grid_max} hold
            # 67 MB at the cap, where counterexample_fixture peaks at 68 MB
            # (tracemalloc; under 1 MB for an indicator fixture, whose f_n are
            # built on access)
            "grid_max": _int(100, hi=4095),
            "diameter_cap": _real(50.0),
        },
        lambda c, seed: replace(lln_lab.run_fixture_diagnostics(**c["params"]), seed=seed),
        checks=(
            (
                lambda c: c["params"]["horizon"] <= c["params"]["grid_max"],
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


def _fill(table: dict, given: dict, prefix: str, report: ValidationReport) -> "dict | None":
    """``given`` checked against ``table`` with defaults filled in; None if a value fails."""
    filled = {}
    for key, param in table.items():
        name = prefix + key
        if key not in given:
            if param.default is None:
                report.issues.append(f"missing required field {name!r}")
            else:
                filled[key] = param.default
                report.defaulted.append(name)
        elif not param.ok(given[key]):
            report.issues.append(f"'{name}' must be {param.rule}")
        elif param.fill is None:
            filled[key] = given[key]
        else:
            try:
                filled[key] = param.fill(given[key], report)
            except ValueError as exc:
                report.issues.append(str(exc))
    return filled if len(filled) == len(table) else None


def validate_config(raw: dict) -> tuple[dict, ValidationReport]:
    """Check a raw config dict; return the defaults-filled echo and a report.

    The echo holds the experiment, ``params`` and the fields its runner
    reads. Any other key is a warning, never an error, and is left out.
    At the top level a null counts as a missing key; inside ``params`` it
    fails its rule. Every field the validator fills in is listed under
    ``defaulted`` and written into the echo, so an emitted config is
    self-describing.
    """
    report = ValidationReport()
    if not isinstance(raw, dict):
        report.issues.append("config must be a JSON object")
        return {}, report
    experiment = raw.get("experiment")
    if experiment is None:
        report.issues.append("missing required field 'experiment'")
        return {}, report
    if experiment not in EXPERIMENT_IDS:
        report.issues.append(
            f"unknown experiment {experiment!r}; valid ids: {', '.join(EXPERIMENT_IDS)}"
        )
        return {}, report
    spec = EXPERIMENTS[experiment]
    fields = {**FIELDS, **spec.fields}
    params = raw.get("params", {})
    if not isinstance(params, dict):
        report.issues.append("'params' must be an object")
        params = {}
    report.warnings.extend(
        f"unknown key {k!r} ignored" for k in raw if k not in {"experiment", "params", *fields}
    )
    report.warnings.extend(
        f"unknown param {k!r} for experiment {experiment!r} ignored"
        for k in params
        if k not in spec.params
    )
    top = _fill(fields, {k: v for k, v in raw.items() if v is not None}, "", report)
    filled_params = _fill(spec.params, params, "params.", report)
    if top is None or filled_params is None:
        return {}, report
    echo = copy.deepcopy({"experiment": experiment, **top, "params": filled_params})
    report.issues.extend(msg for ok, msg in spec.checks if not ok(echo))
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


def _sha256(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def run(
    config_path: str,
    out_dir: "str | None" = None,
    seed_override: "int | None" = None,
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
        spec = EXPERIMENTS[echo["experiment"]]
        results = [spec.run(echo, seed) for seed in echo["seeds"]]
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
        result_files.write_json(manifest, out / "manifest.json")
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
        choices=(1,),
        default=1,
        help="accepted for the benchmark harness, which passes --jobs 1; "
        "seeds always run one after another",
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
            validate_only=args.validate_only,
        )
    )


if __name__ == "__main__":
    main()
