#!/usr/bin/env python3
"""Benchmark of the frechet-sets mean-set pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's generated config in a fresh Python
process through the CLI (``--jobs 1``), checks every output against the
pinned references, and repeats for about ``--seconds`` seconds. The last
line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Before the timed region, the C11 golden hashes of e3 with seed 42 are
re-verified; that run also warms the byte-code cache.

End-to-end metrics are medians over the repetitions:
``setup_s`` (process start to the first runner call), ``wall_s`` (first
runner call to the last output written) and ``peak_rss_mb`` (the process's
``ru_maxrss``). Both times are scaled to the reference machine speed by
the process's own calibration time, taken before it imports the program
(calibration.py); the unscaled medians go to standard error, on the line
that starts with ``RAW_PREFIX``. Runs that fail are counted in ``failed`` of
``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench_work"
#: Every process must have ended this long after start (the limit is 180 s).
DEADLINE_S = 170.0
MIN_REPS = 3
#: Standard-error line with the medians of the unscaled times, the
#: calibration time and the peak memory right after calibrating, and this
#: process's ``ru_maxrss``. A child's ``ru_maxrss`` starts from the peak of
#: the process that launched it, so this launcher imports no numpy;
#: ``launcher_rss_mb`` bounds that floor from above and stays below what any
#: repetition reaches by importing the program.
RAW_PREFIX = "perfbench-unscaled: "
UNSCALED = ("raw_setup_s", "raw_wall_s", "calibration_s", "calibration_rss_mb")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FRECHET_SETS_THREADS", None)
    return env


class Launcher:
    """Runs generated configs, one fresh process each, under one deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def run(self, config: dict, trace=False, analyze=None, extra_argv=()) -> dict:
        self.count += 1
        rep = self.work / f"rep{self.count}"
        rep.mkdir()
        out = rep / "out"
        (rep / "config.json").write_text(json.dumps(config))
        spec = {
            "argv": ["--config", str(rep / "config.json"), "--out", str(out), "--jobs", "1", *extra_argv],
            "trace": trace,
            "stats": str(rep / "stats.json"),
            "spans": str(rep / "spans.json"),
            "analyze": analyze and dict(analyze, out=str(out / check.LIMITS_FILE)),
        }
        (rep / "spec.json").write_text(json.dumps(spec))
        launch = time.monotonic()
        result = {"dir": rep, "out": out, "errors": []}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(rep / "spec.json")],
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, self.deadline - launch),
            )
        except subprocess.TimeoutExpired:
            result["errors"].append("timed out")
            return result
        result["elapsed"] = time.monotonic() - launch
        if proc.returncode != 0:
            result["errors"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        stats_path = rep / "stats.json"
        if stats_path.is_file():
            stats = json.loads(stats_path.read_text())
            if stats["first_runner"] is not None:
                scale = stats["scale"]
                result["calibration_s"] = stats["timed_calibration_s"]
                result["raw_setup_s"] = stats["first_runner"] - launch - sum(stats["calibration_s"])
                result["raw_wall_s"] = stats["end"] - stats["first_runner"]
                result["setup_s"] = result["raw_setup_s"] * scale
                result["wall_s"] = result["raw_wall_s"] * scale
                result["peak_rss_mb"] = stats["maxrss_kb"] / 1024.0
                result["calibration_rss_mb"] = stats["calibration_maxrss_kb"] / 1024.0
        return result


def _golden_errors(launcher: Launcher) -> list[str]:
    config = json.loads((ROOT / "configs" / "e3.json").read_text())
    rep = launcher.run(config, extra_argv=("--seed-override", "42"))
    errors = rep["errors"]
    for name, digest in check.GOLDEN_E3_SEED42.items():
        path = rep["out"] / name
        if not errors and check.sha256(path) != digest:
            errors.append(f"golden {name}: sha256 differs")
    shutil.rmtree(rep["dir"], ignore_errors=True)
    return errors


def _repeat(launcher, workload, seeds, reference, budget, min_reps, trace=False):
    """Repetitions until the next one would overrun ``budget`` seconds."""
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or (
        time.monotonic() - start + max(r.get("elapsed", 0.0) for r in reps) <= budget
    ):
        rep = launcher.run(
            workload.run_config(seeds, "results"), trace=trace, analyze=workload.analyze
        )
        if not rep["errors"]:
            rep["errors"] = check.check_outputs(
                rep["out"], workload.config["experiment"], seeds, reference
            )
        if not rep["errors"]:
            rep["digests"] = check.digests(rep["out"])
            if trace:
                with open(rep["dir"] / "spans.json") as fh:
                    rep["layers"] = tracer.layer_metrics(json.load(fh))
        shutil.rmtree(rep["dir"], ignore_errors=True)
        reps.append(rep)
    return reps


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps if key in r)


def _trace_errors(workload, rep: dict, digests: dict) -> list[str]:
    if "layers" not in rep:
        return []
    errors = [
        f"layer {layer} recorded no span"
        for layer in workload.layers
        if not rep["layers"][f"{layer}.calls"]
    ]
    if rep["digests"] != digests:
        errors.append("traced outputs differ from untraced outputs")
    return errors


def measure(workload, seeds: list[int], seconds: int, trace: bool, work: Path) -> int:
    launcher = Launcher(work, time.monotonic() + DEADLINE_S)
    reference = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())
    golden = _golden_errors(launcher)
    for error in golden:
        print(f"perfbench: {error}", file=sys.stderr)

    if not trace:
        reps = _repeat(launcher, workload, seeds, reference, seconds, MIN_REPS)
        traced = []
    else:
        reps = _repeat(launcher, workload, seeds, reference, seconds / 2, 2)
        traced = _repeat(launcher, workload, seeds, reference, seconds / 2, 1, trace=True)
        baseline = next((r["digests"] for r in reps if "digests" in r), None)
        for rep in traced:
            rep["errors"] += _trace_errors(workload, rep, baseline)

    failed = int(bool(golden))
    for rep in reps + traced:
        if rep["errors"]:
            failed += 1
            print(f"perfbench: {rep['dir'].name}: {'; '.join(rep['errors'])}", file=sys.stderr)
    timed = [r for r in reps if "wall_s" in r]
    if not timed or (trace and not any("layers" in r for r in traced)):
        print("perfbench: no repetition produced measurements", file=sys.stderr)
        return 1

    walls = sorted(r["wall_s"] for r in timed)
    print(
        f"perfbench: {workload.name} seeds {seeds}: wall_s median {statistics.median(walls):.4f} "
        f"over {len(walls)} runs, "
        + (
            f"tail {tracer.tail(walls):.4f} (p{100 * (len(walls) - 10) // len(walls)})"
            if len(walls) > 10
            else "too few runs for a tail with ten samples beyond it"
        ),
        file=sys.stderr,
    )
    unscaled = {name: _median(timed, name) for name in UNSCALED}
    unscaled["launcher_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(RAW_PREFIX + json.dumps(unscaled), file=sys.stderr)
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        values = {name: statistics.median(l[name] for l in layered) for name in layered[0]}
        values["trace.overhead_s"] = _median(traced, "wall_s") - _median(timed, "wall_s")
        units = {name: unit for name, unit, _ in tracer.metric_specs()}
    else:
        values = {name: _median(timed, name) for name in ("setup_s", "wall_s", "peak_rss_mb")}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    attempted = 1 + len(reps) + len(traced)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frechet_sets" / "cli.py").is_file():
        print(f"perfbench: no frechet_sets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        return measure(workload, workload.seeds(args.seed), args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
