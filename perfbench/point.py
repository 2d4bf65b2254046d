#!/usr/bin/env python3
"""Record one trajectory point of the benchmark.

Usage, from the repository root:

    python3 perfbench/point.py LABEL

Makes two sets of ``RUNS`` runs per workload, the first with benchmark
seeds 1..RUNS and the second with the next RUNS seeds, each run measuring
``run_seconds`` from BENCHMARK.json. Within a set the workloads are
interleaved so that a slow spell of the machine is shared among them.
Then one traced run per workload (seed 0). Writes
``perfbench/trajectory/BENCH_<LABEL>.json`` with, per set and end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``), their
distance as a share of the median, and every value; the same for the
unscaled times, the calibration time and the peak memory right after
calibrating; the change of each median from the first set to the second;
and the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import RAW_PREFIX
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = [line for line in proc.stderr.splitlines() if line.startswith(RAW_PREFIX)]
    result["unscaled"] = json.loads(raw[-1][len(RAW_PREFIX):])
    print(workload, seed, trace, {k: result[k] for k in ("correct", "attempted", "failed")},
          file=sys.stderr, flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def summarize_set(seeds: list[int], results: list[dict]) -> dict:
    return {
        "seeds": seeds,
        "end_to_end": {
            m: dict(summarize([r["metrics"][m]["value"] for r in results]), unit=v["unit"])
            for m, v in results[0]["metrics"].items()
        },
        "unscaled": {
            m: summarize([r["unscaled"][m] for r in results]) for m in results[0]["unscaled"]
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    seed_sets = [list(range(1 + k * RUNS, 1 + (k + 1) * RUNS)) for k in range(SETS)]
    runs: dict[str, list[list[dict]]] = {name: [] for name in WORKLOADS}
    for seeds in seed_sets:
        for name in WORKLOADS:
            runs[name].append([])
        for seed in seeds:
            for name in WORKLOADS:
                runs[name][-1].append(bench(name, seed, seconds, 0))
    point = {
        "label": args.label,
        "machine": {
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for name, sets in runs.items():
        traced = bench(name, 0, seconds, 1)
        every = [r for results in sets for r in results]
        summaries = [summarize_set(seeds, results) for seeds, results in zip(seed_sets, sets)]
        first, last = summaries[0]["end_to_end"], summaries[-1]["end_to_end"]
        point["workloads"][name] = {
            "correct": all(r["correct"] for r in every) and traced["correct"],
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "sets": summaries,
            "median_change": {m: last[m]["median"] / first[m]["median"] - 1 for m in first},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    for name, w in point["workloads"].items():
        for m in w["median_change"]:
            spreads = " ".join(f"{s['end_to_end'][m]['spread']:.4f}" for s in w["sets"])
            print(f"{name} {m}: medians {[round(s['end_to_end'][m]['median'], 4) for s in w['sets']]} "
                  f"spreads {spreads} change {w['median_change'][m]:+.4f}")


if __name__ == "__main__":
    main()
