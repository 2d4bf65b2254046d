#!/usr/bin/env python3
"""Pin the reference outputs the benchmark checks against.

Usage, from the repository root: python3 perfbench/pin.py

Runs every seed of every workload's pool through the CLI and writes
``perfbench/reference/<workload>.json``. Re-pin only when a change to the
program's results is intended and recorded.
"""

import json
import tempfile
import time
from pathlib import Path

import check
from run import REFERENCE_DIR, WORK_DIR, Launcher
from workloads import WORKLOADS


def pin(workload, launcher: Launcher) -> dict:
    seeds = list(range(workload.pool)) or workload.seeds(0)
    rep = launcher.run(workload.run_config(seeds, "results"), analyze=workload.analyze)
    if rep["errors"]:
        raise SystemExit(f"{workload.name}: {rep['errors']}")
    out = rep["out"]
    doc = json.loads((out / f"{workload.config['experiment']}.json").read_text())
    key = (lambda r: str(r["seed"])) if workload.pool else (lambda r: "any")
    reference = {"results": {key(r): check.view(r) for r in doc["results"]}}
    if workload.analyze:
        reference["limits"] = json.loads((out / check.LIMITS_FILE).read_text())
    return reference


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        launcher = Launcher(Path(work), time.monotonic() + 3600.0)
        for name in sorted(WORKLOADS):
            reference = pin(WORKLOADS[name], launcher)
            with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
                json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")


if __name__ == "__main__":
    main()
