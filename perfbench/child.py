"""One timed benchmark process: run a generated config through the CLI.

Usage: python3 child.py SPEC.json

The spec names the CLI arguments, an optional library-API step (the
fixture tail analysis) and where to write the process's stats. The time
of the first runner call splits set-up (interpreter, imports, config
loading and validation) from the workload itself. The calibration work
(calibration.py) is timed before ``frechet_sets`` is imported, and the
peak memory is recorded right after it. With ``trace`` set, every layer is
wrapped by the span recorder and the spans are written after the workload
ends.
"""

import json
import resource
import sys
import time

with open(sys.argv[1]) as fh:
    spec = json.load(fh)

import calibration  # noqa: E402

calibrated = calibration.calibrate_process()
timed_calibration_s = sum(calibrated[1:]) / calibration.REPEATS
calibration_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

import frechet_sets  # noqa: E402  (the import is part of the measured set-up)
from frechet_sets import cli, lln_lab  # noqa: E402

import tracer  # noqa: E402

recorder = None
if spec["trace"]:
    recorder = tracer.Recorder()
    recorder.install()

first_runner: list[float] = []


def _marked(fn):
    def wrapper(*args, **kwargs):
        if not first_runner:
            first_runner.append(time.monotonic())
        return fn(*args, **kwargs)

    return wrapper


for _name in tracer.RUNNER_FUNCTIONS:
    if hasattr(lln_lab, _name):
        setattr(lln_lab, _name, _marked(getattr(lln_lab, _name)))

try:
    cli.main(spec["argv"])
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1

analyze = spec.get("analyze")
if code == 0 and analyze:
    limits = {}
    for name in analyze["names"]:
        fixture = frechet_sets.counterexample_fixture(
            name, horizon=analyze["horizon"], grid_max=analyze["grid_max"]
        )
        report = frechet_sets.analyze_sequence(
            fixture.argmin_sequence,
            tail_start=analyze["tail_start"],
            diameter_cap=analyze["diameter_cap"],
        )
        limits[name] = report.to_json_dict()
    with open(analyze["out"], "w") as fh:
        json.dump(limits, fh, sort_keys=True, indent=2)
        fh.write("\n")
end = time.monotonic()

maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

stats = {
    "exit": code,
    "first_runner": first_runner[0] if first_runner else None,
    "end": end,
    "maxrss_kb": maxrss_kb,
    "calibration_s": calibrated,
    "timed_calibration_s": timed_calibration_s,
    "scale": calibration.REFERENCE_S / timed_calibration_s,
    "calibration_maxrss_kb": calibration_maxrss_kb,
}
if recorder is not None:
    recorder.dump(spec["spans"])
with open(spec["stats"], "w") as fh:
    json.dump(stats, fh)
sys.exit(code)
