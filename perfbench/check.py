"""Output checks: pinned reference results, fixture invariants, golden hashes.

References were pinned by ``pin.py`` from the program as it stood when the
benchmark was added. Integers, booleans, strings and lists of them (indices,
cardinalities, walks, flags, counts) must match exactly; floats must agree
within 1e-9 relative.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9

#: C11 golden SHA-256 of configs/e3.json run with seed 42.
GOLDEN_E3_SEED42 = {
    "median.csv": "a4921ff8e2e9fd763db5ad38f684a64b936e61db1d20e960438ab463eee9a8be",
    "median.json": "3a04cbbfb878395386f3d756223937039e92927735b69579b9e6bea9d18034b4",
}

#: The hypothesis each fixture must violate, as its summary flag.
FIXTURE_VIOLATIONS = {
    "unit-indicator": "uniform_on_bounded",
    "line-indicator": "eventually_bounded",
    "reciprocal-tail": "approachable_minimizers",
}

LIMITS_FILE = "limits.json"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def view(result: dict) -> dict:
    """One replication in pinned form: seed dropped, records as columns."""
    out = {k: v for k, v in result.items() if k not in ("seed", "records")}
    records = result["records"]
    keys = sorted(set().union(*records)) if records else []
    out["records"] = {k: [r.get(k) for r in records] for k in keys}
    return out


def compare(got, ref, path: str, errors: list[str]) -> None:
    if len(errors) >= 5:
        return
    if isinstance(ref, dict):
        if not isinstance(got, dict) or got.keys() != ref.keys():
            errors.append(f"{path}: keys differ")
            return
        for key in ref:
            compare(got[key], ref[key], f"{path}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: length differs")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]", errors)
    elif isinstance(ref, float):
        if not (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and (got == ref or math.isclose(got, ref, rel_tol=REL_TOL))
        ):
            errors.append(f"{path}: {got!r} != {ref!r}")
    elif type(got) is not type(ref) or got != ref:
        errors.append(f"{path}: {got!r} != {ref!r}")


def check_outputs(out: Path, experiment: str, seeds: list[int], reference: dict) -> list[str]:
    """Every problem found in one run's output directory (empty when correct)."""
    errors: list[str] = []
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json written"]
    manifest = json.loads(manifest_path.read_text())
    for name, digest in manifest["files"].items():
        if not (out / name).is_file() or sha256(out / name) != digest:
            errors.append(f"{name}: does not match its manifest hash")
    doc = json.loads((out / f"{experiment}.json").read_text())
    results = doc["results"]
    if [r["seed"] for r in results] != seeds:
        return errors + [f"result seeds {[r['seed'] for r in results]} != {seeds}"]
    pinned = reference["results"]
    for result in results:
        ref = pinned.get(str(result["seed"]), pinned.get("any"))
        if ref is None:
            errors.append(f"seed {result['seed']}: no pinned reference")
            continue
        compare(view(result), ref, f"seed {result['seed']}", errors)

    with open(out / f"{experiment}.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh))
    expected = 1 + sum(len(rec) - ("n" in rec) for r in results for rec in r["records"])
    if rows != expected:
        errors.append(f"csv has {rows} rows, expected {expected}")

    if experiment == "fixtures":
        errors += check_fixtures(results, out / LIMITS_FILE, reference)
    return errors


def check_fixtures(results: list[dict], limits_path: Path, reference: dict) -> list[str]:
    errors: list[str] = []
    for result in results:
        for name, flag in FIXTURE_VIOLATIONS.items():
            summary = result["summary"][name]
            failing = [
                k
                for k in ("uniform_on_bounded", "eventually_bounded", "approachable_minimizers")
                if not summary[k]
            ]
            if failing != [flag] or summary["violates"] != flag.replace("_", "-"):
                errors.append(f"{name}: violates {failing}, expected only {flag}")
            if not summary["min_escape"] >= 1:
                errors.append(f"{name}: min_escape {summary['min_escape']} < 1")
    if not limits_path.is_file():
        return errors + ["no limits.json written"]
    limits = json.loads(limits_path.read_text())
    for name in FIXTURE_VIOLATIONS:
        if not set(limits[name]["inner"]) <= set(limits[name]["outer"]):
            errors.append(f"{name}: inner limit not inside the outer limit")
    compare(limits, reference["limits"], "limits", errors)
    return errors


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every result file a run wrote (manifest excluded: it echoes
    the output directory)."""
    return {
        p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file() and p.name != "manifest.json"
    }
