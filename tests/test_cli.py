"""Config validation, experiment dispatch, output artifacts, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from frechet_sets.cli import (
    EXPERIMENT_IDS,
    EXPERIMENTS,
    MAX_GRID_POINTS,
    MAX_POWER_ALPHA,
    main,
    run,
    validate_config,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    config = {
        "experiment": "median",
        "seeds": [0, 1],
        "n_max": 64,
        "schedule": {"kind": "constant", "c": 0.0, "exponent": 0.0},
        "params": {"dimension": 1},
        "out_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def test_validate_accepts_good_config(tmp_path):
    _, config = write_config(tmp_path)
    echo, report = validate_config(config)
    assert report.ok
    assert report.warnings == []
    assert "thresholds" not in echo


def test_validate_missing_seeds_is_issue():
    echo, report = validate_config({"experiment": "median"})
    assert not report.ok
    assert any("seeds" in issue for issue in report.issues)


def test_validate_unknown_key_is_warning_not_error(tmp_path, capsys):
    _, config = write_config(tmp_path)
    config["mystery"] = 1
    echo, report = validate_config(config)
    assert report.ok
    assert any("mystery" in w for w in report.warnings)
    # a regression config written when the runner swept a coefficient grid
    # still runs; the grid's params are ignored and never reach the runner
    params = {"dimension": 1, "beta_extent": 2.0, "beta_points": 9}
    path, _ = write_config(tmp_path, experiment="regression", params=params)
    assert run(str(path)) == 0
    err = capsys.readouterr().err
    for key in ("beta_extent", "beta_points"):
        assert f"unknown param {key!r} for experiment 'regression' ignored" in err


def test_validate_defaults_are_listed():
    echo, report = validate_config({"experiment": "fixtures"})
    assert report.ok
    assert "seeds" in report.defaulted
    assert echo["seeds"] == [0]
    assert echo["params"]["horizon"] == 100


@pytest.mark.parametrize("bad_seeds", [5, "abc", [[1]], [1, 1], [-2], [], [True]])
def test_validate_rejects_malformed_seeds(bad_seeds):
    echo, report = validate_config({"experiment": "median", "seeds": bad_seeds})
    assert not report.ok


@pytest.mark.parametrize(
    "experiment,overrides,field",
    [
        # explicit ids, so a case keeps its name wherever it sits in the list;
        # these keep the names they were first collected under, and a new
        # case takes a descriptive id such as "circle-grid_size-0"
        pytest.param(
            "circle",
            {"params": {"grid_size": 0}},
            "params.grid_size",
            id="circle-overrides0-params.grid_size",
        ),
        pytest.param(
            "circle",
            {"params": {"alpha": -1}},
            "params.alpha",
            id="circle-overrides1-params.alpha",
        ),
        pytest.param(
            "median",
            {"params": {"dimension": 0}},
            "params.dimension",
            id="median-overrides2-params.dimension",
        ),
        pytest.param(
            "regression",
            {"params": {"dimension": "2"}},
            "params.dimension",
            id="regression-overrides3-params.dimension",
        ),
        pytest.param(
            "regression",
            {"params": {"dimension": 8}},
            "params.dimension",
            id="regression-overrides4-params.dimension",
        ),
        pytest.param(
            "regression",
            {"params": {"noise": -1}},
            "params.noise",
            id="regression-overrides5-params.noise",
        ),
        pytest.param(
            "median",
            {"schedule": {"c": float("nan")}},
            "schedule constant",
            id="median-overrides8-schedule constant",
        ),
        pytest.param(
            "ulln",
            {"params": {"n_list": []}},
            "params.n_list",
            id="ulln-overrides9-params.n_list",
        ),
        pytest.param(
            "ulln",
            {"params": {"n_list": [0, 10]}},
            "params.n_list",
            id="ulln-overrides10-params.n_list",
        ),
        pytest.param(
            "ulln",
            {"params": {"grid_points": 0}},
            "params.grid_points",
            id="ulln-overrides11-params.grid_points",
        ),
        pytest.param(
            "fixtures",
            {"params": {"horizon": 200, "grid_max": 100}},
            "params.horizon",
            id="fixtures-overrides12-params.horizon",
        ),
        pytest.param(
            "median",
            {"n_max": 2**24 // 3 + 1, "params": {"dimension": 3}},
            "'n_max' x",
            id="median-overrides13-'n_max' x",
        ),
        pytest.param(
            "circle",
            {"n_max": 2**24 + 1},
            "'n_max' must be <= 16777216",
            id="circle-overrides14-'n_max' must be <= 16777216",
        ),
        pytest.param(
            "regression",
            {"n_max": 2**21 + 1, "params": {"dimension": 7}},
            "'n_max' x ('params.dimension' + 1)",
            id="regression-overrides15-'n_max' x ('params.dimension' + 1)",
        ),
        pytest.param(
            "ulln",
            {"params": {"n_list": [100, 2**24 + 1]}},
            "'params.n_list' entries",
            id="ulln-overrides16-'params.n_list' entries",
        ),
        pytest.param(
            "circle",
            {"params": {"grid_size": MAX_GRID_POINTS + 1}},
            "params.grid_size",
            id="circle-overrides17-params.grid_size",
        ),
        pytest.param(
            "ulln",
            {"params": {"grid_points": MAX_GRID_POINTS + 1}},
            "params.grid_points",
            id="ulln-overrides18-params.grid_points",
        ),
        pytest.param(
            "fixtures",
            {"params": {"grid_max": 4096}},
            "params.grid_max",
            id="fixtures-overrides19-params.grid_max",
        ),
        pytest.param(
            "median",
            {"params": {"dimension": 7}},
            "'params.dimension' must be an integer in [1, 6]",
            id="median-overrides20-'params.dimension' must be an integer in [1, 6]",
        ),
        pytest.param(
            "regression",
            {"params": {"noise": 1e308}},
            "'params.noise' must be a finite number",
            id="regression-overrides21-'params.noise' must be a finite number",
        ),
        pytest.param(
            "median",
            {"n_max": 8, "schedule": {"kind": "constant", "c": 1e308}},
            "schedule constant must be >= 0 and <= 1e+100",
            id="median-overrides23-schedule.c",
        ),
        pytest.param(
            "circle",
            {"n_max": 10, "params": {"grid_size": 8, "alpha": 650}},
            "params.alpha",
            id="circle-alpha-650",
        ),
        # out_dir has a rule of its own: these passed validation and then
        # exited 3 with a TypeError from the path join
        pytest.param("median", {"out_dir": 5}, "'out_dir' must be", id="median-out_dir-5"),
        pytest.param("circle", {"out_dir": [1]}, "'out_dir'", id="circle-out_dir-[1]"),
        pytest.param("regression", {"out_dir": {}}, "'out_dir'", id="regression-out_dir-{}"),
        pytest.param("ulln", {"out_dir": 5}, "'out_dir'", id="ulln-out_dir-5"),
        pytest.param("fixtures", {"out_dir": {}}, "'out_dir'", id="fixtures-out_dir-{}"),
    ],
)
def test_validate_only_rejects_out_of_range_config(
    tmp_path, capsys, experiment, overrides, field
):
    path, _ = write_config(tmp_path, experiment=experiment, **overrides)
    assert run(str(path), validate_only=True) == 2
    assert field in capsys.readouterr().err


def test_median_run_shares_one_grid_memo_between_its_seeds(tmp_path, monkeypatch):
    from frechet_sets import lln_lab

    memos = []
    original = lln_lab.run_median_experiment

    def spy(*args, memo=None, **kwargs):
        memos.append(memo)
        return original(*args, memo=memo, **kwargs)

    monkeypatch.setattr(lln_lab, "run_median_experiment", spy)
    path, _ = write_config(tmp_path, seeds=[0, 1, 2], params={"dimension": 2})
    assert run(str(path)) == 0
    assert len(memos) == 3
    assert isinstance(memos[0], lln_lab.MedianGridMemo)
    assert all(memo is memos[0] for memo in memos)


def test_null_out_dir_takes_the_default(tmp_path, monkeypatch):
    # at the top level a null counts as a missing key
    monkeypatch.chdir(tmp_path)
    path, _ = write_config(tmp_path, out_dir=None)
    assert run(str(path)) == 0
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert manifest["config"]["out_dir"] == "results"
    assert (tmp_path / "results" / "median.json").exists()


@pytest.mark.parametrize(
    "experiment,key,value",
    [("circle", "schedule", {"c": -1}), ("ulln", "n_max", 1), ("fixtures", "n_max", 1)],
)
def test_a_field_the_runner_does_not_read_is_ignored(tmp_path, capsys, experiment, key, value):
    # a value that would fail its rule where it is read only warns here
    path, config = write_config(tmp_path, experiment=experiment, params={}, **{key: value})
    assert run(str(path), validate_only=True) == 0
    assert f"unknown key {key!r} ignored" in capsys.readouterr().err
    echo, report = validate_config(config)
    assert report.ok
    declared = EXPERIMENTS[experiment].fields
    assert set(echo) == {"experiment", "seeds", "out_dir", "params", *declared}
    assert key not in echo


def test_draw_bound_admits_its_limit():
    # validation only: running these would draw 2**24 generator outputs
    for config in (
        {"experiment": "median", "n_max": 2**23, "params": {"dimension": 2}},
        {"experiment": "circle", "n_max": 2**24},
        {"experiment": "regression", "n_max": 2**21, "params": {"dimension": 7}},
        {"experiment": "ulln", "params": {"n_list": [2**24]}},
    ):
        echo, report = validate_config(dict(config, seeds=[0]))
        assert report.ok, report.issues


def test_power_alpha_bound_admits_its_limit_and_runs(tmp_path):
    # pi**alpha is the circle's largest cost term; at the bound it is finite.
    # ulln is unbounded: its grid lies in [0, 1], so d**alpha <= 1.
    for experiment, params in (
        ("circle", {"grid_size": 8, "alpha": MAX_POWER_ALPHA}),
        ("ulln", {"grid_points": 5, "alpha": 650, "n_list": [10]}),
    ):
        path, _ = write_config(
            tmp_path, experiment=experiment, seeds=[0], n_max=10, params=params
        )
        assert run(str(path)) == 0


def test_grid_bounds_admit_their_limit():
    # validation only: running these would take hundreds of MB
    for config in (
        {"experiment": "circle", "params": {"grid_size": MAX_GRID_POINTS}},
        {"experiment": "ulln", "params": {"grid_points": MAX_GRID_POINTS}},
        {"experiment": "fixtures", "params": {"grid_max": 4095}},
    ):
        echo, report = validate_config(dict(config, seeds=[0]))
        assert report.ok, report.issues


def test_negative_seed_override_exits_2(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    for validate_only in (True, False):
        assert run(str(path), seed_override=-1, validate_only=validate_only) == 2
        err = capsys.readouterr().err
        assert "--seed-override must be an integer in [0, 2**64)" in err
        assert not (tmp_path / "out").exists()


def test_validate_rejects_negative_exponent():
    echo, report = validate_config(
        {
            "experiment": "median",
            "seeds": [0],
            "schedule": {"kind": "power-decay", "c": 1.0, "exponent": -1},
        }
    )
    assert not report.ok
    assert any("schedule exponent must be >= 0" in issue for issue in report.issues)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param('[{"experiment": "median"}]', "config must be a JSON object", id="array"),
        pytest.param('{"seeds": [0]}', "missing required field 'experiment'", id="no-experiment"),
        pytest.param(
            '{"experiment": "median", "seeds": [0], "params": [1]}',
            "'params' must be an object",
            id="params-list",
        ),
        pytest.param(
            '{"experiment": "median", "seeds": [0], "schedule": {"c": 1' + "0" * 400 + "}}",
            "schedule c and exponent must be numbers in float range",
            id="schedule-c-10**400",
        ),
        pytest.param(
            '{"experiment": "median", "seeds": [0], '
            '"schedule": {"kind": "constant", "c": 0.05, "exponent": 0.25}}',
            "schedule exponent must be 0 for kind 'constant'",
            id="constant-schedule-exponent",
        ),
    ],
)
def test_malformed_config_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, text, message):
    # the default out_dir is relative, so the run happens in an empty directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    for validate_only in (True, False):
        assert run("cfg.json", validate_only=validate_only) == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_validate_unknown_experiment_names_valid_ids():
    echo, report = validate_config({"experiment": "mystery", "seeds": [0]})
    assert not report.ok
    assert any(all(e in issue for e in EXPERIMENT_IDS) for issue in report.issues)


def test_run_writes_outputs_and_manifest(tmp_path, capsys):
    path, config = write_config(tmp_path)
    assert run(str(path)) == 0
    out = tmp_path / "out"
    json_path, csv_path = out / "median.json", out / "median.csv"
    manifest_path = out / "manifest.json"
    assert json_path.exists() and csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    doc = json.loads(json_path.read_text())
    assert [r["seed"] for r in doc["results"]] == [0, 1]


#: Runs ``cli.main`` on the config ``argv[1]`` in a fresh interpreter and prints
#: its exit code and the modules that importing and running the program added
#: beyond what numpy imports itself (numpy 1.x imports numpy.random, and through
#: `secrets` and `hmac` also hashlib, with numpy).
_MODULES_ADDED_SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
from frechet_sets import cli
try:
    cli.main(["--config", sys.argv[1]])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


def test_a_run_loads_no_openssl(tmp_path):
    # the manifest digests come from the interpreter's builtin SHA-256, so the
    # program never imports hashlib, whose import loads OpenSSL's libcrypto
    # (about 3.5 MB of a run's peak RSS); modules present before the program's
    # import (a site hook's, numpy's own) do not count against it. The digests
    # themselves are checked in test_run_writes_outputs_and_manifest.
    path, _ = write_config(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_ADDED_SCRIPT, str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert "frechet_sets.cli" in report["added"]
    assert not {"_hashlib", "hashlib"} & set(report["added"])
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_run_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(str(missing)) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(str(bad)) == 2
    path, _ = write_config(tmp_path, experiment="mystery")
    assert run(str(path)) == 2
    err = capsys.readouterr().err
    for experiment_id in EXPERIMENT_IDS:
        assert experiment_id in err


def test_run_runtime_error_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    path, _ = write_config(tmp_path, out_dir=str(blocker / "sub"))
    assert run(str(path)) == 3
    assert "error" in capsys.readouterr().err


def test_run_validate_only_executes_nothing(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert run(str(path), validate_only=True) == 0
    assert not (tmp_path / "out").exists()
    assert "config ok" in capsys.readouterr().out


def test_run_seed_override_and_out_dir(tmp_path):
    path, _ = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert run(str(path), out_dir=str(other), seed_override=42) == 0
    doc = json.loads((other / "median.json").read_text())
    assert [r["seed"] for r in doc["results"]] == [42]


def test_run_is_deterministic_across_invocations(tmp_path):
    path_a, _ = write_config(tmp_path, name="a.json", out_dir=str(tmp_path / "oa"))
    path_b, _ = write_config(tmp_path, name="b.json", out_dir=str(tmp_path / "ob"))
    assert run(str(path_a)) == 0
    assert run(str(path_b)) == 0
    for name in ("median.json", "median.csv"):
        assert (tmp_path / "oa" / name).read_bytes() == (
            tmp_path / "ob" / name
        ).read_bytes()


@pytest.mark.parametrize("validate_only", [True, False])
# the ids keep the names the 0 and -3 cases had when the job count had a second source
@pytest.mark.parametrize("jobs", ["0", "-3", "2"], ids=["0-None---jobs", "-3-None---jobs", "2"])
def test_job_count_below_one_exits_2(tmp_path, capsys, validate_only, jobs):
    # seeds run one after another, so --jobs accepts only 1: any other
    # value exits 2 through argparse, naming the flag, before any output
    path, _ = write_config(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["--config", str(path), "--jobs", jobs] + ["--validate-only"] * validate_only)
    assert exited.value.code == 2
    assert "argument --jobs: invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_jobs_one_writes_the_bytes_of_the_default(tmp_path):
    path, _ = write_config(tmp_path)
    written = []
    for flags in ([], ["--jobs", "1"]):
        with pytest.raises(SystemExit) as exited:
            main(["--config", str(path), *flags])
        assert exited.value.code == 0
        out = tmp_path / "out"
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
        shutil.rmtree(out)
    assert written[0] == written[1]
    assert sorted(written[0]) == ["manifest.json", "median.csv", "median.json"]


def test_all_example_configs_validate():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config_dir = os.path.join(here, "configs")
    for name in os.listdir(config_dir):
        with open(os.path.join(config_dir, name)) as fh:
            _, report = validate_config(json.load(fh))
        assert report.ok, (name, report.issues)
        assert report.warnings == [], (name, report.warnings)


@pytest.mark.parametrize(
    "experiment,params",
    [
        ("circle", {"grid_size": 60, "alpha": 2.0}),
        ("regression", {"dimension": 1}),
        ("ulln", {"grid_points": 5, "alpha": 2.0, "n_list": [10, 50]}),
        ("fixtures", {"horizon": 20, "grid_max": 30, "diameter_cap": 10.0}),
    ],
)
def test_every_experiment_runs_from_config(tmp_path, experiment, params):
    path, _ = write_config(
        tmp_path,
        experiment=experiment,
        params=params,
        n_max=64,
        seeds=[0],
    )
    assert run(str(path)) == 0
    assert (tmp_path / "out" / f"{experiment}.json").exists()
