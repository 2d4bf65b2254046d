"""The README's Python examples run as written and print what they claim, its
param table lists every field and param that ``cli.EXPERIMENTS`` declares, and
every test the CI workflow names exists."""

import ast
import contextlib
import io
import json
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_readme_python_blocks_run_and_print_the_quickstart_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    means, interval, distances = out.getvalue().splitlines()
    # [pi/2, 3*pi/2]
    assert ast.literal_eval(means) == pytest.approx([math.pi / 2, 3 * math.pi / 2], rel=1e-15)
    # (-1/3, 1.0)
    lo, hi = ast.literal_eval(interval)
    assert lo == pytest.approx(-1 / 3, rel=1e-15)
    assert hi == 1.0
    # 0.0, pi
    d_sub, d_haus = (float(v) for v in distances.split())
    assert d_sub == 0.0
    assert d_haus == pytest.approx(math.pi, rel=1e-15)


def test_readme_param_table_matches_the_declared_params():
    from frechet_sets.cli import EXPERIMENTS

    rows = {}
    for line in README.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in EXPERIMENTS:
            rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:]
    # each experiment's own top-level fields too; the schedule, an object,
    # is documented in the schema block
    declared = {
        (experiment, name): param
        for experiment, spec in EXPERIMENTS.items()
        for name, param in {**spec.fields, **spec.params}.items()
        if name != "schedule"
    }
    assert rows.keys() == declared.keys()
    for key, param in declared.items():
        default, allowed = rows[key]
        assert default == json.dumps(param.default), key
        rule = re.sub(r"^an? ", "", param.rule)
        assert allowed.startswith(rule), (key, allowed, rule)


def test_ci_names_only_tests_that_exist():
    # a renamed or deleted test would leave a CI step that selects nothing
    entries = re.findall(r"tests/(\w+\.py)::(\w+)", WORKFLOW.read_text())
    assert entries
    for file, name in entries:
        assert f"def {name}(" in (ROOT / "tests" / file).read_text(), (file, name)
