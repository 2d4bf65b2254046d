"""The README's Python examples run as written and print what they claim."""

import ast
import contextlib
import io
import math
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
