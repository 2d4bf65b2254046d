"""Every module-level import in the library is used.

An import counts as used when some ``Name`` node of the module reads the
name it binds, or when a string annotation mentions it (the modules use
``from __future__ import annotations`` and quote some annotations, such as
``Callable`` in ``cost_model``). ``__init__.py`` is skipped: its imports are
the package's exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "frechet_sets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a module-level import binds (``import a.b`` binds ``a``)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _string_annotation_names(tree: ast.Module) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                try:
                    parsed = ast.parse(const.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def test_the_library_modules_are_found():
    # an empty glob would turn the check below into one skipped test
    assert {"cost_model.py", "metric_core.py", "set_limits.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _string_annotation_names(tree)
    unused = [name for name in imported if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
