"""Module-boundary check: no module reaches into another module's private state.

Parses each package source and fails on an import of an underscore name from
a sibling module, or on any use of an underscore attribute of an object other
than ``self`` outside ``fitting.py``, which owns the fitter's private state.
Dunder names such as ``__setattr__`` are not private.

Export check: in each module that declares ``__all__``, every listed name
exists and every public top-level function or class is listed.

Import check: ``import omitbench.cli`` does not load jsonschema, which would
add tens of milliseconds to every CLI call.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "omitbench"


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("omitbench")):
            found += [f"{path.name}:{node.lineno}: imports {alias.name}"
                      for alias in node.names if is_private(alias.name)]
        elif (isinstance(node, ast.Attribute) and is_private(node.attr)
              and path.name != "fitting.py"
              and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            found.append(f"{path.name}:{node.lineno}: uses .{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reaches_into_private_state(path):
    assert private_reaches(path) == []


def test_check_sees_a_private_reach(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .fitting import _helper\n"
                      "def f(ds, self):\n"
                      "    return ds._data, self._own, object.__setattr__\n")
    assert private_reaches(sample) == ["sample.py:1: imports _helper",
                                       "sample.py:3: uses ._data"]


def module_exports(path):
    """``(__all__ or None, public top-level function and class names)``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exports = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exports = ast.literal_eval(node.value)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    return exports, defined


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if module_exports(p)[0] is not None],
                         ids=lambda p: p.name)
def test_exports_exist_and_cover_public_definitions(path):
    name = "omitbench" if path.stem == "__init__" else f"omitbench.{path.stem}"
    module = importlib.import_module(name)
    exports, defined = module_exports(path)
    assert [n for n in exports if not hasattr(module, n)] == []
    assert [n for n in defined if n not in exports] == []


def test_export_check_sees_a_stale_and_an_unexported_name(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("__all__ = ['gone']\n"
                      "def helper():\n    pass\n"
                      "def _private():\n    pass\n")
    assert module_exports(sample) == (["gone"], ["helper"])


def test_cli_import_does_not_load_jsonschema():
    out = subprocess.run(
        [sys.executable, "-c", "import omitbench.cli, sys; print('jsonschema' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        check=True, timeout=60)
    assert out.stdout == "False\n"
