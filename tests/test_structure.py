"""Module-boundary check: no module reaches into another module's private state.

Parses each package source and fails on an import of an underscore name from
a sibling module, or on any use of an underscore attribute of an object other
than ``self`` outside ``fitting.py``, which owns the fitter's private state.
Dunder names such as ``__setattr__`` are not private.
"""

import ast
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
