"""Module-boundary check: no module reaches into another module's private state.

Parses each package source and fails on an import of an underscore name from
a sibling module, or on any use of an underscore attribute of an object other
than ``self`` outside ``fitting.py``, which owns the fitter's private state.
Dunder names such as ``__setattr__`` are not private.

Refusal check: only ``model.py`` constructs ``SingularDenominator``, whose
message already names the refused pump, and no handler that catches it raises
again, so no layer re-wraps the kernel's refusal.

Export check: in each module that declares ``__all__``, every listed name
exists and every public top-level function or class is listed.

Layering check: each module imports only the sibling modules below it in
``ALLOWED_IMPORTS``; ``cli`` may import any.

Import check: ``import omitbench.cli`` does not load jsonschema, which would
add tens of milliseconds to every CLI call.

Benchmark check: every ``(module, attribute)`` that ``bench/tracing.py`` traces
and every omitbench name that ``bench/workloads.py`` imports or reads off an
omitbench module exists, so a rename fails here and not only in a benchmark run.

Documentation checks: ``pyproject.toml`` declares the package's
``__version__``, the README's library example runs, and the README lists
exactly the metadata keys that omitbench records on its traces and maps, and
exactly the top-level keys of a fit report.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omitbench
from omitbench.datafiles import write_fit_report
from omitbench.fitting import FitDataset, FitProblem, ParamBinding, fit
from omitbench.model import TWO_PI, CavityParams, MechanicalParams, PumpConfig, PumpScheme
from omitbench.sweeps import NoiseSpec, add_noise, simulate_line_cut, simulate_map

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "omitbench"


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


def names_in(node):
    """Every bare name and attribute name under ``node``."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def refusal_rewraps(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and path.name != "model.py"
                and "SingularDenominator" in names_in(node.func)):
            found.append(f"{path.name}:{node.lineno}: constructs SingularDenominator")
        elif (isinstance(node, ast.ExceptHandler) and node.type is not None
              and "SingularDenominator" in names_in(node.type)):
            found += [f"{path.name}:{n.lineno}: raises in a SingularDenominator handler"
                      for n in ast.walk(node) if isinstance(n, ast.Raise)]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_kernel_states_a_refusal(path):
    assert refusal_rewraps(path) == []


def test_refusal_check_sees_a_rewrap(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import model\n"
                      "def context(pump):\n"
                      "    try:\n        yield\n"
                      "    except model.SingularDenominator as exc:\n"
                      "        raise model.SingularDenominator(f'{pump}: {exc}') from exc\n"
                      "def penalty(row):\n"
                      "    try:\n        return row()\n"
                      "    except (SingularDenominator, ValueError):\n        raise\n")
    assert sorted(refusal_rewraps(sample)) == [
        "sample.py:11: raises in a SingularDenominator handler",
        "sample.py:6: constructs SingularDenominator",
        "sample.py:6: raises in a SingularDenominator handler"]


# The sibling modules each module may import; cli, the top layer, may import any.
ALLOWED_IMPORTS = {
    "__init__": set(),
    "model": set(),
    "sweeps": {"model"},
    **dict.fromkeys(("fitting", "datafiles", "svgmap", "config"), {"model", "sweeps"}),
}


def sibling_imports(path):
    """The names of the package modules that ``path`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            names = [f"omitbench.{n}" for n in names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("omitbench.")}
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.stem != "cli"],
                         ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    assert sibling_imports(path) - ALLOWED_IMPORTS[path.stem] == set()


def test_layering_check_sees_every_import_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy\nimport omitbench.model\nfrom .fitting import fit\n"
                      "from . import sweeps\nfrom omitbench.config import load_config\n")
    assert sibling_imports(sample) == {"model", "fitting", "sweeps", "config"}


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


def benchmark_names(tracing, workloads):
    """``(module, attribute)`` of each traced target in ``tracing`` and of each
    omitbench name that ``workloads`` imports or reads off an omitbench module."""
    names = set()
    for node in ast.parse(tracing.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            names |= {(v.elts[0].value, v.elts[1].value) for v in node.value.values}
    tree = ast.parse(workloads.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "omitbench":
            modules.update({a.asname or a.name: f"omitbench.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("omitbench."):
            names |= {(node.module, a.name) for a in node.names}
    return names | {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules}


def test_benchmark_names_exist():
    names = benchmark_names(ROOT / "bench" / "tracing.py", ROOT / "bench" / "workloads.py")
    assert {("omitbench.fitting", "FitDataset"), ("omitbench.sweeps", "default_line_grid"),
            ("omitbench.model", "PumpScheme"), ("omitbench.fitting", "residuals")} <= names
    assert sorted(f"{m}.{a}" for m, a in names
                  if not hasattr(importlib.import_module(m), a)) == []


def test_benchmark_check_sees_every_name_form(tmp_path):
    tracing, workloads = tmp_path / "tracing.py", tmp_path / "workloads.py"
    tracing.write_text('TARGETS = {"m.k": ("omitbench.model", "kernel", _points)}\n')
    workloads.write_text("from omitbench import fitting, sweeps as sw\n"
                         "from omitbench.model import TWO_PI\n"
                         "x = fitting.fit(sw.grid.size, other.attr)\n")
    assert benchmark_names(tracing, workloads) == {
        ("omitbench.model", "kernel"), ("omitbench.model", "TWO_PI"),
        ("omitbench.fitting", "fit"), ("omitbench.sweeps", "grid")}


def test_pyproject_declares_the_package_version():
    # A regex, not tomllib: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, re.M) == [omitbench.__version__]


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library in five lines\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    peak, coop = map(float, capsys.readouterr().out.split())
    assert peak == pytest.approx(0.76913, rel=1e-4)
    assert coop == pytest.approx(1.26885, rel=1e-4)


def test_readme_lists_the_recorded_meta_keys():
    # The keys on a simulated, noised trace and on an n_cav map and a p_in map.
    cav = CavityParams.from_hz(6e9, 84e3, 44e3)
    mech = MechanicalParams.from_hz(3.8e6, 15.3, 0.56)
    grid = mech.omega_m + TWO_PI * np.linspace(-100.0, 100.0, 5)
    trace = simulate_line_cut(PumpConfig(PumpScheme.RED, -mech.omega_m, n_cav=1e5), cav, mech,
                              grid)
    metas = [add_noise(trace, NoiseSpec(0.01, seed=1)).meta] + [
        simulate_map(PumpScheme.RED, cav, mech, [-mech.omega_m], grid, **drive).meta
        for drive in ({"n_cav": 1e5}, {"p_in": 1e-9})]
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"omitbench records these keys\s+itself, so `meta` cannot set them"
                       r" \(exit 2, naming the key\):(.*?)\.\n", text, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set().union(*metas)


def test_readme_lists_the_fit_report_keys(tmp_path):
    # The top-level keys of a report written for a one-slot fit.
    cav = CavityParams.from_hz(6e9, 84e3, 44e3)
    mech = MechanicalParams.from_hz(3.8e6, 15.3, 0.56)
    grid = mech.omega_m + TWO_PI * np.linspace(-100.0, 100.0, 41)
    trace = simulate_line_cut(PumpConfig(PumpScheme.RED, -mech.omega_m, n_cav=1e5), cav, mech,
                              grid)
    values = {"omega_c": cav.omega_c, "kappa": cav.kappa, "kappa_ext": cav.kappa_ext,
              "omega_m": mech.omega_m, "gamma_m": mech.gamma_m, "g0": mech.g0, "n_cav": 1e5}
    bindings = {name: ParamBinding.fixed(name, value) for name, value in values.items()}
    bindings["gamma_m"] = ParamBinding.free("gamma_m", 1.1 * mech.gamma_m, 1.0, 1e3)
    problem = FitProblem([FitDataset(trace, PumpScheme.RED, bindings)])
    write_fit_report(tmp_path / "report.json", fit(problem), problem, ["trace.csv"])
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"\*\*Fit report JSON\*\* — an object with the keys(.*?)\.\s",
                       text, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == set(report)
