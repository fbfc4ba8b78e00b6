"""The package's import graph: no cycles, every import of a package module at module top, no submodule exported.

lpbesov is the one home of the dyadic shells and imports nothing from
kernels; kernels builds on it.  A function-level ``from .`` import hides a
cycle or defers a cost, so src/magcone holds none.
"""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import magcone

PACKAGE = Path(magcone.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__main__")


def _package_imports(path: Path, inside_functions: bool) -> list[str]:
    """The package modules a file imports, at module top or only inside functions."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = {id(node) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if (id(node) in nested) != inside_functions:
            continue
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.extend([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magcone"):
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names if alias.name.startswith("magcone"))
    return found


def test_star_import_binds_no_submodule():
    exported = {name: getattr(magcone, name) for name in magcone.__all__}
    assert "ConeConfig" in exported and "run_suite" in exported
    assert sorted(name for name, value in exported.items() if isinstance(value, types.ModuleType)) == []


def test_modules_are_found():
    assert {"kernels", "lpbesov", "spectrum", "verify", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    name = "magcone" if module == "__init__" else f"magcone.{module}"
    res = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True,
                         cwd=PACKAGE.parent, timeout=120)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("module", MODULES)
def test_no_function_level_package_import(module):
    assert _package_imports(PACKAGE / f"{module}.py", inside_functions=True) == []


def test_lpbesov_does_not_import_kernels():
    imported = _package_imports(PACKAGE / "lpbesov.py", inside_functions=False)
    assert imported and not any(name.split(".")[-1] == "kernels" for name in imported)
    assert "lpbesov" in _package_imports(PACKAGE / "kernels.py", inside_functions=False)


def test_verify_imports_no_private_kernels_name():
    """The half-wave shell assembly and its tail policy stay behind kernels' public functions."""
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "kernels"
                for alias in node.names]
    assert "halfwave_sup_curve" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_no_module_imports_specfun():
    """The kernels call scipy.special for Bessel values; there is no second copy to import."""
    for module in MODULES:
        imported = (_package_imports(PACKAGE / f"{module}.py", inside_functions=False)
                    + _package_imports(PACKAGE / f"{module}.py", inside_functions=True))
        assert not any(name.split(".")[-1] == "specfun" for name in imported), module
