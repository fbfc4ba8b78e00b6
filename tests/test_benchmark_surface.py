"""The functions the benchmark under perfbench/ wraps and calls must exist in magcone.

perfbench/run.py lists the layers its tracer wraps (``LAYERS``), and
perfbench/workloads.py calls package functions by name through
``late(module, "name", ...)``.  A rename or merge that drops one of them
would crash the benchmark only when it runs; this test fails first.  It
reads perfbench/ and changes nothing there.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def _layers() -> list[tuple[str, str]]:
    # importing run.py only defines names; its bootstrap import needs perfbench/ on
    # the path, and its dataclasses need the module registered while it executes
    spec = importlib.util.spec_from_file_location("_perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = run
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[spec.name]
    return [(module, name) for module, name, *_ in run.LAYERS]


@functools.cache
def _late_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "late":
            module, name = node.args[:2]
            assert isinstance(module, ast.Name) and isinstance(name, ast.Constant)
            targets.append((module.id, name.value))
    return targets


@functools.cache
def _references() -> list[tuple[str, str]]:
    """Every magcone name the benchmark scripts import or read as ``module.name``."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "magcone":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magcone."):
                refs.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
        refs.update((node.value.id, node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    return sorted(refs)


def test_surface_is_found():
    assert ("kernels", "halfwave_kernel_grid") in _layers() and ("lpbesov", "shell_project") in _layers()
    assert ("lpbesov", "besov_report") in _late_targets() and ("spectrum", "expand") in _late_targets()
    assert ("kernels", "spectral_kernel") in _references() and ("geometry", "make_point") in _references()


@pytest.mark.parametrize("module,name", sorted(set(_layers()) | set(_late_targets())))
def test_benchmark_target_is_callable(module, name):
    target = getattr(importlib.import_module(f"magcone.{module}"), name, None)
    assert callable(target), f"perfbench calls magcone.{module}.{name}, which is gone"


@pytest.mark.parametrize("module,name", _references())
def test_benchmark_reference_exists(module, name):
    assert hasattr(importlib.import_module(f"magcone.{module}"), name), \
        f"perfbench reads magcone.{module}.{name}, which is gone"
