"""The functions the benchmark under perfbench/ wraps and calls must exist in magcone.

perfbench/run.py lists the layers its tracer wraps (``LAYERS``), and
perfbench/workloads.py calls package functions by name through
``late(module, "name", ...)`` and directly.  A rename or merge that drops
one of them, or a parameter the benchmark passes, would crash the benchmark
only when it runs; this test fails first.  It reads perfbench/ and changes
nothing there.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
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


def _magcone_imports(tree: ast.Module) -> tuple[dict, dict]:
    """Local names bound by ``from magcone import mod`` (to mod) and ``from magcone.mod import name`` (to (mod, name))."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "magcone":
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magcone."):
            names.update((alias.asname or alias.name, (node.module.split(".", 1)[1], alias.name))
                         for alias in node.names)
    return modules, names


@functools.cache
def _references() -> list[tuple[str, str]]:
    """Every magcone name the benchmark scripts import or read as ``module.name``."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = _magcone_imports(tree)
        refs.update(names.values())
        refs.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    return sorted(refs)


@functools.cache
def _calls() -> list[tuple[str, str, str, int, tuple[str, ...]]]:
    """Every benchmark call of a magcone function: (where, module, name, positional count, keywords).

    Covers ``late(module, "name", ...)``, whose arguments follow the name,
    and direct calls of ``module.name`` or of a name imported from a
    magcone module.  A call spreading ``*args`` or ``**kwargs`` has no
    fixed arity and is left out.
    """
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules, names = _magcone_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Name) and func.id == "late":
                (module, name), args = (modules[args[0].id], args[1].value), args[2:]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                module, name = modules[func.value.id], func.attr
            elif isinstance(func, ast.Name) and func.id in names:
                module, name = names[func.id]
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
                continue
            calls.append((f"{path.name}:{node.lineno}:{node.col_offset}", module, name, len(args),
                          tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def test_surface_is_found():
    assert ("kernels", "halfwave_kernel_grid") in _layers() and ("lpbesov", "shell_project") in _layers()
    assert ("lpbesov", "besov_report") in _late_targets() and ("spectrum", "expand") in _late_targets()
    assert ("kernels", "spectral_kernel") in _references() and ("geometry", "make_point") in _references()
    called = {(module, name, n_args, keywords) for _, module, name, n_args, keywords in _calls()}
    assert ("lpbesov", "bernstein_ratio", 5, ("trials", "seed")) in called  # a late() call
    assert ("spectrum", "QuadratureSpec", 0, ("n_radial", "n_theta")) in called  # a module.name() call
    assert ("geometry", "make_point", 3, ()) in called  # an imported name


@pytest.mark.parametrize("module,name", sorted(set(_layers()) | set(_late_targets())))
def test_benchmark_target_is_callable(module, name):
    target = getattr(importlib.import_module(f"magcone.{module}"), name, None)
    assert callable(target), f"perfbench calls magcone.{module}.{name}, which is gone"


@pytest.mark.parametrize("module,name", _references())
def test_benchmark_reference_exists(module, name):
    assert hasattr(importlib.import_module(f"magcone.{module}"), name), \
        f"perfbench reads magcone.{module}.{name}, which is gone"


@pytest.mark.parametrize("where,module,name,n_args,keywords",
                         [pytest.param(*call, id=f"{call[0]}-{call[1]}.{call[2]}") for call in _calls()])
def test_benchmark_call_binds_to_signature(where, module, name, n_args, keywords):
    target = getattr(importlib.import_module(f"magcone.{module}"), name)
    try:
        inspect.signature(target).bind(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{where} calls magcone.{module}.{name} with {n_args} positional arguments "
                    f"and keywords {keywords}, which its signature no longer takes: {exc}")
