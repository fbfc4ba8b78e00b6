"""One k-range rule: every angular series is truncated by kernels._angular_series.

The heat and Schrodinger series, reduced_kernel and reduced_kernel_matrix
all take their orders from _angular_series: the matrix runs it on the
Bessel terms at its grid's largest rho and builds its Bessel rows for
exactly that (k_lo, k_hi).  The last test keeps a second rule from coming
back: _K_START and _K_CAP are read only by _angular_series and by the
half-wave shell's own walk (_shell_blocks), and no loop in the package
doubles a k bound.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from magcone import kernels
from magcone.errors import NonconvergenceError
from magcone.geometry import ConeConfig
from magcone.spectrum import angular_order


def _picked_range(cfg, rho_max):
    """The (k_lo, k_hi) _angular_series picks for the Bessel terms at rho_max."""
    return kernels._angular_series(lambda ks: kernels._rotated_bessel(cfg, ks, rho_max), "spy")[2]


@pytest.mark.parametrize("rho_max", [0.0, 12.5, 25.0, 200.0])
def test_the_matrix_builds_the_orders_the_pointwise_series_picks_at_its_largest_rho(cfg, monkeypatch, rho_max):
    built = []
    original = kernels._bessel_j_rows

    def spy(a, rho):
        built.append(a.copy())
        return original(a, rho)

    monkeypatch.setattr(kernels, "_bessel_j_rows", spy)
    rho = np.linspace(0.0, rho_max, 301)
    kernels.reduced_kernel_matrix(rho, np.array([-2.2, 0.4, 3.0]), cfg)
    k_lo, k_hi = _picked_range(cfg, rho_max)
    assert built and all(np.array_equal(a, angular_order(cfg, np.arange(k_lo, k_hi + 1))) for a in built)
    if rho_max > 0.0:  # the range reduced_kernel sums at that rho, whatever the angle
        for delta in (-2.2, 0.4, 3.0):
            assert kernels._schrodinger_angular_series(cfg, rho_max, delta)[2] == (k_lo, k_hi)


@pytest.mark.parametrize("rho", [0.0, 0.5, 12.5, 25.0, 200.0])
def test_the_matrix_on_one_radius_matches_reduced_kernel(cfg, rho):
    """Within 1e-13 of max(1, |K|), the ladder's bound on the scale of the sum.

    The two sum the same orders, so they differ by the Bessel values
    (ladder against scipy's jv) and rounding.  Measured over 401 delta in
    [-2 pi, 2 pi]: at most 1.7e-14 up to rho = 25, and at rho = 200 up to
    1.23e-13 absolute (sigma = 1.5, delta = -2.709, |K| = 1.40), where a
    40-digit sum puts reduced_kernel 1.15e-13 off and the matrix 2.0e-14.
    """
    delta = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 41)
    mat = kernels.reduced_kernel_matrix(np.array([rho]), delta, cfg)[:, 0]
    for got, d in zip(mat, delta):
        want = kernels.reduced_kernel(rho, float(d), cfg)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (rho, d, got, want)


def test_a_matrix_range_at_the_cap_refuses_naming_the_reduced_kernel(monkeypatch):
    cfg = ConeConfig(2.0, 0.5, 0.3)
    monkeypatch.setattr(kernels, "_K_CAP", 64)  # rho = 200 needs |k| up to 536 at sigma = 2
    with pytest.raises(NonconvergenceError, match="^reduced kernel angular series failed to converge"):
        kernels.reduced_kernel_matrix(np.linspace(0.0, 200.0, 5), np.array([0.4]), cfg)
    assert kernels.reduced_kernel_matrix(np.linspace(0.0, 0.5, 5), np.array([0.4]), cfg).shape == (1, 5)


_OWNERS = {"_angular_series", "_shell_blocks"}
_K_NAME = re.compile(r"(^|_)k($|_)")


def _functions(tree):
    """(enclosing top-level function name or None, node) for every node of the module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield owner, node


def _grows(target, value) -> bool:
    """target = value multiplies or shifts the target name by something."""
    return (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Mult, ast.LShift))
            and any(isinstance(side, ast.Name) and side.id == target for side in (value.left, value.right)))


def _k_doublings(loop):
    """k-bound names a loop multiplies or shifts up."""
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Mult, ast.LShift)):
            if isinstance(node.target, ast.Name) and _K_NAME.search(node.target.id):
                yield node.target.id
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for t, v in pairs:
                    if isinstance(t, ast.Name) and _K_NAME.search(t.id) and _grows(t.id, v):
                        yield t.id


def test_one_function_holds_the_k_range_rule():
    src = Path(kernels.__file__).resolve().parent
    readers, doublings, messages = [], [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, node in _functions(tree):
            if isinstance(node, ast.Name) and node.id in ("_K_START", "_K_CAP") and isinstance(node.ctx, ast.Load):
                readers.append((path.name, owner, node.id))
            if isinstance(node, (ast.For, ast.While)):
                doublings += [(path.name, owner, name) for name in _k_doublings(node)]
            if isinstance(node, ast.Raise):
                text = " ".join(c.value for c in ast.walk(node) if isinstance(c, ast.Constant)
                                and isinstance(c.value, str))
                if re.search(r"\bk (cap|range)\b", text):
                    messages.append((path.name, owner))
    assert readers and {(name, owner) for name, owner, _ in readers} <= {("kernels.py", f) for f in _OWNERS}
    assert {(owner, ident) for _, owner, ident in readers if owner == "_angular_series"} == {
        ("_angular_series", "_K_START"), ("_angular_series", "_K_CAP")}
    assert doublings == []
    assert messages == [("kernels.py", "_angular_series")]
