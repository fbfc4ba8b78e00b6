"""Quadrature engines shared by the spectral and kernel modules.

Composite/adaptive Gauss-Legendre panels for complex-valued integrands, the
generalized Gauss-Laguerre radial rules used for eigenfunction inner
products, and the fixed "published" grid behind every L^p evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import NonconvergenceError, QuadratureError
from .geometry import ConeConfig

_ORDER = 16  # Gauss-Legendre nodes per adaptive panel
_DEPTH = 28  # bisections before adaptive_panel gives up on a panel
_WALK_PANELS = 320  # top-level panels adaptive_panel bisects together, which bounds the nodes alive at once
_WALK_NODES = 1 << 20  # most nodes of one integrand call; a converging sweep walk needs at most 15,360
_N_RADIAL = 80  # radial nodes of the evaluation grid


@lru_cache(maxsize=64)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def adaptive_panel(f, a, b, tol) -> np.ndarray | complex:
    """Adaptive bisection of the panels [a, b]: one value per panel (a scalar for scalar ends).

    A panel is accepted when halving changes it by < tol (per panel,
    halved with each bisection) or by less than its own rounding floor, a
    small multiple of its L1 mass, so integrands dominated by cancellation
    noise cannot recurse forever.  A panel still above both after
    _DEPTH bisections raises NonconvergenceError naming the leftmost
    such panel, and so does a level whose split panels would need more than
    _WALK_NODES nodes in one integrand call, naming the leftmost of them.

    f is called as f(s, panel): s holds Gauss-Legendre nodes and panel, an
    int array shaped like s, the index in the flattened a and b of the
    top-level panel each node comes from, so one call can serve integrands
    that differ from panel to panel.  f must be elementwise in s (an
    integrand that is the same on every panel ignores panel).  The top-level
    panels are walked in groups of at most _WALK_PANELS, each group's tree
    breadth first: f is called once per level on the nodes of every live
    panel of the group, the first time on each panel and its two halves
    (3 * _ORDER nodes a panel), then on the two halves of each split panel
    (2 * _ORDER nodes), whose value and L1 mass each half inherits from its
    parent.  A panel's value depends on its own nodes only, so neither the
    grouping nor the other panels change it; values are summed bottom-up in
    the order of a depth-first recursion.
    """
    a, b, tol = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                    np.asarray(tol, dtype=float))
    shape = a.shape
    a, b, tol = a.ravel(), b.ravel(), tol.ravel()
    groups = [_walk(f, a[lo:lo + _WALK_PANELS], b[lo:lo + _WALK_PANELS], tol[lo:lo + _WALK_PANELS], lo)
              for lo in range(0, a.size, _WALK_PANELS)]
    return np.concatenate(groups).reshape(shape)[()]


def _walk(f, a, b, tol, first: int) -> np.ndarray:
    """adaptive_panel on one group of top-level panels, the first of which has index `first`."""
    x, w = gauss_legendre_rule(_ORDER)

    def halves(a, b):
        mid = 0.5 * (a + b)
        h_l, h_r = 0.5 * (mid - a), 0.5 * (b - mid)
        nodes = ((0.5 * (a + mid))[:, None] + h_l[:, None] * x, (0.5 * (mid + b))[:, None] + h_r[:, None] * x)
        return mid, h_l, h_r, nodes

    owner = np.arange(first, first + a.size)  # top-level panel of each live panel
    mid, h_l, h_r, nodes = halves(a, b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(np.concatenate((mid[:, None] + half[:, None] * x, *nodes), axis=1).ravel(),
                        np.repeat(owner, 3 * _ORDER)))
    vals = vals.reshape(a.size, 3 * _ORDER)
    top, vals = vals[:, :_ORDER], vals[:, _ORDER:]
    coarse = half * np.sum(w * top, axis=1)
    l1 = np.abs(half) * np.sum(w * np.abs(top), axis=1)
    levels = []  # (fine, split) per level
    while True:
        vals_l, vals_r = vals[:, :_ORDER], vals[:, _ORDER:]
        left = h_l * np.sum(w * vals_l, axis=1)
        right = h_r * np.sum(w * vals_r, axis=1)
        fine = left + right
        change = fine - coarse
        change = np.hypot(change.real, change.imag)  # scalar abs(); np.abs rounds complex differently
        floor = np.maximum(tol, 1e-15 * l1)
        split = ~(change <= floor)
        levels.append((fine, split))
        if not split.any():
            break
        if len(levels) > _DEPTH:
            i = int(np.argmax(split))
            raise NonconvergenceError(
                f"adaptive_panel: [{float(a[i])!r}, {float(b[i])!r}] still changes by {change[i]:.3g} "
                f"> tol {floor[i]:.3g} at the bisection depth limit")
        n_split = int(split.sum())
        if 4 * _ORDER * n_split > _WALK_NODES:
            i = int(np.argmax(split))
            raise NonconvergenceError(
                f"adaptive_panel: {n_split} panels, the leftmost [{float(a[i])!r}, {float(b[i])!r}], still change "
                f"by more than tol at level {len(levels)}; halving them needs more than {_WALK_NODES} nodes")
        l1_l = np.abs(h_l[split]) * np.sum(w * np.abs(vals_l[split]), axis=1)
        l1_r = np.abs(h_r[split]) * np.sum(w * np.abs(vals_r[split]), axis=1)
        # children in left-to-right order: [a, mid], [mid, b] of each split panel
        a, b = np.column_stack((a[split], mid[split])).ravel(), np.column_stack((mid[split], b[split])).ravel()
        coarse = np.column_stack((left[split], right[split])).ravel()
        l1 = np.column_stack((l1_l, l1_r)).ravel()
        tol = np.repeat(0.5 * tol[split], 2)
        owner = np.repeat(owner[split], 2)
        mid, h_l, h_r, nodes = halves(a, b)
        vals = np.asarray(f(np.concatenate(nodes, axis=1).ravel(), np.repeat(owner, 2 * _ORDER)))
        vals = vals.reshape(a.size, 2 * _ORDER)

    value = levels[-1][0]
    for fine, split in reversed(levels[:-1]):
        children, value = value, fine.copy()
        value[split] = children[0::2] + children[1::2]
    return value


def oscillatory_bessel_tail(f_analytic, rho: float, decay_rate: float, tol: float) -> complex:
    """Integrate f(s) = e^{-i rho cosh s} g(s) over [0, inf) for decaying analytic g.

    g (hence f_analytic) must be analytic in Re s > 0 with |g| <= C e^{-decay_rate s}.
    The path is deformed: a short real segment [0, s0] (bounded oscillation),
    a vertical drop to Im s = -pi/2, then the horizontal line where
    -i rho cosh s is pure decay.  f_analytic(s) takes complex s.  The three
    legs are one adaptive_panel call, each leg's panels mapping their real
    parameter onto the path.
    """
    rho = float(rho)
    if rho < 0.0:
        # e^{+i rho cosh s}: conjugate path; handled by conjugating the whole problem
        raise QuadratureError("oscillatory_bessel_tail expects rho >= 0")
    s0 = min(max(0.5, math.acosh(1.0 + 20.0 * math.pi / max(rho, 1e-12))), 6.0)

    # real segment s = u, apportioned so each panel spans O(2 pi) of phase
    n_a = max(4, int(math.ceil(rho * (math.cosh(s0) - 1.0) / (2.0 * math.pi))) + 4)
    # vertical drop s = s0 - i v, v in [0, pi/2]
    n_b = max(4, int(math.ceil(rho * math.cosh(s0) / (2.0 * math.pi))) + 4)
    # horizontal line s = a - i pi/2: |e^{-i rho cosh s}| = e^{-rho sinh a}.
    # Panels grow geometrically: with tiny decay_rate (flux near an endpoint)
    # and tiny rho the tail is long but log-scale smooth.
    ends = [s0]
    width = 2.0
    while True:
        a = ends[-1] + width
        ends.append(a)
        envelope = math.exp(-rho * math.sinh(min(a, 700.0))) * math.exp(-decay_rate * min(a, 1e120))
        if envelope < tol or a > 1e120:
            break
        width = min(1.5 * width, 0.5 * a + 2.0)

    seg, drop = np.linspace(0.0, s0, n_a + 1), np.linspace(0.0, 0.5 * math.pi, n_b + 1)
    lo = np.concatenate((seg[:-1], drop[:-1], ends[:-1]))
    hi = np.concatenate((seg[1:], drop[1:], ends[1:]))
    tols = np.concatenate((np.full(n_a, tol / n_a), np.full(n_b, tol / n_b), np.full(len(ends) - 1, tol)))

    def f_path(x, panel):
        on_drop = (panel >= n_a) & (panel < n_a + n_b)
        on_line = panel >= n_a + n_b
        s = x.astype(complex)
        s[on_drop] = s0 - 1j * x[on_drop]
        s[on_line] = x[on_line] - 0.5j * math.pi
        out = np.asarray(f_analytic(s))
        out[on_drop] = out[on_drop] * (-1j)
        return out

    values = adaptive_panel(f_path, lo, hi, tols)
    seg_total = drop_total = 0.0 + 0.0j  # each leg summed from zero, then the line panel by panel
    for value in values[:n_a]:
        seg_total += value
    for value in values[n_a:n_a + n_b]:
        drop_total += value
    total = seg_total + drop_total
    for value in values[n_a + n_b:]:
        total += value
    return total


@lru_cache(maxsize=4096)
def genlaguerre_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight u^alpha e^{-u} on (0, inf)."""
    x, w = _sp.roots_genlaguerre(n, alpha)
    return x, w


@lru_cache(maxsize=64)
def laguerre_flat_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss-Laguerre nodes with the e^{-u} weight divided back out.

    Returns (u, omega) with  int_0^inf h(u) du ~= sum omega_i h(u_i)  for
    decaying h; omega = w * e^{u} assembled in log space to dodge overflow.
    Weights that underflowed to zero (very large n) keep zero flat weight.
    """
    u, w = _sp.roots_laguerre(n)
    with np.errstate(divide="ignore"):
        omega = np.where(w > 0.0, np.exp(np.log(np.where(w > 0.0, w, 1.0)) + u), 0.0)
    return u, omega


@dataclass(frozen=True)
class EvaluationGrid:
    """Fixed product grid on the cone used for every L^p quadrature norm.

    r:        radial nodes (from plain Gauss-Laguerre in u = b0 r^2 / 2)
    r_weight: weights w_i with  int g r dr ~= sum w_i g(r_i)
    theta:    uniform angular nodes on [0, 2 pi sigma)
    d_theta:  angular weight (uniform)
    """

    r: np.ndarray
    r_weight: np.ndarray
    theta: np.ndarray
    d_theta: float

    def lp_norm(self, values: np.ndarray, p: float) -> float:
        """L^p(X) norm of values sampled as values[i_r, j_theta]."""
        mags = np.abs(values)
        if math.isinf(p):
            return float(mags.max())
        wp = (mags ** p) * self.r_weight[:, None]
        return float((wp.sum() * self.d_theta) ** (1.0 / p))


def evaluation_grid(cfg: ConeConfig, n_theta: int = 128) -> EvaluationGrid:
    u, omega = laguerre_flat_rule(_N_RADIAL)
    r = np.sqrt(2.0 * u / cfg.b0)
    # measure r dr = du / b0
    r_weight = omega / cfg.b0
    theta = np.arange(n_theta) * (cfg.period / n_theta)
    return EvaluationGrid(r=r, r_weight=r_weight, theta=theta, d_theta=cfg.period / n_theta)
