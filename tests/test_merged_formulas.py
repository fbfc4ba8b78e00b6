"""Formulas that once had two implementations, against verbatim oracles of the removed copies.

The oracles below are the earlier implementations kept word for word (module
prefixes added where they call into the package): the separate heat and
Schrodinger k-extension loops, each kernel representation's own pair
geometry (t b0, x and Q for heat; rho, theta and the prefactor for
Schrodinger), the product-grid heat tail and the heat
bracket grid that contracted it with one complex gemm, the spectrum
module's Laguerre rows and the old ``normalized_laguerre``, the per-mode
``spectral_kernel`` loop and ``lpbesov``'s point-kernel field, and the
Besov/square-function shell loops with the ``_lp_norm`` they called.  Heat
series, radial profiles, expansions, the square function and the Besov
quantities at p = 2 must agree bitwise.  At other p the Besov shells are
synthesized together in one ``fields_on_grid`` pass, a matrix product per
shell that regroups the rounding of the oracle's per-shell
``field_on_grid``: each shell norm must lie within the L^p norm of the
synthesis bound ``4 (K + M + 1) 2^-52 sum_{k,m} |c_{k,m}| |R_{k,m}(r)|``
(the ``norm_bound`` fixture), and the value within the l^q sum of those.
The Schrodinger series and the spectral kernel only regroup rounding, so
they must agree to 1e-14 of the scale of the summed terms: the series' peak
term, and the l1 sum of the spectral kernel's mode terms.  Relative to the
value itself the difference grows with cancellation (one Schrodinger point
in 180 reaches 1.03e-14; a heat-multiplier kernel at far-apart points that
cancels to 1e-3 of its terms reaches 2e-13).  The heat bracket grid's
separable tail and two real gemms regroup rounding too: 1e-12 per cell.
That separable tail is now heat_kernel_closed's as well: it is checked
against a 40-digit b(w, theta), and the closed form against the old complex
tail to 1e-14.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy import special as _sp

from magcone import kernels, lpbesov, spectrum
from magcone.errors import DomainError, NonconvergenceError
from magcone.geometry import ConePoint, make_point
from magcone.kernels import (
    _K_CAP,
    _rotated_bessel,
    heat_closed_bracket_grid,
    heat_kernel_closed,
    heat_kernel_series,
    schrodinger_kernel_series,
    spectral_kernel,
)
from magcone.lpbesov import besov_norm, besov_report, make_cutoff, shell_range, square_function_l2
from magcone.quadrature import evaluation_grid
from magcone.spectrum import (
    ModeWindow,
    QuadratureSpec,
    angular_order,
    eigenvalue_table,
    expand,
    field_on_grid,
    heat_multiplier,
    normalized_laguerre_rows,
    point_field,
    radial_profiles,
    random_field,
    schrodinger_multiplier,
)


# ---------------------------------------------------------------------------
# oracles: the removed implementations, verbatim
# ---------------------------------------------------------------------------

def oracle_heat_angular_series(cfg, tb: float, x: float, theta: float, k0: int):
    if x == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)

    def terms_for(ks: np.ndarray) -> np.ndarray:
        a = angular_order(cfg, ks)
        iv = _sp.ive(a, x)
        log_mag = np.where(iv > 0.0, np.log(np.where(iv > 0.0, iv, 1.0)) + x - (ks / cfg.sigma) * tb, -np.inf)
        return np.exp(log_mag + 1j * (ks / cfg.sigma) * theta)

    k_lo, k_hi = -k0, k0
    ks = np.arange(k_lo, k_hi + 1)
    terms = terms_for(ks)
    peak = float(np.abs(terms).max())
    total = terms.sum()

    block = 16
    while True:  # extend the negative side until its edge block is negligible
        edge = np.abs(terms_for(np.arange(k_lo, min(k_lo + 3, k_hi + 1)))).max()
        if edge <= 1e-14 * max(peak, 1e-300) or k_lo <= -_K_CAP:
            break
        new = terms_for(np.arange(k_lo - block, k_lo))
        total += new.sum()
        peak = max(peak, float(np.abs(new).max()))
        k_lo -= block
    while True:
        edge = np.abs(terms_for(np.arange(max(k_hi - 2, k_lo), k_hi + 1))).max()
        if edge <= 1e-14 * max(peak, 1e-300) or k_hi >= _K_CAP:
            break
        new = terms_for(np.arange(k_hi + 1, k_hi + block + 1))
        total += new.sum()
        peak = max(peak, float(np.abs(new).max()))
        k_hi += block
    if k_lo <= -_K_CAP or k_hi >= _K_CAP:
        raise NonconvergenceError("heat angular series failed to converge within the k cap")
    return total, peak, (k_lo, k_hi)


def oracle_schrodinger_angular_series(cfg, rho: float, theta: float, k0: int):
    if rho == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)
    k_lo, k_hi = -k0, k0
    ks = np.arange(k_lo, k_hi + 1)
    vals = _rotated_bessel(cfg, ks, rho)
    total = np.sum(np.exp(1j * (ks / cfg.sigma) * theta) * vals)
    peak = float(np.abs(vals).max())
    block = 16
    while True:
        edge = max(abs(_rotated_bessel(cfg, np.array([k_lo]), rho)[0]),
                   abs(_rotated_bessel(cfg, np.array([k_hi]), rho)[0]))
        if edge <= 1e-14 * max(peak, 1e-300) or k_hi >= _K_CAP:
            break
        new_lo = np.arange(k_lo - block, k_lo)
        new_hi = np.arange(k_hi + 1, k_hi + block + 1)
        for new in (new_lo, new_hi):
            vals = _rotated_bessel(cfg, new, rho)
            total += np.sum(np.exp(1j * (new / cfg.sigma) * theta) * vals)
            peak = max(peak, float(np.abs(vals).max()))
        k_lo -= block
        k_hi += block
    if k_hi >= _K_CAP:
        raise NonconvergenceError("Schrodinger angular series failed to converge within the k cap")
    return total, peak, (k_lo, k_hi)


def oracle_heat_tail_matrix(s_nodes, theta_vec, t, cfg):
    w = np.asarray(s_nodes, dtype=float)[None, :] - t * cfg.b0
    th = np.asarray(theta_vec, dtype=float)[:, None]
    sg, al = cfg.sigma, cfg.alpha
    plus = np.exp((w + 1j * (th + math.pi)) / sg)
    minus = np.exp((w + 1j * (th - math.pi)) / sg)
    return np.exp(al * w) * (
        cmath.exp(1j * al * math.pi) / (plus - 1.0) - cmath.exp(-1j * al * math.pi) / (minus - 1.0)
    )


def oracle_heat_angular_tail(s, theta, t, cfg):
    """The pointwise heat tail as it was: s cast to complex first."""
    w = np.asarray(s, dtype=complex) - t * cfg.b0
    sg, al = cfg.sigma, cfg.alpha
    plus = np.exp((w + 1j * (theta + math.pi)) / sg)
    minus = np.exp((w + 1j * (theta - math.pi)) / sg)
    return np.exp(al * w) * (
        cmath.exp(1j * al * math.pi) / (plus - 1.0) - cmath.exp(-1j * al * math.pi) / (minus - 1.0)
    )


def oracle_unit_laguerre_rows(a, m_max: int, u: np.ndarray) -> np.ndarray:
    polys = np.empty((m_max + 1,) + np.broadcast_shapes(np.shape(a), u.shape))  # a broadcasts against u
    polys[0] = 1.0
    if m_max >= 1:
        polys[1] = 1.0 - u / (1.0 + a)
    for n in range(1, m_max):
        polys[n + 1] = ((2 * n + 1 + a - u) * polys[n] - n * polys[n - 1]) / (n + 1 + a)
    return polys


def oracle_normalized_laguerre(alpha: float, m: int, x):
    if m < 0:
        raise DomainError(f"normalized_laguerre needs m >= 0, got {m}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - x / (1.0 + alpha)
    for n in range(1, m):
        prev, cur = cur, ((2 * n + 1 + alpha - x) * cur - n * prev) / (n + 1 + alpha)
    return cur if cur.ndim else float(cur)


def oracle_spectral_kernel(multiplier, p, q, cfg, window) -> complex:
    lam = eigenvalue_table(cfg, window)
    weights = np.asarray(multiplier(lam))
    total = 0.0 + 0.0j
    dtheta = p.theta - q.theta
    for ik, k in enumerate(window.k_values):
        rad_p = radial_profiles(cfg, int(k), window.m_max, np.array([p.r]))[:, 0]
        rad_q = radial_profiles(cfg, int(k), window.m_max, np.array([q.r]))[:, 0]
        total += np.sum(weights[ik] * rad_p * rad_q) * cmath.exp(1j * (k / cfg.sigma) * dtheta)
    return complex(total)


def oracle_point_kernel_field(cfg, window, r0: float, theta0: float):
    coeffs = np.empty(window.shape, dtype=complex)
    for ik, k in enumerate(window.k_values):
        rad = radial_profiles(cfg, int(k), window.m_max, np.array([r0]))[:, 0]
        coeffs[ik] = rad * np.exp(-1j * (k / cfg.sigma) * theta0)
    return spectrum.SpectralField(window, coeffs)


def oracle_lp_norm(field, p, cfg, grid) -> float:
    if p == 2.0:
        return field.coefficient_norm()
    values = field_on_grid(field, grid.r, grid.theta, cfg)
    return grid.lp_norm(values, p)


def oracle_besov_norm(field, s, p, q, cfg, grid=None) -> float:
    if q < 1.0 or p < 1.0:
        raise DomainError("besov_norm needs p, q >= 1")
    if grid is None and p != 2.0:
        grid = evaluation_grid(cfg)
    pieces = []
    for j in shell_range(cfg, field.window):
        piece = lpbesov.shell_project(field, j, cfg)
        norm_p = oracle_lp_norm(piece, p, cfg, grid) if p != 2.0 else piece.coefficient_norm()
        pieces.append((j, norm_p))
    if math.isinf(q):
        return max(2.0 ** (j * s) * n for j, n in pieces)
    return float(sum((2.0 ** (j * s) * n) ** q for j, n in pieces) ** (1.0 / q))


def oracle_besov_report(field, s, p, q, cfg, grid=None) -> dict:
    if grid is None and p != 2.0:
        grid = evaluation_grid(cfg)
    shells = []
    for j in shell_range(cfg, field.window):
        piece = lpbesov.shell_project(field, j, cfg)
        norm_p = oracle_lp_norm(piece, p, cfg, grid) if p != 2.0 else piece.coefficient_norm()
        shells.append({"j": j, "lp_norm": norm_p})
    value = oracle_besov_norm(field, s, p, q, cfg, grid=grid)
    return {
        "s": s,
        "p": p,
        "q": q,
        "window": {"k_max": field.window.k_max, "m_max": field.window.m_max},
        "value": value,
        "shells": shells,
    }


def oracle_square_function_l2(field, cfg) -> float:
    total = 0.0
    for j in shell_range(cfg, field.window):
        total += lpbesov.shell_project(field, j, cfg).coefficient_norm() ** 2
    return total


# ---------------------------------------------------------------------------
# seeded admissible points
# ---------------------------------------------------------------------------

def admissible_points(cfg, kind: str, n: int, seed: int):
    """(t, p, q) with radii in [0.2, 3], |sin t b0| >= 0.2 and angles off the image boundaries."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        tb = rng.uniform(math.asin(0.2), math.pi - math.asin(0.2))
        r1, r2 = rng.uniform(0.2, 3.0, 2)
        theta_q = rng.uniform(0.0, cfg.period)
        angle = rng.uniform(-0.5 * cfg.period, 0.5 * cfg.period)
        edges = np.array([-math.pi, math.pi])
        if np.abs(angle + cfg.period * np.round((edges - angle) / cfg.period) - edges).min() < 0.04:
            continue
        dtheta = angle if kind == "heat" else tb - angle
        out.append((tb / cfg.b0, make_point(cfg, r1, theta_q + dtheta), make_point(cfg, r2, theta_q)))
    return out


def _bits(z) -> bytes:
    return np.asarray(z).tobytes()


# ---------------------------------------------------------------------------
# one adaptive angular series
# ---------------------------------------------------------------------------

def test_heat_series_bitwise_equals_separate_loop(cfg, monkeypatch):
    points = admissible_points(cfg, "heat", 60, seed=11)
    new = [heat_kernel_series(t, p, q, cfg) for t, p, q in points]

    def old_loop(cfg, tb, x, theta, shift):
        assert shift == 0.0  # admissible points have t b0 < pi, where the series takes no shift
        return oracle_heat_angular_series(cfg, tb, x, theta, 40)

    monkeypatch.setattr(kernels, "_heat_angular_series", old_loop)
    old = [heat_kernel_series(t, p, q, cfg) for t, p, q in points]
    for a, b in zip(new, old):
        assert _bits(a.value) == _bits(b.value)
        assert _bits(a.largest_term) == _bits(b.largest_term)


def test_schrodinger_series_matches_separate_loop(cfg, monkeypatch):
    points = admissible_points(cfg, "schrodinger", 60, seed=12)
    new = [schrodinger_kernel_series(t, p, q, cfg) for t, p, q in points]
    monkeypatch.setattr(kernels, "_schrodinger_angular_series",
                        lambda cfg, rho, theta: oracle_schrodinger_angular_series(cfg, rho, theta, 40))
    old = [schrodinger_kernel_series(t, p, q, cfg) for t, p, q in points]
    for a, b in zip(new, old):
        assert abs(a.value - b.value) <= 1e-14 * b.largest_term
        assert abs(a.largest_term - b.largest_term) <= 1e-14 * b.largest_term


def test_reduced_kernel_matches_separate_loop(cfg):
    for rho in (0.3, 2.0, 11.0, 40.0):
        for delta in (-2.0, 0.0, 0.7, 3.1):
            new = kernels.reduced_kernel(rho, delta, cfg)
            old, _, _ = oracle_schrodinger_angular_series(cfg, rho, delta, 40)
            assert abs(new - old) <= 1e-14 * max(abs(old), 1.0)


def test_angular_series_reuses_edge_terms(cfg, monkeypatch):
    """Each block is evaluated once: the edge test reads terms already computed."""
    monkeypatch.setattr(kernels, "_K_START", 4)
    calls = []

    def terms_for(ks):
        calls.append((int(ks[0]), int(ks[-1])))
        return _rotated_bessel(cfg, ks, 30.0).astype(complex)

    _, _, (k_lo, k_hi) = kernels._angular_series(terms_for, "test")
    assert calls[0] == (-4, 4)
    assert len(calls) == 1 + (-4 - k_lo) // 16 + (k_hi - 4) // 16
    assert len(set(calls)) == len(calls)


def test_angular_series_stops_on_three_edge_terms(monkeypatch):
    # every third term vanishes, so one edge term alone can look converged long before the series is
    monkeypatch.setattr(kernels, "_K_START", 4)

    def terms_for(ks):
        return np.where(ks % 3 == 0, 0.0, np.exp(-0.05 * np.abs(ks))).astype(complex)

    total, peak, (k_lo, k_hi) = kernels._angular_series(terms_for, "test")
    assert peak == math.exp(-0.05)
    for edge in (np.arange(k_lo, k_lo + 3), np.arange(k_hi - 2, k_hi + 1)):
        assert np.abs(terms_for(edge)).max() <= 1e-14 * peak
    for edge in (np.arange(k_lo + 16, k_lo + 19), np.arange(k_hi - 18, k_hi - 15)):
        assert np.abs(terms_for(edge)).max() > 1e-14 * peak
    assert total == pytest.approx(terms_for(np.arange(k_lo, k_hi + 1)).sum(), rel=1e-14)


def test_angular_series_cap_names_the_series():
    with pytest.raises(NonconvergenceError, match="heat angular series"):
        kernels._angular_series(lambda ks: np.ones(ks.size, dtype=complex), "heat")


# ---------------------------------------------------------------------------
# one heat tail
# ---------------------------------------------------------------------------

def oracle_heat_closed_bracket_grid(x_vec, theta_vec, t, cfg):
    """heat_closed_bracket_grid as it read with the heat_angular_tail matrix and one complex gemm (verbatim).

    The tail matrix is oracle_heat_tail_matrix, which that body matched bitwise.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    theta_vec = np.asarray(theta_vec, dtype=float)
    tb = t * cfg.b0
    x_min = float(x_vec.min())
    if x_min <= 0.0:
        raise DomainError("heat_closed_bracket_grid needs strictly positive x")
    s_lo, s_hi = kernels._heat_tail_range(x_min, tb, cfg)
    edges = np.unique(np.concatenate([
        np.linspace(-1.5, 1.5, 61),
        np.linspace(tb - 0.8, tb + 0.8, 81),
        np.linspace(s_lo, s_hi, 97),
    ]))
    gl_x, gl_w = kernels.gauss_legendre_rule(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * gl_x[None, :]).ravel()
    weights = (halfs[:, None] * gl_w[None, :]).ravel()

    tail = oracle_heat_tail_matrix(nodes, theta_vec, t, cfg) * weights[None, :]
    envelope = np.exp(-np.outer(np.cosh(nodes), x_vec))
    integral = tail @ envelope  # (n_theta, n_x)

    out = integral / (2j * math.pi * cfg.sigma)
    for i_th, th in enumerate(theta_vec):
        for tj in kernels.image_angles(float(th), cfg):
            out[i_th] += np.exp(x_vec * cmath.cosh(complex(tb, -tj)) - 1j * cfg.alpha * tj)
    return out


HEAT_GRID_REL = 1e-12  # per cell; 1.7e-14 seen on this grid, 2.6e-13 on the gaussian-heat sweep's 27 grids
# (at a cell that cancels 190-fold, where both lie within 1.8e-13 of heat_kernel_closed)


def test_heat_bracket_grid_matches_tail_matrix_oracle(cfg):
    # the angle grids reach within 0.05 of the cell edges, where the tail nears its pole
    x_vec = np.geomspace(0.05, 12.0, 9)
    theta_vec = np.linspace(-0.5 * cfg.period + 0.05, 0.5 * cfg.period - 0.05, 11)
    for t in (0.2, 0.9, 2.5):
        new = heat_closed_bracket_grid(x_vec, theta_vec, t, cfg)
        old = oracle_heat_closed_bracket_grid(x_vec, theta_vec, t, cfg)
        assert np.all(np.abs(new - old) <= HEAT_GRID_REL * np.abs(old))


def test_both_heat_closed_forms_take_the_one_tail_and_the_one_image_sum(cfg, monkeypatch):
    t, p, q = admissible_points(cfg, "heat", 1, seed=5)[0]
    x_vec, theta_vec = np.array([0.3, 1.1, 4.0]), np.array([0.4, -1.0])
    forms = {"pointwise": lambda: heat_kernel_closed(t, p, q, cfg).value,
             "grid": lambda: heat_closed_bracket_grid(x_vec, theta_vec, t, cfg)}
    before = {name: form() for name, form in forms.items()}
    calls = {"heat_angular_tail": [], "_heat_images": []}
    for name in calls:
        def spy(*args, _name=name, _helper=getattr(kernels, name)):
            calls[_name].append(args)
            return _helper(*args)

        monkeypatch.setattr(kernels, name, spy)
    for name, form in forms.items():
        for made in calls.values():
            made.clear()
        after = form()
        assert all(calls.values()), name
        assert _bits(after) == _bits(before[name]), name


def oracle_pair_geometry(kind, t, p, q, cfg):
    """(t b0, x, Q) or (rho, theta, prefactor) as each representation computed them for itself (verbatim)."""
    if kind == "heat":
        tb = t * cfg.b0
        x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(tb))
        big_q = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(tb))
        return tb, x, big_q
    sin_tb = math.sin(t * cfg.b0)
    rho = cfg.b0 * p.r * q.r / (2.0 * sin_tb)
    theta = t * cfg.b0 - (p.theta - q.theta)
    tb = t * cfg.b0
    pref = (
        1j * cfg.b0 * cmath.exp(1j * tb * cfg.alpha) / (8.0 * math.pi * cfg.sigma * sin_tb)
        * cmath.exp(cfg.b0 * (p.r ** 2 + q.r ** 2) / (4j * math.tan(tb)))
    )
    return rho, theta, pref


@pytest.mark.parametrize("kind", ["heat", "schrodinger"])
@pytest.mark.parametrize("representation", ["series", "closed"])
def test_each_representation_takes_its_pair_geometry_from_its_kind_helper(cfg, monkeypatch, kind, representation):
    """One call of _heat_time or _schrodinger_time per kernel value, giving the old per-representation numbers."""
    kernel = getattr(kernels, f"{kind}_kernel_{representation}")
    name = "_heat_time" if kind == "heat" else "_schrodinger_time"
    helper, calls = getattr(kernels, name), []

    def spy(*args):
        calls.append(args)
        return helper(*args)

    monkeypatch.setattr(kernels, name, spy)
    for t, p, q in admissible_points(cfg, kind, 20, seed=9):
        calls.clear()
        kernel(t, p, q, cfg)
        assert calls == [(t, p, q, cfg)]
        assert _bits(helper(t, p, q, cfg)) == _bits(oracle_pair_geometry(kind, t, p, q, cfg))


def oracle_closed_form_range(x, tb, cfg):
    """heat_kernel_closed's range as it read with its default floor of 30 (verbatim otherwise)."""
    s_reach = math.acosh(1.0 + 50.0 / x) + 6.0
    rate_left = cfg.alpha
    rate_right = 1.0 / cfg.sigma - cfg.alpha
    s_lo = tb - min(max(30.0, 45.0 / rate_left), s_reach + abs(tb))
    s_hi = tb + min(max(30.0, 45.0 / rate_right), s_reach + abs(tb))
    return s_lo, s_hi


def oracle_bracket_grid_range(x_min, tb, cfg):
    """heat_closed_bracket_grid's range as it read before the helper (verbatim)."""
    s_reach = math.acosh(1.0 + 50.0 / x_min) + 6.0 + abs(tb)
    rate_left, rate_right = cfg.alpha, 1.0 / cfg.sigma - cfg.alpha
    s_lo = tb - min(45.0 / rate_left, s_reach)
    s_hi = tb + min(45.0 / rate_right, s_reach)
    return s_lo, s_hi


def test_heat_tail_range_bitwise_equals_both_old_ranges(cfg):
    for tb in (1e-3, 0.2, 0.9, 2.5, 60.0, 700.0):
        for x in np.geomspace(1e-300, 1e6, 61).tolist():
            new = kernels._heat_tail_range(x, tb, cfg)
            assert new == oracle_closed_form_range(x, tb, cfg) == oracle_bracket_grid_range(x, tb, cfg)


def mp_heat_tail(s: float, theta: float, t: float, cfg) -> complex:
    """b(s - t b0, theta) in 40-digit arithmetic, from the exact s and t."""
    with mpmath.workdps(40):
        sg, al = mpmath.mpf(cfg.sigma), mpmath.mpf(cfg.alpha)
        w, th = mpmath.mpf(s) - mpmath.mpf(t) * cfg.b0, mpmath.mpf(theta)
        plus = mpmath.exp(1j * al * mpmath.pi) / (mpmath.exp((w + 1j * (th + mpmath.pi)) / sg) - 1)
        minus = mpmath.exp(-1j * al * mpmath.pi) / (mpmath.exp((w + 1j * (th - mpmath.pi)) / sg) - 1)
        return complex(mpmath.exp(al * w) * (plus - minus))


TAIL_ROUNDINGS = 17  # eps kappa |b| each; measured up to 10.6 (sigma = 1.5), 4.3 and 6.5 at sigma = 1 and 2


def test_heat_angular_tail_matches_mpmath(cfg):
    """The one tail within 17 eps kappa |b| of b, kappa = max_+- (1 + e^{w/sigma}) / |e^{w/sigma} - conj(u_+-)|.

    kappa bounds how much the denominators e^{w/sigma} - conj(u), u_+- = e^{i(theta +- pi)/sigma},
    amplify a rounding of either of their terms; a handful of roundings each remain.
    """
    s, t, thetas = np.linspace(-30.0, 30.0, 401), 0.8, np.array([-2.0, 0.0, 0.4, 2.9])
    got = kernels.heat_angular_tail(s, np.ones_like(s), thetas, t, cfg)
    grow = np.exp((s - t * cfg.b0) / cfg.sigma)
    for row, theta in zip(got, thetas):
        exact = np.array([mp_heat_tail(node, theta, t, cfg) for node in s])
        kappa = np.maximum(*[(1.0 + grow) / np.abs(grow - cmath.exp(-1j * (theta + shift) / cfg.sigma))
                             for shift in (math.pi, -math.pi)])
        assert np.all(np.abs(row - exact) <= TAIL_ROUNDINGS * np.finfo(float).eps * kappa * np.abs(exact))


def test_heat_closed_matches_complex_tail(cfg, monkeypatch):
    points = admissible_points(cfg, "heat", 8, seed=13)
    new = [heat_kernel_closed(t, p, q, cfg).value for t, p, q in points]
    monkeypatch.setattr(kernels, "heat_angular_tail",
                        lambda s, factor, theta, t, cfg: factor * oracle_heat_angular_tail(s, theta, t, cfg))
    old = [heat_kernel_closed(t, p, q, cfg).value for t, p, q in points]
    for a, b in zip(new, old):
        assert abs(a - b) <= 1e-14 * abs(b)


# ---------------------------------------------------------------------------
# one normalized-Laguerre recurrence
# ---------------------------------------------------------------------------

def test_laguerre_rows_bitwise_equal_oracles():
    u = np.linspace(0.0, 60.0, 97)
    for a in (0.0, 0.25, 1.4, 7.3):
        for m_max in (0, 1, 2, 30):
            rows = normalized_laguerre_rows(a, m_max, u)
            assert _bits(rows) == _bits(oracle_unit_laguerre_rows(a, m_max, u))
            for m in (0, m_max // 2, m_max):
                assert _bits(rows[m]) == _bits(oracle_normalized_laguerre(a, m, u))
                scalar = normalized_laguerre_rows(a, m, 3.7)[m]
                assert isinstance(scalar, float)
                assert scalar == oracle_normalized_laguerre(a, m, 3.7)


def test_radial_profiles_and_expand_bitwise_equal_oracle(cfg, monkeypatch):
    window = ModeWindow(6, 7)
    quad = QuadratureSpec(n_radial=24, n_theta=48)
    planted = random_field(window, np.random.default_rng(3))
    r = np.linspace(0.0, 4.0, 23)
    f = lambda rr, tt: field_on_grid(planted, np.ravel(rr), np.ravel(tt), cfg)

    def run():
        profiles = [radial_profiles(cfg, k, 9, r) for k in (-3, 0, 2)]
        return profiles, expand(f, window, cfg, quad).coeffs

    new_profiles, new_coeffs = run()
    monkeypatch.setattr(spectrum, "normalized_laguerre_rows", oracle_unit_laguerre_rows)
    old_profiles, old_coeffs = run()
    for a, b in zip(new_profiles, old_profiles):
        assert _bits(a) == _bits(b)
    assert _bits(new_coeffs) == _bits(old_coeffs)


# ---------------------------------------------------------------------------
# one point-kernel field
# ---------------------------------------------------------------------------

def test_point_field_bitwise_equals_oracle(cfg):
    window = ModeWindow(7, 6)
    for r0, theta0 in ((0.35, 0.0), (1.7, 0.0), (0.9, 2.2)):
        new = point_field(ConePoint(r0, theta0), cfg, window)
        assert _bits(new.coeffs) == _bits(oracle_point_kernel_field(cfg, window, r0, theta0).coeffs)


def test_spectral_kernel_matches_mode_loop(cfg):
    window = ModeWindow(10, 10)
    cutoff = make_cutoff()
    mults = [heat_multiplier(0.4), schrodinger_multiplier(1.3),
             lambda lam: cutoff(np.sqrt(lam) / 2.0) * np.exp(0.7j * np.sqrt(lam))]
    for t, p, q in admissible_points(cfg, "heat", 4, seed=14):
        for mult in mults:
            new = spectral_kernel(mult, p, q, cfg, window)
            old = oracle_spectral_kernel(mult, p, q, cfg, window)
            weights = np.asarray(mult(eigenvalue_table(cfg, window)))
            l1 = sum(float(np.abs(weights[ik] * radial_profiles(cfg, int(k), window.m_max, [p.r])[:, 0]
                                  * radial_profiles(cfg, int(k), window.m_max, [q.r])[:, 0]).sum())
                     for ik, k in enumerate(window.k_values))
            assert abs(new - old) <= 1e-14 * l1


# ---------------------------------------------------------------------------
# one Besov shell loop
# ---------------------------------------------------------------------------

def _count_shell_weightings(monkeypatch) -> list:
    """Record each j a shell weighting is formed for; shell_project forms one, a Besov call one per shell."""
    calls = []
    original = lpbesov._shell_weights

    def counted(shells, *args):
        calls.extend(shells)
        return original(shells, *args)

    monkeypatch.setattr(lpbesov, "_shell_weights", counted)
    return calls


@pytest.mark.parametrize("s,p,q", [(0.5, 4.0, 2.0), (0.0, 2.0, 2.0), (-0.3, 2.0, math.inf), (1.0, math.inf, 1.0)])
def test_besov_matches_oracle_with_half_the_shells(cfg, monkeypatch, norm_bound, s, p, q):
    field = random_field(ModeWindow(8, 8), np.random.default_rng(4))
    calls = _count_shell_weightings(monkeypatch)
    report = besov_report(field, s, p, q, cfg)
    n_shells = len(shell_range(cfg, field.window))
    assert len(calls) == n_shells
    del calls[:]
    old = oracle_besov_report(field, s, p, q, cfg)
    assert len(calls) == 2 * n_shells
    # p = 2 comes from coefficients, bitwise; other p synthesize every shell in one fields_on_grid
    # pass against the oracle's field_on_grid per shell, so each norm moves within its bound
    grid = evaluation_grid(cfg)
    slack = [0.0 if p == 2.0 else norm_bound(lpbesov.shell_project(field, sh["j"], cfg), p, cfg, grid)
             for sh in old["shells"]]
    assert {**report, "value": None, "shells": None} == {**old, "value": None, "shells": None}
    assert [sh["j"] for sh in report["shells"]] == [sh["j"] for sh in old["shells"]]
    for new_sh, old_sh, d in zip(report["shells"], old["shells"], slack):
        assert abs(new_sh["lp_norm"] - old_sh["lp_norm"]) <= d, (new_sh, old_sh, d)
    weighted = [2.0 ** (sh["j"] * s) * d for sh, d in zip(old["shells"], slack)]
    value_slack = max(weighted) if math.isinf(q) else float(sum(w ** q for w in weighted) ** (1.0 / q))
    assert abs(report["value"] - old["value"]) <= value_slack
    assert report["value"] == besov_norm(field, s, p, q, cfg)
    assert abs(besov_norm(field, s, p, q, cfg) - oracle_besov_norm(field, s, p, q, cfg)) <= value_slack


def test_besov_rejects_exponents_below_one(cfg):
    field = random_field(ModeWindow(4, 4), np.random.default_rng(5))
    for fn in (besov_norm, besov_report):
        with pytest.raises(DomainError):
            fn(field, 0.0, 2.0, 0.5, cfg)
        with pytest.raises(DomainError):
            fn(field, 0.0, 0.5, 2.0, cfg)


def test_square_function_bitwise_equals_oracle(cfg):
    for seed in range(3):
        field = random_field(ModeWindow(9, 7), np.random.default_rng(seed))
        assert _bits(square_function_l2(field, cfg)) == _bits(oracle_square_function_l2(field, cfg))
