import math

import numpy as np
import pytest
from scipy import special as sp

from magcone.errors import DomainError, QuadratureError
from magcone.geometry import ConeConfig, make_point
from magcone.quadrature import genlaguerre_rule
from magcone.spectrum import (
    ModeWindow,
    QuadratureSpec,
    SpectralField,
    angular_order,
    eigenvalue,
    eigenvalue_table,
    expand,
    field_on_grid,
    heat_multiplier,
    load_field,
    log_norm_sq,
    normalized_laguerre_rows,
    radial_profiles,
    random_field,
    save_field,
    schrodinger_multiplier,
    spectral_apply,
)


def vectorized_eigenfunction(cfg, k, m):
    def f(r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        rr, tt = np.broadcast_arrays(r, theta)
        rad = radial_profiles(cfg, k, m, rr.ravel())[m]
        return (rad * np.exp(1j * (k / cfg.sigma) * tt.ravel())).reshape(rr.shape)

    return f


def eigenfunction_at(cfg, k, m, p):
    """V_{k,m}(p), the L2-normalized eigenfunction at one point."""
    return complex(vectorized_eigenfunction(cfg, k, m)(np.array([p.r]), np.array([p.theta]))[0])


def test_mode_data_examples():
    cfg = ConeConfig(1.0, 1.0, 0.25)
    assert float(eigenvalue(cfg, 0, 0)) == pytest.approx(1.5)
    assert float(eigenvalue(cfg, -1, 0)) == pytest.approx(1.0)
    cfg2 = ConeConfig(2.0, 2.0, 0.3)
    assert float(eigenvalue(cfg2, 2, 1)) == pytest.approx(11.2)


def test_degenerate_levels_exact(cfg):
    # k <= -1: lambda = (2m+1) b0 bitwise, no cancellation drift
    for k in (-1, -3, -17):
        for m in (0, 2, 9):
            assert float(eigenvalue(cfg, k, m)) == (2 * m + 1) * cfg.b0


def test_norm_sq_against_quadrature(cfg):
    # direct radial quadrature of the unnormalized eigenfunction
    for k, m in [(0, 0), (2, 1), (-2, 3)]:
        a = float(angular_order(cfg, k))
        u, w = genlaguerre_rule(60, a)
        poly = np.array([float(sp.eval_genlaguerre(m, a, ui)) / sp.binom(m + a, m) for ui in u])
        # ||V||^2 = (1/2)(2/b0)^{a+1} int u^a e^-u P^2 du
        val = 0.5 * (2.0 / cfg.b0) ** (a + 1.0) * float(np.sum(w * poly ** 2))
        assert float(np.exp(log_norm_sq(cfg, k, m))) == pytest.approx(val, rel=1e-11)


def test_eigenfunction_vanishes_at_tip(cfg):
    p = make_point(cfg, 0.0, 1.0)
    assert eigenfunction_at(cfg, 0, 0, p) == 0.0


def test_eigenfunction_periodicity_exact():
    cfg = ConeConfig(1.5, 1.0, 0.4)
    r = 1.3
    v1 = eigenfunction_at(cfg, 2, 1, make_point(cfg, r, 0.7))
    v2 = eigenfunction_at(cfg, 2, 1, make_point(cfg, r, 0.7 + cfg.period))
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_eigenfunction_normalization_quadrature():
    # ||V_{1,2}||_{L2} = 1 via Gauss-Laguerre x trapezoid, sigma=1.5, b0=1, alpha=0.4
    cfg = ConeConfig(1.5, 1.0, 0.4)
    k, m = 1, 2
    a = float(abs(k / cfg.sigma + cfg.alpha))
    u, w = genlaguerre_rule(60, a)
    r = np.sqrt(2.0 * u / cfg.b0)
    rad = radial_profiles(cfg, k, m, r)[m]
    # int |rad|^2 r dr = (1/b0) int |rad(u)|^2 du; undo the u^a e^-u rule weight
    flat = np.exp(np.log(w) + u - a * np.log(u))
    norm_sq = cfg.period * float(np.sum(flat * np.abs(rad) ** 2)) / cfg.b0
    assert norm_sq == pytest.approx(1.0, abs=1e-8)


def test_orthonormality_matrix(cfg):
    window = ModeWindow(3, 3)
    quad = QuadratureSpec(n_radial=60, n_theta=128)
    modes = [(k, m) for k in window.k_values for m in window.m_values]
    gram = np.zeros((len(modes), len(modes)), dtype=complex)
    for i, (k1, m1) in enumerate(modes):
        fld = expand(vectorized_eigenfunction(cfg, int(k1), int(m1)), window, cfg, quad)
        for j, (k2, m2) in enumerate(modes):
            gram[i, j] = fld.coeffs[k2 + window.k_max, m2]
    assert np.abs(gram - np.eye(len(modes))).max() < 1e-8


def test_radial_operator_eigen_equation(cfg, rng):
    # 5-point finite differences of the radial operator reproduce lambda R
    h = 1e-3
    r = np.linspace(0.2, 3.0, 24)
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    stencil1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    for _ in range(10):
        k = int(rng.integers(-4, 5))
        m = int(rng.integers(0, 6))
        lam = float(eigenvalue(cfg, k, m))
        s = k / cfg.sigma + cfg.alpha
        offsets = np.array([-2, -1, 0, 1, 2]) * h
        vals = np.stack([radial_profiles(cfg, k, m, r + o)[m] for o in offsets])
        d2 = stencil @ vals
        d1 = stencil1 @ vals
        f0 = vals[2]
        op = -d2 - d1 / r + (s + cfg.b0 * r * r / 2.0) ** 2 / (r * r) * f0
        scale = np.abs(lam * f0).max()
        assert np.abs(op - lam * f0).max() < 1e-5 * scale


def test_expand_delta_on_eigenfunction():
    cfg = ConeConfig(1.5, 1.0, 0.4)
    window = ModeWindow(4, 4)
    fld = expand(vectorized_eigenfunction(cfg, 2, 1), window, cfg, QuadratureSpec(60, 64))
    expected = np.zeros(window.shape, dtype=complex)
    expected[2 + window.k_max, 1] = 1.0
    assert np.abs(fld.coeffs - expected).max() < 1e-8


def test_expand_zero_function(cfg):
    window = ModeWindow(2, 2)
    fld = expand(lambda r, th: np.zeros(np.broadcast(r, th).shape), window, cfg,
                 QuadratureSpec(40, 32))
    assert np.abs(fld.coeffs).max() == 0.0


def test_expand_radial_function_kills_nonzero_k(cfg):
    window = ModeWindow(3, 5)
    fld = expand(lambda r, th: np.exp(-(r * np.ones_like(th)) ** 2), window, cfg,
                 QuadratureSpec(60, 64))
    nonzero_k = np.abs(fld.coeffs[np.arange(2 * window.k_max + 1) != window.k_max])
    assert nonzero_k.max() < 1e-12


def test_expand_angular_resolution_guard(cfg):
    with pytest.raises(QuadratureError):
        expand(lambda r, th: np.zeros(np.broadcast(r, th).shape), ModeWindow(40, 2), cfg,
               QuadratureSpec(40, 64))


def test_expand_synthesize_roundtrip(cfg, rng):
    window = ModeWindow(3, 3)
    field = random_field(window, rng)

    def f(r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        rr, tt = np.broadcast_arrays(r, theta)
        vals = np.zeros(rr.shape, dtype=complex)
        for ik, k in enumerate(window.k_values):
            rad = radial_profiles(cfg, int(k), window.m_max, rr.ravel())
            vals += ((field.coeffs[ik] @ rad) * np.exp(1j * (k / cfg.sigma) * tt.ravel())).reshape(rr.shape)
        return vals

    recovered = expand(f, window, cfg, QuadratureSpec(60, 64))
    assert np.abs(recovered.coeffs - field.coeffs).max() < 1e-8

    for _ in range(50):
        p = make_point(cfg, rng.uniform(0.05, 3.0), rng.uniform(0.0, cfg.period))
        direct = complex(f(np.array([p.r]), np.array([p.theta]))[0])
        assert field_on_grid(recovered, [p.r], [p.theta], cfg)[0, 0] == pytest.approx(direct, abs=1e-8)


def test_synthesize_empty_and_linear(cfg):
    window = ModeWindow(2, 2)
    empty = SpectralField(window, np.zeros(window.shape, dtype=complex))
    p = make_point(cfg, 1.2, 0.8)
    assert field_on_grid(empty, [p.r], [p.theta], cfg)[0, 0] == 0.0

    coeffs = np.zeros(window.shape, dtype=complex)
    coeffs[window.k_max + 1, 0] = 2.0 + 1.0j
    single = SpectralField(window, coeffs)
    direct = (2.0 + 1.0j) * eigenfunction_at(cfg, 1, 0, p)
    assert field_on_grid(single, [p.r], [p.theta], cfg)[0, 0] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("shape", [(5, 2), (3, 5), (6, 3)])
def test_spectral_field_refuses_a_table_that_does_not_match_its_window(shape):
    with pytest.raises(DomainError, match=r"coefficient table shape .* != window shape \(5, 3\)"):
        SpectralField(ModeWindow(2, 2), np.zeros(shape, dtype=complex))


def test_spectral_apply_identity_unitarity_semigroup(cfg, rng):
    window = ModeWindow(4, 4)
    field = random_field(window, rng)

    same = spectral_apply(lambda lam: np.ones_like(lam), field, cfg)
    assert np.array_equal(same.coeffs, field.coeffs)

    evolved = spectral_apply(schrodinger_multiplier(0.83), field, cfg)
    assert evolved.coefficient_norm() == pytest.approx(field.coefficient_norm(), abs=1e-14)

    half = spectral_apply(heat_multiplier(0.25), field, cfg)
    twice = spectral_apply(heat_multiplier(0.25), half, cfg)
    once = spectral_apply(heat_multiplier(0.5), field, cfg)
    assert np.abs(twice.coeffs - once.coeffs).max() < 1e-14


def test_field_serialization_roundtrip(tmp_path, cfg, rng):
    window = ModeWindow(2, 3)
    field = random_field(window, rng)
    csv_path = tmp_path / "field.csv"
    save_field(field, cfg, QuadratureSpec(), csv_path)
    loaded = load_field(csv_path)
    assert loaded.window == field.window
    assert np.array_equal(loaded.coeffs, field.coeffs)
    assert (tmp_path / "field.json").exists()


def test_field_on_grid_matches_synthesize(cfg, rng):
    window = ModeWindow(3, 2)
    field = random_field(window, rng)
    r = np.array([0.4, 1.1, 2.2])
    th = np.array([0.3, 2.0])
    grid = field_on_grid(field, r, th, cfg)
    for i, rv in enumerate(r):
        for j, tv in enumerate(th):
            p = make_point(cfg, rv, tv)
            assert grid[i, j] == pytest.approx(field_on_grid(field, [p.r], [p.theta], cfg)[0, 0], rel=1e-12)


def test_eigenvalue_table_shape(cfg):
    window = ModeWindow(3, 5)
    lam = eigenvalue_table(cfg, window)
    assert lam.shape == window.shape
    assert (lam > 0).all()


# ---------------------------------------------------------------------------
# radial profiles at large radii; expand's samples
# ---------------------------------------------------------------------------

def oracle_radial_profiles(cfg, k, m_max, r):
    """radial_profiles as it stood before large radii were handled: the plain product polys * scale."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a = angular_order(cfg, k)[..., None]
    u = cfg.b0 * r * r / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        polys = np.moveaxis(normalized_laguerre_rows(a, m_max, u), 0, -2)
    with np.errstate(divide="ignore"):
        log_radial = np.where(r > 0.0, a * np.log(np.where(r > 0.0, r, 1.0)), np.where(a > 0, -np.inf, 0.0))
    log_radial = log_radial - u / 2.0 - 0.5 * math.log(cfg.period)
    log_norm = log_norm_sq(cfg, np.asarray(k)[..., None], np.arange(m_max + 1))
    scale = np.exp(log_radial[..., None, :] - 0.5 * log_norm[..., :, None])
    with np.errstate(invalid="ignore"):
        return polys * scale


def test_radial_profiles_are_finite_up_to_r_1e150(cfg):
    """Past the Gaussian's reach the Laguerre rows overflow while their scale is 0: the profiles are 0, not NaN.

    Every finite value of the plain product keeps its bits, a -0.0 included; no warning is raised.
    """
    r = np.concatenate([[0.0], np.geomspace(1.0, 1e150, 61)])
    ks = np.array([-600, -257, -1, 0, 1, 3, 256, 600])
    for m_max in (0, 1, 64, 256):
        rows = radial_profiles(cfg, ks, m_max, r)
        old = oracle_radial_profiles(cfg, ks, m_max, r)
        assert np.isfinite(rows).all(), m_max
        finite = np.isfinite(old)
        assert finite.all() == (m_max <= 1)  # the plain product is NaN somewhere on this range from m = 64
        assert np.array_equal(rows[finite].view(np.int64), old[finite].view(np.int64))
        assert (rows[~finite] == 0.0).all()


@pytest.mark.parametrize("window,r_nan", [(ModeWindow(4, 128), 300.0), (ModeWindow(4, 64), 1e5)])
def test_field_on_grid_is_zero_far_out(window, r_nan):
    """Where the plain product of rows and scale was NaN, a field is 0; the values nearer in are unchanged."""
    cfg = ConeConfig(1.0, 1.0, 0.25)
    field = random_field(window, np.random.default_rng(8))
    values = field_on_grid(field, [1.0, 2.5, r_nan, 1e150], [0.1, 2.0], cfg)
    assert np.isfinite(values).all()
    assert (values[2:] == 0.0).all()
    np.testing.assert_allclose(values[:2], field_on_grid(field, [1.0, 2.5], [0.1, 2.0], cfg), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_expand_refuses_a_non_finite_sample(cfg, bad):
    """The first sample that is not finite is named by its (r, theta), before any projection."""
    window = ModeWindow(2, 2)
    quad = QuadratureSpec(8, 16)
    calls = []

    def f(r, theta):
        calls.append(r)
        values = np.ones(np.broadcast(r, theta).shape, dtype=complex)
        values[3, 5] = bad
        return values

    with pytest.raises(DomainError, match=r"expand needs finite samples, f\(r=[0-9.e+-]+, theta=[0-9.e+-]+\) is not finite"):
        expand(f, window, cfg, quad)
    assert len(calls) == 1  # refused at the first mode's samples
    u, _ = genlaguerre_rule(quad.n_radial, float(angular_order(cfg, -window.k_max)))
    theta = np.arange(quad.n_theta) * (cfg.period / quad.n_theta)
    with pytest.raises(DomainError, match=f"r={np.sqrt(2.0 * u / cfg.b0)[3]:g}, theta={theta[5]:g}"):
        expand(f, window, cfg, quad)
