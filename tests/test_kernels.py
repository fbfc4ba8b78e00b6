import cmath
import math

import numpy as np
import pytest
from scipy import integrate, special as sp

from magcone.errors import QuadratureError, SingularTimeError, WindowTooSmallError
from magcone.geometry import ConeConfig, make_point
from magcone.kernels import (
    halfwave_kernel_truncated,
    heat_angular_tail,
    heat_closed_bracket_grid,
    heat_kernel_closed,
    heat_kernel_series,
    image_angles,
    reduced_kernel,
    reduced_kernel_matrix,
    schrodinger_angular_tail,
    schrodinger_kernel_closed,
    schrodinger_kernel_series,
    spectral_kernel,
)
from magcone.lpbesov import make_cutoff
from magcone.quadrature import evaluation_grid
from magcone.spectrum import (
    ModeWindow,
    eigenvalue_table,
    field_on_grid,
    heat_multiplier,
    random_field,
    spectral_apply,
)

# grids for cross-representation checks: radii and angle gaps chosen away
# from the |theta + 2 pi sigma j| = pi image boundaries (checked below)
CROSS_T_B = (0.45, 1.25, 2.6)
CROSS_R = (0.35, 1.2, 2.4)
CROSS_TH = (0.15, 1.9, 3.7)


def _cross_grid(cfg):
    pts = []
    for tb in CROSS_T_B:
        for r1 in CROSS_R:
            for th1 in CROSS_TH:
                pts.append((tb / cfg.b0, make_point(cfg, r1, th1 * cfg.sigma / 2.0),
                            make_point(cfg, 1.6, 0.4)))
    return pts


# ---------------------------------------------------------------------------
# angular tail oracles
# ---------------------------------------------------------------------------

def brute_schrodinger_tail(s, theta, cfg, kmax=4000):
    ks = np.arange(-kmax, kmax + 1)
    a = np.abs(ks / cfg.sigma + cfg.alpha)
    return complex(np.sum(np.exp(1j * ks * theta / cfg.sigma) * np.sin(np.pi * a) * np.exp(-s * a)))


def test_schrodinger_angular_tail_vs_brute_force(cfg):
    for s in (0.05, 0.4, 1.3, 2.8):
        for th in (-3.0, -1.2, 0.0, 0.7, 2.9, 4.4):
            got = complex(schrodinger_angular_tail(np.array([s]), th, cfg)[0])
            want = brute_schrodinger_tail(s, th, cfg)
            assert got == pytest.approx(want, abs=5e-13)


def test_schrodinger_tail_l1_and_envelope(cfg):
    rate = min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)
    ss = np.linspace(8.0, 30.0, 23)
    vals = np.abs(schrodinger_angular_tail(ss, 1.1, cfg))
    env = np.abs(schrodinger_angular_tail(np.array([8.0]), 1.1, cfg))[0]
    assert (vals <= env * np.exp(-rate * (ss - 8.0)) * 3.0).all()
    # integrability of the standalone sub-term
    val, _ = integrate.quad(lambda s: math.exp(-s * cfg.alpha) * abs(math.sin(s * cfg.alpha)),
                            0, 200.0 / cfg.alpha, limit=400)
    assert math.isfinite(val)


def brute_heat_tail(s, theta, t, cfg, kmax=6000):
    # sum over windings of the resummed identity, oracle by partial sums of
    # the defining series sum_j e^{-z_j alpha}(...) is unwieldy; use instead
    # the k-space definition: b(w, theta) = sum over the two geometric series
    w = s - t * cfg.b0
    total = 0.0 + 0.0j
    for n in range(1, kmax):
        total += cmath.exp(-n * (w + 1j * (theta + math.pi)) / cfg.sigma) * cmath.exp(
            1j * cfg.alpha * math.pi)
        total -= cmath.exp(-n * (w + 1j * (theta - math.pi)) / cfg.sigma) * cmath.exp(
            -1j * cfg.alpha * math.pi)
    return cmath.exp(cfg.alpha * w) * total


def test_heat_angular_tail_vs_geometric_series(cfg):
    # for w > 0 the fraction 1/(e^X - 1) = sum_{n>=1} e^{-nX}
    t = 0.3
    for s in (t * cfg.b0 + 0.4, t * cfg.b0 + 1.7):
        for th in (-2.0, 0.0, 1.3):
            got = complex(heat_angular_tail(np.array([s]), th, t, cfg)[0])
            want = brute_heat_tail(s, th, t, cfg)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_heat_tail_examples(cfg):
    # s -> +inf envelope e^{(alpha - 1/sigma) s}
    t = 1.0
    ss = np.array([6.0, 10.0, 16.0])
    vals = np.abs(heat_angular_tail(ss, 0.9, t, cfg))
    rate = 1.0 / cfg.sigma - cfg.alpha
    assert (vals[1:] / vals[:-1] <= np.exp(-rate * np.diff(ss)) * 1.5).all()


def test_heat_tail_conjugate_structure_sigma1():
    # theta = 0, sigma = 1: the two fractions are complex conjugates up to
    # the e^{+-i alpha pi} phases
    cfg = ConeConfig(1.0, 1.0, 0.25)
    s, t = 1.0, 1.0
    w = s - t * cfg.b0
    plus = 1.0 / (cmath.exp(w + 1j * math.pi) - 1.0)
    minus = 1.0 / (cmath.exp(w - 1j * math.pi) - 1.0)
    assert plus == pytest.approx(minus.conjugate(), rel=1e-12)
    got = complex(heat_angular_tail(np.array([s]), 0.0, t, cfg)[0])
    expect = math.exp(cfg.alpha * w) * (
        cmath.exp(1j * cfg.alpha * math.pi) * plus - cmath.exp(-1j * cfg.alpha * math.pi) * minus)
    assert got == pytest.approx(expect, rel=1e-12)


def test_heat_tail_alpha_limit():
    cfg = ConeConfig(1.5, 1.0, 1e-12)
    s, t, th = 1.2, 0.7, 0.9
    w = s - t * cfg.b0
    x_val = 1.0 / (cmath.exp((w + 1j * (th + math.pi)) / cfg.sigma) - 1.0)
    y_val = 1.0 / (cmath.exp((w + 1j * (th - math.pi)) / cfg.sigma) - 1.0)
    got = complex(heat_angular_tail(np.array([s]), th, t, cfg)[0])
    assert got == pytest.approx(x_val - y_val, rel=1e-9)


# ---------------------------------------------------------------------------
# the two identities behind the closed forms
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_winding_summation_identity():
    # sum_j e^{2 i j a sigma pi} / (gamma - 2 j sigma pi)
    #   = i e^{i a gamma} / (sigma (e^{i gamma / sigma} - 1)),  symmetric sums
    for sigma, alpha in ((1.0, 0.25), (1.5, 0.4), (2.0, 0.3)):
        for gamma in (1.3 + 0.7j, -2.0 + 0.3j, 0.4 - 1.1j):
            rhs = 1j * cmath.exp(1j * alpha * gamma) / (sigma * (cmath.exp(1j * gamma / sigma) - 1.0))
            total = 1.0 / gamma
            for j in range(1, 400000):
                total += cmath.exp(2j * j * alpha * sigma * math.pi) / (gamma - 2 * j * sigma * math.pi)
                total += cmath.exp(-2j * j * alpha * sigma * math.pi) / (gamma + 2 * j * sigma * math.pi)
            assert total == pytest.approx(rhs, abs=3e-6)


def test_line_integral_lemma():
    # int_R e^{z k} I_|k|(x) dk = e^{x cosh z} [|Im z| < pi]
    #   + (1/2 pi i) int_R e^{-x cosh s} (1/(s+z+i pi) - 1/(s+z-i pi)) ds
    for x, z in ((0.8, 0.3 + 0.9j), (1.7, -0.2 + 2.8j), (0.5, 0.4 + 3.6j)):
        lhs, _ = integrate.quad(
            lambda k: (cmath.exp(z * k) * sp.ive(abs(k), x) * math.exp(x)).real, -60, 60, limit=600)
        lhs_i, _ = integrate.quad(
            lambda k: (cmath.exp(z * k) * sp.ive(abs(k), x) * math.exp(x)).imag, -60, 60, limit=600)
        lhs = lhs + 1j * lhs_i

        def frac(s):
            return 1.0 / (s + z + 1j * math.pi) - 1.0 / (s + z - 1j * math.pi)

        re, _ = integrate.quad(lambda s: (math.exp(-x * math.cosh(s)) * frac(s)).real,
                               -40, 40, limit=600)
        im, _ = integrate.quad(lambda s: (math.exp(-x * math.cosh(s)) * frac(s)).imag,
                               -40, 40, limit=600)
        rhs = (re + 1j * im) / (2j * math.pi)
        if abs(z.imag) < math.pi:
            rhs += cmath.exp(x * cmath.cosh(z))
        assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def test_heat_series_vs_spectral_sum(cfg):
    t = 0.7 / cfg.b0
    p = make_point(cfg, 1.0, 0.3)
    q = make_point(cfg, 0.8, 2.1)
    series = heat_kernel_series(t, p, q, cfg).value
    window = ModeWindow(50, 40)
    brute = spectral_kernel(heat_multiplier(t), p, q, cfg, window)
    assert series == pytest.approx(brute, rel=1e-10)


def test_heat_cross_representation(cfg):
    for b0 in (0.5, 1.0):
        scaled = ConeConfig(cfg.sigma, b0, cfg.alpha)
        for t, p, q in _cross_grid(scaled):
            a = heat_kernel_series(t, p, q, scaled).value
            b = heat_kernel_closed(t, p, q, scaled).value
            assert abs(a - b) <= 1e-8 * abs(a), (t, p, q, b0)


def test_heat_hermitian_symmetry(cfg):
    t = 0.8
    p = make_point(cfg, 1.1, 0.4)
    q = make_point(cfg, 0.7, 2.9)
    a = heat_kernel_series(t, p, q, cfg).value
    b = heat_kernel_series(t, q, p, cfg).value
    assert abs(a - b.conjugate()) <= 1e-12 * abs(a)


def _middle_grid(cfg, n_r=240, n_theta=192, r_max=8.0):
    """Finite-interval product grid matched to fast-Gaussian integrands."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * r_max * (x + 1.0) / math.sqrt(cfg.b0)
    w_r = 0.5 * r_max * w / math.sqrt(cfg.b0) * r  # includes the r dr measure
    theta = np.arange(n_theta) * (cfg.period / n_theta)
    return r, w_r, theta, cfg.period / n_theta


def _heat_kernel_row(cfg, t, p_r, p_theta, r, theta):
    """K_t((p_r, p_theta), (r_i, theta_j)) as a (n_theta, n_r) matrix."""
    x = cfg.b0 * p_r * r / (2.0 * math.sinh(t * cfg.b0))
    qq = cfg.b0 * (p_r ** 2 + r ** 2) / (4.0 * math.tanh(t * cfg.b0))
    return (cfg.b0 / (4.0 * math.pi * math.sinh(t * cfg.b0)) * np.exp(-qq)[None, :]
            * heat_closed_bracket_grid(x, p_theta - theta, t, cfg))


def test_heat_semigroup_composition(cfg):
    t1, t2 = 0.5 / cfg.b0, 0.3 / cfg.b0
    p = make_point(cfg, 1.2, 0.5)
    q = make_point(cfg, 0.9, 2.3)
    r, w_r, theta, d_theta = _middle_grid(cfg)
    k_p = _heat_kernel_row(cfg, t1, p.r, p.theta, r, theta)
    # K_t(z, q) = conj(K_t(q, z)) by Hermitian symmetry
    k_q = _heat_kernel_row(cfg, t2, q.r, q.theta, r, theta).conj()
    total = complex(np.sum((k_p * k_q) * w_r[None, :]) * d_theta)
    direct = heat_kernel_series(t1 + t2, p, q, cfg).value
    assert total == pytest.approx(direct, rel=1e-6)


def test_heat_spectral_consistency(cfg, rng):
    # kernel-integrated action on a band-limited field == spectral_apply
    t = 0.6 / cfg.b0
    window = ModeWindow(3, 3)
    field = random_field(window, rng)
    r, w_r, theta, d_theta = _middle_grid(cfg)
    f_vals = field_on_grid(field, r, theta, cfg)  # (n_r, n_theta)
    p = make_point(cfg, 1.1, 0.9)
    k_p = _heat_kernel_row(cfg, t, p.r, p.theta, r, theta)
    integral = complex(np.sum(k_p.T * f_vals * w_r[:, None]) * d_theta)
    direct = field_on_grid(spectral_apply(heat_multiplier(t), field, cfg), [p.r], [p.theta], cfg)[0, 0]
    assert integral == pytest.approx(direct, rel=1e-6)


def test_heat_closed_deep_regime_high_precision_oracle():
    # across-tip regime with x(1 + cosh t b0) ~ 29: the float64 series loses
    # ~20 digits to cancellation; the closed form must track a 60-digit
    # mode-sum oracle instead
    import mpmath as mp

    from magcone.geometry import ConePoint

    mp.mp.dps = 60
    sigma, b0, alpha, t = 2.7, 1.9088115357418856, 0.22785354937120517, 0.27194807582671077
    r1, th1 = 2.7601102258947656, 7.639708916231893
    r2, th2 = 2.7796168649757806, 2.997167110531844
    cfg = ConeConfig(sigma, b0, alpha)

    tb = mp.mpf(t) * mp.mpf(b0)
    x = mp.mpf(b0) * r1 * r2 / (2 * mp.sinh(tb))
    qq = mp.mpf(b0) * (mp.mpf(r1) ** 2 + mp.mpf(r2) ** 2) / (4 * mp.tanh(tb))
    th = mp.mpf(th1) - mp.mpf(th2)
    total = mp.mpc(0)
    for k in range(-220, 221):
        a = abs(k / mp.mpf(sigma) + alpha)
        total += mp.e ** (1j * (k / mp.mpf(sigma)) * (th + 1j * tb)) * mp.besseli(a, x)
    pref = mp.mpf(b0) * mp.e ** (-tb * alpha) / (4 * mp.pi * sigma * mp.sinh(tb)) * mp.e ** (-qq)
    exact = complex((pref * total).real, (pref * total).imag)

    closed = heat_kernel_closed(t, ConePoint(r1, th1), ConePoint(r2, th2), cfg).value
    assert abs(closed - exact) <= 1e-12 * abs(exact)
    # the series' conditioning diagnostic must flag the lost digits
    series = heat_kernel_series(t, ConePoint(r1, th1), ConePoint(r2, th2), cfg)
    assert series.largest_term > 1e12 * abs(series.value)


def test_heat_mehler_reduction():
    cfg = ConeConfig(1.0, 1.0, 1e-9)
    p = make_point(cfg, 1.0, 0.0)
    # diagonal value: 1/(4 pi sinh 1)
    diag = heat_kernel_series(1.0, p, p, cfg).value
    assert abs(diag - 1.0 / (4.0 * math.pi * math.sinh(1.0))) < 1e-6
    # off-diagonal vs the Landau closed form
    q = make_point(cfg, 1.7, 2.3)
    for t in (0.4, 1.0):
        x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(t))
        qq = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(t))
        mehler = cfg.b0 / (4.0 * math.pi * math.sinh(t)) * cmath.exp(
            -qq + x * cmath.cosh(complex(t, -(p.theta - q.theta))))
        for fn in (heat_kernel_series, heat_kernel_closed):
            assert abs(fn(t, p, q, cfg).value - mehler) <= 1e-7 * abs(mehler)


# ---------------------------------------------------------------------------
# Schrodinger kernel
# ---------------------------------------------------------------------------

def test_schrodinger_cross_representation(cfg):
    for t, p, q in _cross_grid(cfg):
        if abs(math.sin(t * cfg.b0)) < 0.2:
            continue
        a = schrodinger_kernel_series(t, p, q, cfg).value
        b = schrodinger_kernel_closed(t, p, q, cfg).value
        assert abs(a - b) <= 1e-6 * abs(a), (t, p, q)


def test_schrodinger_time_reversal(cfg):
    t = 0.9 / cfg.b0
    p = make_point(cfg, 1.0, 0.7)
    q = make_point(cfg, 1.4, 2.0)
    a = schrodinger_kernel_series(-t, p, q, cfg).value
    b = schrodinger_kernel_series(t, q, p, cfg).value
    assert abs(a - b.conjugate()) <= 1e-12 * abs(a)


def test_schrodinger_singular_time_guard(cfg):
    p = make_point(cfg, 1.0, 0.3)
    with pytest.raises(SingularTimeError):
        schrodinger_kernel_series(math.pi / cfg.b0 * (1 + 1e-9), p, p, cfg)
    with pytest.raises(SingularTimeError):
        schrodinger_kernel_closed(2.0 * math.pi / cfg.b0, p, p, cfg)


def test_schrodinger_reduced_kernel_recombination(cfg):
    t = 0.4 / cfg.b0
    p = make_point(cfg, 1.0, 0.3)
    q = make_point(cfg, 0.8, 2.1)
    sin_tb = math.sin(t * cfg.b0)
    rho = cfg.b0 * p.r * q.r / (2.0 * sin_tb)
    delta = t * cfg.b0 - (p.theta - q.theta)
    pref = (1j * cfg.b0 * cmath.exp(1j * t * cfg.b0 * cfg.alpha)
            / (8.0 * math.pi * cfg.sigma * sin_tb)
            * cmath.exp(cfg.b0 * (p.r ** 2 + q.r ** 2) / (4j * math.tan(t * cfg.b0))))
    recombined = pref * reduced_kernel(rho, delta, cfg)
    direct = schrodinger_kernel_series(t, p, q, cfg).value
    assert recombined == direct  # identical arithmetic path


def test_schrodinger_largest_term_diagnostic(cfg):
    t = 0.6 / cfg.b0
    p = make_point(cfg, 1.5, 0.2)
    q = make_point(cfg, 1.3, 1.0)
    kv = schrodinger_kernel_series(t, p, q, cfg)
    assert kv.largest_term > 0.0
    assert math.isfinite(kv.largest_term)


def test_image_angle_count(cfg):
    for th in np.linspace(-cfg.sigma * math.pi + 0.05, cfg.sigma * math.pi, 40):
        count = len(image_angles(float(th), cfg))
        assert count <= 1 + 1.0 / cfg.sigma + 1


def test_single_image_at_zero_gap_sigma1():
    cfg = ConeConfig(1.0, 1.0, 0.25)
    images = image_angles(0.0, cfg)
    assert len(images) == 1 and images[0] == 0.0


def test_kernel_invariant_under_full_winding(cfg):
    # shifting theta_1 by a full period leaves the kernel unchanged: it is a
    # function on the cone, the flux phase cancels against the k-relabeling
    from magcone.geometry import ConePoint

    t = 0.7 / cfg.b0
    p = ConePoint(1.0, 0.3)
    p_wound = ConePoint(1.0, 0.3 + cfg.period)
    q = ConePoint(0.8, 2.1)
    for fn in (heat_kernel_series, schrodinger_kernel_series,
               heat_kernel_closed, schrodinger_kernel_closed):
        a = fn(t, p, q, cfg).value
        b = fn(t, p_wound, q, cfg).value
        assert abs(a - b) <= 1e-10 * abs(a), fn.__name__


def test_boundary_angle_rejected(cfg):
    p = make_point(cfg, 1.0, 0.0)
    q = make_point(cfg, 1.0, math.pi)  # angle gap exactly pi
    t = (math.pi + 0.0) / cfg.b0  # make theta = t b0 - dtheta hit the boundary
    with pytest.raises((QuadratureError, SingularTimeError)):
        schrodinger_kernel_closed(t, p, q, cfg)


# ---------------------------------------------------------------------------
# reduced kernel
# ---------------------------------------------------------------------------

def test_reduced_kernel_vanishes_at_zero(cfg):
    assert reduced_kernel(0.0, 1.3, cfg) == 0.0


def test_reduced_kernel_matrix_matches_scalar(cfg):
    rho = np.array([0.3, 2.0, 11.0])
    delta = np.array([-2.2, 0.4, 3.0])
    mat = reduced_kernel_matrix(rho, delta, cfg)
    for i, d in enumerate(delta):
        for j, r in enumerate(rho):
            assert mat[i, j] == pytest.approx(reduced_kernel(float(r), float(d), cfg), rel=1e-12)


def test_reduced_kernel_sup_stabilizes(cfg):
    rho = np.linspace(0.0, 30.0, 400)
    delta = np.linspace(-math.pi, math.pi, 60)
    sup1 = np.abs(reduced_kernel_matrix(rho, delta, cfg)).max()
    rho2 = np.linspace(0.0, 60.0, 800)
    sup2 = np.abs(reduced_kernel_matrix(rho2, delta, cfg)).max()
    assert math.isfinite(sup2)
    assert sup2 <= sup1 * 1.1 + 0.2


# ---------------------------------------------------------------------------
# half-wave kernel
# ---------------------------------------------------------------------------

def test_halfwave_t0_hermitian(cfg):
    lam_hi = 4.0 ** 3
    window = ModeWindow(int(lam_hi / cfg.b0 * cfg.sigma / 2) + 8,
                        int((lam_hi / cfg.b0 - 1) / 2) + 1)
    p = make_point(cfg, 1.0, 0.4)
    q = make_point(cfg, 1.5, 2.2)
    a = halfwave_kernel_truncated(2, 0.0, p, q, cfg, window)
    b = halfwave_kernel_truncated(2, 0.0, q, p, cfg, window)
    assert a == pytest.approx(b.conjugate(), rel=1e-10)


def test_halfwave_multiplier_bound(cfg):
    cutoff = make_cutoff()
    lam = eigenvalue_table(cfg, ModeWindow(10, 10))
    weights = cutoff(np.sqrt(lam) / 2.0 ** 2)
    assert weights.max() <= 1.0 + 1e-15
    assert (np.abs(weights * np.exp(1j * 0.7 * np.sqrt(lam))) <= 1.0 + 1e-15).all()


def test_halfwave_window_too_small(cfg):
    p = make_point(cfg, 1.0, 0.4)
    with pytest.raises(WindowTooSmallError):
        halfwave_kernel_truncated(3, 0.1, p, p, cfg, ModeWindow(10, 5))


def test_halfwave_shell_work_bound(cfg):
    """Shells past the mode cap raise before any mode is listed; j <= 3 stays inside it."""
    from magcone.kernels import halfwave_kernel_grid
    from magcone.lpbesov import _SHELL_MODE_CAP, _shell_mode_lists, bernstein_ratio

    huge = ModeWindow(k_max=1023, m_max=2047)  # 2047 x 2048 modes, just inside the window cap
    r = np.array([0.5, 1.0])
    for j in (30, 600):  # without the bound these fail at once; a j near 12 would allocate for minutes
        with pytest.raises(WindowTooSmallError, match="above the cap"):
            halfwave_kernel_grid(j, 0.5, r, np.array([0.1]), cfg, huge)
        with pytest.raises(WindowTooSmallError, match="above the cap"):
            bernstein_ratio(j, math.inf, 2.0, cfg, huge)
    for j in range(-2, 4):
        lam_hi = 4.0 ** (j + 1)
        window = ModeWindow(int(math.ceil(lam_hi / cfg.b0 * cfg.sigma / 2.0)) + 8,
                            int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
        pos, neg_ms = _shell_mode_lists(j, cfg, window)
        assert sum(ms.size for _, ms in pos) + neg_ms.size <= _SHELL_MODE_CAP
