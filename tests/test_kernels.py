import cmath
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special as sp

from magcone import kernels, verify
from magcone.errors import DomainError, NonconvergenceError, SingularTimeError
from magcone.geometry import ConeConfig, ConePoint, make_point
from magcone.kernels import (
    halfwave_kernel_grid,
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


def mp_schrodinger_tail(s, phi_plus, phi_minus, cfg):
    """S from its winding angles phi_+- in mpmath, by the textbook form with cosh(s/sigma) - cos phi.

    At 50 digits the cancellation of that difference (about 16 digits at
    the points below) leaves well over float precision.
    """
    sg, al = mpmath.mpf(cfg.sigma), mpmath.mpf(cfg.alpha)
    out = mpmath.exp(-al * s) * mpmath.sin(al * mpmath.pi)
    for sign, phi in ((1, phi_plus), (-1, phi_minus)):
        num = (mpmath.cosh(al * s) * mpmath.sin(phi)
               + 1j * sign * mpmath.sinh(al * s) * (mpmath.cos(phi) - mpmath.exp(-s / sg)))
        out += mpmath.expjpi(sign * al) / 2 * num / (mpmath.cosh(s / sg) - mpmath.cos(phi))
    return out


def tail_rounding_bound(s, theta, cfg):
    """(S(s, theta), how far schrodinger_angular_tail may lie from it), the bound from the formula's conditioning.

    Input: the winding angles (theta +- pi)/sigma are formed in floats, each
    off by at most 2u (|theta| + pi)/sigma, which moves S by |dS/dphi| times
    that.  Formula: each half is N/D, both scaled by e^{-s/sigma}, with
    N = 2i sign sinh(alpha s) e^{-s/sigma} (shrink - sin^2(phi/2))
        + cosh(alpha s) e^{-s/sigma} sin phi,
    D = shrink^2 + sin^2(phi/2) e^{-s/sigma},  shrink = (1 - e^{-s/sigma})/2.
    Its exps carry their arguments' relative rounding, u |s| at most
    (alpha, 1/sigma <= 1).  Every factor is then correct to a few ulps of
    (1 + |s|) times its magnitude M: its own modulus for real s, where expm1
    gives 1 - e^{-s/sigma} and 1 - e^{-2 alpha s}; for complex s, where
    they are e^x - 1, the modulus of e^x plus that of e^x - 1.  N and D are
    sums of products of such factors, so each half moves by at most the
    roundings on its path (fewer than 32) times u (1 + |s|) M_N/|D| (1 + M_D/|D|).
    """
    u = 2.0 ** -53
    with mpmath.workdps(50):
        sg, al, th = mpmath.mpf(cfg.sigma), mpmath.mpf(cfg.alpha), mpmath.mpf(theta)
        s_mp = mpmath.mpc(s) if isinstance(s, complex) else mpmath.mpf(s)
        phis = ((th + mpmath.pi) / sg, -(th - mpmath.pi) / sg)
        back_al, lead, decay = mpmath.exp(-al * s_mp), mpmath.exp((al - 1 / sg) * s_mp), mpmath.exp(-s_mp / sg)
        if isinstance(s, complex):
            mag_shrink = (abs(decay - 1) + abs(decay)) / 2
            mag_sinh = abs(lead) * (abs(back_al ** 2 - 1) + abs(back_al) ** 2) / 2
        else:
            mag_shrink, mag_sinh = abs(1 - decay) / 2, abs(lead * (1 - back_al ** 2)) / 2
        mag_cosh = abs(lead) + mag_sinh
        shrink = (1 - decay) / 2

        scale = abs(back_al) * mpmath.sin(al * mpmath.pi)
        for phi in phis:
            sq = mpmath.sin(phi / 2) ** 2
            den = abs(shrink ** 2 + sq * decay)
            num_mag = mag_cosh * abs(mpmath.sin(phi)) + 2 * mag_sinh * (mag_shrink + sq)
            scale += num_mag / (4 * den) * (1 + (mag_shrink ** 2 + sq * abs(decay)) / den)
        slope = (abs(mpmath.diff(lambda x: mp_schrodinger_tail(s_mp, x, phis[1], cfg), phis[0]))
                 + abs(mpmath.diff(lambda x: mp_schrodinger_tail(s_mp, phis[0], x, cfg), phis[1])))
        want = complex(mp_schrodinger_tail(s_mp, *phis, cfg))
    return want, float(2 * u * (abs(th) + mpmath.pi) / sg * slope + 32 * u * (1 + abs(s)) * scale)


CORNER_D = (1e-8, 1e-4, 1e-2)  # distance of phi_+ from 0 mod 2 pi


@pytest.mark.parametrize("s", [1e-8, 1e-4, 1e-2, 0.5,  # real nodes, down to the removable corner
                               complex(0.5, -0.1), complex(0.5, -0.8), complex(0.5, -0.5 * math.pi),  # drop leg
                               complex(3.0, -0.5 * math.pi), complex(20.0, -0.5 * math.pi)])  # line leg
def test_schrodinger_angular_tail_vs_mpmath_at_the_removable_corner(cfg, s):
    """phi_+ = (theta + pi)/sigma at d, -d and 2 pi - d, so phi_+ -> 0 (mod 2 pi) meets s -> 0."""
    for d in CORNER_D:
        for phi in (d, -d, 2.0 * math.pi - d):
            theta = cfg.sigma * phi - math.pi
            got = complex(schrodinger_angular_tail(np.array([s]), theta, cfg)[0])
            want, bound = tail_rounding_bound(s, theta, cfg)
            assert abs(got - want) <= bound, (d, phi, got, want, bound)


@pytest.mark.parametrize("alpha, s", [(0.01, 2000.0), (0.01, 4500.0),  # the tail-l1 sweep's last panel at kappa = 0.01
                                      (0.95, 4000.0), (0.95, complex(4000.0, -0.5 * math.pi))])  # cosh(alpha s) overflows
def test_schrodinger_angular_tail_far_out_is_finite_and_correct(alpha, s):
    """sinh(s/2sigma) and cosh(alpha s) overflow past s ~ 1420 sigma and 710/alpha; the tail's scaled factors do not."""
    cfg = ConeConfig(1.0, 1.0, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = complex(schrodinger_angular_tail(np.array([s]), 0.3, cfg)[0])
    want, bound = tail_rounding_bound(s, 0.3, cfg)
    assert abs(got - want) <= bound, (got, want, bound)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
def test_tail_trig_of_an_angle_array_has_the_bits_of_each_angle_alone(sigma):
    """An array takes numpy's sin, one angle math's: on a host where they differ this fails."""
    thetas = np.linspace(-sigma * math.pi, sigma * math.pi, 20001)  # one period of the cone
    got = np.array(kernels._tail_trig(thetas, sigma))
    want = np.array([kernels._tail_trig(float(theta), sigma) for theta in thetas]).T
    assert np.array_equal(got, want)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
def test_tail_trig_of_runs_of_equal_angles_has_the_bits_of_each_angle_alone(sigma, rng):
    """A walk's nodes come in runs of one angle, whose sines are taken once; -0.0 and 0.0 share a run."""
    thetas = np.concatenate((rng.uniform(-sigma * math.pi, sigma * math.pi, 40), [0.0, -0.0, 0.0]))
    nodes = np.repeat(thetas, rng.integers(1, 100, thetas.size))
    nodes = nodes[:nodes.size // 2 * 2].reshape(-1, 2)
    got = np.array(kernels._tail_trig(nodes, sigma))
    want = np.array([kernels._tail_trig(float(theta), sigma) for theta in nodes.ravel()]).T.reshape(got.shape)
    assert np.array_equal(got, want)
    assert [v.shape for v in kernels._tail_trig(np.empty(0), sigma)] == [(0,)] * 4


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
            got = complex(heat_angular_tail(np.array([s]), 1.0, th, t, cfg)[0])
            want = brute_heat_tail(s, th, t, cfg)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_heat_tail_examples(cfg):
    # s -> +inf envelope e^{(alpha - 1/sigma) s}
    t = 1.0
    ss = np.array([6.0, 10.0, 16.0])
    vals = np.abs(heat_angular_tail(ss, 1.0, 0.9, t, cfg))
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
    got = complex(heat_angular_tail(np.array([s]), 1.0, 0.0, t, cfg)[0])
    expect = math.exp(cfg.alpha * w) * (
        cmath.exp(1j * cfg.alpha * math.pi) * plus - cmath.exp(-1j * cfg.alpha * math.pi) * minus)
    assert got == pytest.approx(expect, rel=1e-12)


def test_heat_tail_alpha_limit():
    cfg = ConeConfig(1.5, 1.0, 1e-12)
    s, t, th = 1.2, 0.7, 0.9
    w = s - t * cfg.b0
    x_val = 1.0 / (cmath.exp((w + 1j * (th + math.pi)) / cfg.sigma) - 1.0)
    y_val = 1.0 / (cmath.exp((w + 1j * (th - math.pi)) / cfg.sigma) - 1.0)
    got = complex(heat_angular_tail(np.array([s]), 1.0, th, t, cfg)[0])
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


@pytest.mark.parametrize("tb", [0.1, 0.8, 5.0])
def test_heat_grid_refuses_an_angle_near_a_boundary_and_holds_12_digits_past_it(cfg, tb):
    """Within 0.01 of |theta| = pi the grid's fixed panels lose digits (7e-3 at 0.001): it refuses there."""
    t = tb / cfg.b0
    r1, r2 = np.array([0.15, 1.2, 3.0]), 1.5
    x = cfg.b0 * r1 * r2 / (2.0 * math.sinh(tb))
    with pytest.raises(DomainError, match="image-sum boundary"):
        heat_closed_bracket_grid(x, np.array([0.3, math.pi - 0.005]), t, cfg)
    thetas = np.array([math.pi - 0.02, -(math.pi - 0.02)])
    grid = heat_closed_bracket_grid(x, thetas, t, cfg)
    for i_theta, theta in enumerate(thetas):
        for i_r, r in enumerate(r1):
            big_q = cfg.b0 * (r ** 2 + r2 ** 2) / (4.0 * math.tanh(tb))
            got = cfg.b0 / (4.0 * math.pi * math.sinh(tb)) * math.exp(-big_q) * grid[i_theta, i_r]
            want = heat_kernel_closed(t, make_point(cfg, r, theta), make_point(cfg, r2, 0.0), cfg).value
            assert abs(got - want) <= 1e-12 * abs(want)


def _heat_grid_misses(cfg, t, r1, r2, thetas) -> float:
    """Worst |grid - heat_kernel_closed| over heat_kernel_closed's largest term, on r1 x thetas against (r2, 0)."""
    tb = t * cfg.b0
    x = cfg.b0 * r1 * r2 / (2.0 * math.sinh(tb))
    big_q = cfg.b0 * (r1 ** 2 + r2 ** 2) / (4.0 * math.tanh(tb))
    grid = cfg.b0 / (4.0 * math.pi * math.sinh(tb)) * np.exp(-big_q)[None, :] * heat_closed_bracket_grid(x, thetas, t, cfg)
    worst = 0.0
    for row, theta in zip(grid, thetas):
        for got, r in zip(row, r1):
            want = heat_kernel_closed(t, make_point(cfg, r, theta), make_point(cfg, r2, 0.0), cfg)
            worst = max(worst, abs(got - want.value) / want.largest_term)
    return worst


def test_heat_grid_matches_the_pointwise_closed_form(cfg):
    """The grid's fewer panels against heat_kernel_closed's adaptive walk, to 1e-12 of its largest term.

    On the Gaussian-heat sweep's own angles (the near-pi cluster included)
    at its first and last t, and 0.0101 off a boundary from t b0 = 0.01 to
    700.  The scale is the largest term because heat_kernel_closed itself
    aims at 1e-12 of the bracket's mass: against |K| the two part by up to
    9.7e-13 at t b0 = 100 (3.8e-13 of the largest term).
    """
    fine = verify.SweepGrids().refined()
    thetas = verify._heat_angles(cfg, verify._pair_grid(cfg, fine)[1])
    ts = verify._heat_time_grid(fine, cfg)
    for t in (ts[0], ts[-1]):
        assert _heat_grid_misses(cfg, t, np.array([0.15, 1.2, 3.0]), 1.5, thetas) <= 1e-12
    near = np.array([math.pi - 0.0101, -(math.pi - 0.0101)])
    for tb in (0.01, 1.0, 20.0, 100.0, 700.0):
        # one radius: at sigma = 2, t b0 = 100 each pointwise walk takes 0.2-0.5 s
        assert _heat_grid_misses(cfg, tb / cfg.b0, np.array([1.2]), 1.5, near) <= 1e-12, tb


@pytest.mark.xfail(strict=True, raises=NonconvergenceError,
                   reason="ROADMAP item 5: the heat tail's pole 0.0101 off a boundary defeats the walk at tiny x")
def test_heat_closed_at_tb_100_0_0101_from_a_boundary_converges():
    """sigma = 2, t b0 = 100, r = (0.15, 1.5), theta = pi - 0.0101 (x ~ 1e-44): the grid holds there, the walk does not."""
    cfg = ConeConfig(2.0, 0.5, 0.3)
    assert _heat_grid_misses(cfg, 100.0 / cfg.b0, np.array([0.15, 0.5]), 1.5, np.array([math.pi - 0.0101])) <= 1e-12


def test_heat_grid_refuses_an_x_whose_image_terms_overflow():
    """Without e^{-Q} an image term is e^{x cosh(t b0) cos theta_j}: past the float range the grid refuses x up front.

    sigma = 1, t = 1, theta = 0.3 once gave -inf+infj at x = 700 and
    inf-infj at x = 800, with a RuntimeWarning only.
    """
    cfg = ConeConfig(1.0, 1.0, 0.25)
    x_top = math.log(sys.float_info.max) / (math.cosh(1.0) * math.cos(0.3))
    for x in (700.0, 800.0):
        with pytest.raises(DomainError, match=f"needs x <= {x_top:.6g} at t b0 = 1 .* got x = {x:g}"):
            heat_closed_bracket_grid(np.array([0.5, x]), np.array([0.3, -1.1]), 1.0, cfg)
    assert np.isfinite(heat_closed_bracket_grid(np.array([0.5, 0.999 * x_top]), np.array([0.3, -1.1]), 1.0, cfg)).all()
    # an angle whose images all have cos theta_j <= 0 only bounds x where x cosh(t b0) overflows
    assert heat_closed_bracket_grid(np.array([1e300]), np.array([2.5]), 1.0, cfg)[0, 0] == 0.0


def test_heat_semigroup_composition(cfg, heat_kernel_row):
    t1, t2 = 0.5 / cfg.b0, 0.3 / cfg.b0
    p = make_point(cfg, 1.2, 0.5)
    q = make_point(cfg, 0.9, 2.3)
    r, w_r, theta, d_theta = _middle_grid(cfg)
    k_p = heat_kernel_row(cfg, t1, p.r, p.theta, r, theta)
    # K_t(z, q) = conj(K_t(q, z)) by Hermitian symmetry
    k_q = heat_kernel_row(cfg, t2, q.r, q.theta, r, theta).conj()
    total = complex(np.sum((k_p * k_q) * w_r[None, :]) * d_theta)
    direct = heat_kernel_series(t1 + t2, p, q, cfg).value
    assert total == pytest.approx(direct, rel=1e-6)


def test_heat_spectral_consistency(cfg, rng, heat_kernel_row):
    # kernel-integrated action on a band-limited field == spectral_apply
    t = 0.6 / cfg.b0
    window = ModeWindow(3, 3)
    field = random_field(window, rng)
    r, w_r, theta, d_theta = _middle_grid(cfg)
    f_vals = field_on_grid(field, r, theta, cfg)  # (n_r, n_theta)
    p = make_point(cfg, 1.1, 0.9)
    k_p = heat_kernel_row(cfg, t, p.r, p.theta, r, theta)
    integral = complex(np.sum(k_p.T * f_vals * w_r[:, None]) * d_theta)
    direct = field_on_grid(spectral_apply(heat_multiplier(t), field, cfg), [p.r], [p.theta], cfg)[0, 0]
    assert integral == pytest.approx(direct, rel=1e-6)


def test_heat_closed_deep_regime_high_precision_oracle(heat_kernel_mp):
    # across-tip regime with x(1 + cosh t b0) ~ 29: the float64 series loses
    # ~20 digits to cancellation; the closed form must track a 60-digit
    # mode-sum oracle instead
    sigma, b0, alpha, t = 2.7, 1.9088115357418856, 0.22785354937120517, 0.27194807582671077
    p, q = ConePoint(2.7601102258947656, 7.639708916231893), ConePoint(2.7796168649757806, 2.997167110531844)
    cfg = ConeConfig(sigma, b0, alpha)
    exact = heat_kernel_mp(t, p, q, cfg)

    closed = heat_kernel_closed(t, p, q, cfg).value
    assert abs(closed - exact) <= 1e-12 * abs(exact)
    # the series' conditioning diagnostic must flag the lost digits
    series = heat_kernel_series(t, p, q, cfg)
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


def assert_closed_matches_the_series_without_a_warning(t, p, q, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = schrodinger_kernel_closed(t, p, q, cfg).value
        series = schrodinger_kernel_series(t, p, q, cfg).value
    assert abs(closed - series) <= 1e-12 * abs(series)


@pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
def test_schrodinger_closed_near_an_image_boundary_matches_the_series(cfg, d):
    """theta = t b0 - dtheta at pi - d: the tail's corner s -> 0, phi -> 0 is a Lorentzian of width d."""
    tb = 0.9
    p, q = make_point(cfg, 1.4, tb - (math.pi - d)), make_point(cfg, 0.9, 0.0)
    assert_closed_matches_the_series_without_a_warning(tb / cfg.b0, p, q, cfg)


# the worst |closed - series| / |series| at each rho over the reference configs and the four angles
# below, with a real segment of ten oscillations; one oscillation moves single cases by ~1e-15
SCHRODINGER_CLOSED_ERR = {1e-3: 5.7e-15, 0.02: 3.1e-15, 0.3: 2.9e-15, 1.0: 1.8e-15,
                          4.0: 2.8e-14, 15.0: 5.0e-14, 50.0: 1.6e-14}


@pytest.mark.parametrize("rho", sorted(SCHRODINGER_CLOSED_ERR))
def test_schrodinger_closed_bracket_keeps_its_error_against_the_series(cfg, rho):
    """A generic angle and angles 1e-2, 1e-4 and 1e-8 off a boundary, within a quarter more than the table."""
    for theta in (0.7, math.pi - 1e-2, math.pi - 1e-4, math.pi - 1e-8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bracket, _ = kernels._closed_angular_bracket(cfg, rho, theta)
            series = reduced_kernel(rho, theta, cfg)
        assert abs(cfg.sigma * bracket - series) <= 1.25 * SCHRODINGER_CLOSED_ERR[rho] * abs(series), theta


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the walk has no node budget, so it ends at the node cap "
                                        "after 3 million tail nodes")
def test_schrodinger_closed_at_rho_200_1e_4_from_a_boundary_matches_the_series_or_refuses_early(monkeypatch):
    """sigma = 1: a value within 1e-12 of the series, or a refusal within 100,000 nodes (converging walks take < 10,000)."""
    cfg, theta = ConeConfig(1.0, 1.0, 0.25), math.pi - 1e-4
    nodes = []
    tail = kernels.schrodinger_angular_tail

    def counted(s, *args):
        nodes.append(np.size(s))
        return tail(s, *args)

    monkeypatch.setattr(kernels, "schrodinger_angular_tail", counted)
    try:
        bracket, _ = kernels._closed_angular_bracket(cfg, 200.0, theta)
    except NonconvergenceError:
        assert sum(nodes) <= 100_000
        return
    series = reduced_kernel(200.0, theta, cfg)
    assert abs(cfg.sigma * bracket - series) <= 1e-12 * abs(series)


def test_schrodinger_closed_at_the_kernel_points_case_0_0401_from_a_boundary():
    """One benchmark kernel point (theta -3.10147, 0.0401 from -pi) whose closed form once hit the node cap."""
    p, q = ConePoint(2.0779379115418646, 7.834637297722077), ConePoint(0.5785829789792208, 3.8658977986715484)
    assert_closed_matches_the_series_without_a_warning(1.7345446794734158, p, q, ConeConfig(2.0, 0.5, 0.3))


def test_schrodinger_closed_at_the_tip_is_zero_like_the_series():
    """rho = 0 (p at r = 0): at kappa = 0.01 a contour's line would run past s = 710, where exp(s) overflows.

    The heat pair meets the tip as x = 0; all four kernels return 0 there, with largest_term 0.
    """
    p, q, cfg = ConePoint(0.0, 0.3), ConePoint(1.0, 0.0), ConeConfig(1.0, 1.0, 0.01)
    assert_closed_matches_the_series_without_a_warning(0.9, p, q, cfg)
    for kernel in (heat_kernel_series, heat_kernel_closed, schrodinger_kernel_series, schrodinger_kernel_closed):
        kv = kernel(0.9, p, q, cfg)
        assert kv.value == 0.0 and kv.largest_term == 0.0, kernel.__name__


@pytest.mark.parametrize("tb", [math.pi + 0.4, 1.5 * math.pi, 2.0 * math.pi - 0.5, -0.9, -2.0])
def test_schrodinger_closed_matches_the_series_where_sin_t_b0_is_negative(cfg, tb):
    """sin(t b0) < 0 gives rho < 0, where the closed form conjugates its bracket at (-rho, -theta)."""
    assert math.sin(tb) < 0.0
    for r1, r2, dth in ((1.4, 0.9, 0.7), (0.5, 2.0, 2.1), (1.1, 1.1, -0.4)):
        assert_closed_matches_the_series_without_a_warning(tb / cfg.b0, make_point(cfg, r1, dth),
                                                           make_point(cfg, r2, 0.0), cfg)


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
    # the grid stops short of sigma pi: at sigma = 1 that is an image boundary, which image_angles refuses
    for th in np.linspace(-cfg.sigma * math.pi + 0.05, cfg.sigma * math.pi - 0.05, 40):
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
    with pytest.raises((DomainError, SingularTimeError), match="image-sum boundary|singular near t b0"):
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


def test_reduced_kernel_matrix_blocks_agree_with_one_block(monkeypatch):
    cfg = ConeConfig(2.0, 0.5, 0.3)
    rho = np.linspace(0.0, 60.0, 700)
    delta = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 9)
    whole = reduced_kernel_matrix(rho, delta, cfg)
    monkeypatch.setattr(kernels, "_REDUCED_BLOCK_CELLS", 5000)  # 49 radii a block at these 101 orders
    blocked = reduced_kernel_matrix(rho, delta, cfg)
    assert np.all(np.abs(blocked - whole) <= 1e-13 * np.abs(whole).max())


def test_reduced_kernel_matrix_memory_stays_bounded_across_blocks():
    """rho_max = 200 at sigma = 2 needs 1,281 orders: on 8,959 radii one block would hold 275 MB of rows."""
    cfg = ConeConfig(2.0, 0.5, 0.3)
    rho = np.linspace(0.0, 200.0, 8959)
    tracemalloc.start()
    try:
        mat = reduced_kernel_matrix(rho, np.array([-1.0, 0.5]), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(mat).all()
    assert peak < 64e6


# ---------------------------------------------------------------------------
# half-wave kernel
# ---------------------------------------------------------------------------

def test_halfwave_t0_hermitian(cfg):
    lam_hi = 4.0 ** 3
    window = ModeWindow(int(lam_hi / cfg.b0 * cfg.sigma / 2) + 8,
                        int((lam_hi / cfg.b0 - 1) / 2) + 1)
    gap = 0.4 - 2.2
    grid = halfwave_kernel_grid(2, 0.0, np.array([1.0, 1.5]), np.array([gap, -gap]), cfg, window)
    # K(p, q) against conj K(q, p): the radii and the sign of the angle gap swap
    assert grid[0, 0, 1] == pytest.approx(grid[1, 1, 0].conjugate(), rel=1e-10)


def test_halfwave_multiplier_bound(cfg):
    cutoff = make_cutoff()
    lam = eigenvalue_table(cfg, ModeWindow(10, 10))
    weights = cutoff(np.sqrt(lam) / 2.0 ** 2)
    assert weights.max() <= 1.0 + 1e-15
    assert (np.abs(weights * np.exp(1j * 0.7 * np.sqrt(lam))) <= 1.0 + 1e-15).all()


def test_halfwave_window_too_small(cfg):
    with pytest.raises(DomainError, match="shell j=3 extends past k_max=10"):
        halfwave_kernel_grid(3, 0.1, np.array([1.0]), np.array([0.0]), cfg, ModeWindow(10, 5))


@pytest.mark.parametrize("cone,window,why", [
    (ConeConfig(1.0, 1.0, 0.25), ModeWindow(1, 40), "shell j=1 extends past k_max=1 on the k >= 0 side"),
    (ConeConfig(1.0, 1.0, 0.75), ModeWindow(16, 6), "shell j=1 needs m up to 7 on the degenerate branch"),
], ids=["k-side", "degenerate-branch-m"])
def test_halfwave_window_short_of_the_shell_on_either_branch(cone, window, why):
    """Every k >= 0 mode list fits in m, so the refusal comes from the k range or the k <= -1 branch."""
    with pytest.raises(DomainError, match=why):
        halfwave_kernel_grid(1, 0.1, np.array([1.0]), np.array([0.0]), cone, window)


def test_halfwave_shell_work_bound(cfg, shell_modes):
    """Shells past the mode cap raise before any mode is listed; j <= 3 stays inside it."""
    from magcone.kernels import halfwave_kernel_grid
    from magcone.lpbesov import _SHELL_MODE_CAP, bernstein_ratio

    huge = ModeWindow(k_max=1023, m_max=2047)  # 2047 x 2048 modes, just inside the window cap
    r = np.array([0.5, 1.0])
    for j in (30, 600):  # without the bound these fail at once; a j near 12 would allocate for minutes
        with pytest.raises(DomainError, match="above the cap"):
            halfwave_kernel_grid(j, 0.5, r, np.array([0.1]), cfg, huge)
        with pytest.raises(DomainError, match="above the cap"):
            bernstein_ratio(j, math.inf, 2.0, cfg, huge)
    for j in range(-2, 4):
        lam_hi = 4.0 ** (j + 1)
        window = ModeWindow(int(math.ceil(lam_hi / cfg.b0 * cfg.sigma / 2.0)) + 8,
                            int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
        pos, neg_ms = shell_modes(j, cfg, window)
        assert sum(ms.size for _, ms in pos) + neg_ms.size <= _SHELL_MODE_CAP
