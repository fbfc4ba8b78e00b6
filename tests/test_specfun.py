import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special as sp

from magcone.geometry import ConeConfig
from magcone.kernels import _bessel_j_rows, _rotated_bessel
from magcone.quadrature import genlaguerre_rule
from magcone.spectrum import normalized_laguerre_rows


# -- normalized Laguerre rows ------------------------------------------------
# spectrum.normalized_laguerre_rows is the package's one Laguerre recurrence:
# row m is L_m^alpha(x) / L_m^alpha(0), with L_m^alpha(0) = binom(m + alpha, m).
# The oracles are summed in 40-digit arithmetic.

def _row(alpha, m, x):
    return normalized_laguerre_rows(alpha, m, x)[m]


def _at_zero(alpha, m):
    return float(mpmath.binomial(m + alpha, m))


def test_laguerre_basics():
    assert _row(0.3, 0, 17.0) == 1.0
    assert _row(0.0, 1, 1.0) == pytest.approx(0.0, abs=1e-15)  # L_1^0(x) = 1 - x
    assert normalized_laguerre_rows(0.4, 0, np.array([1.0, 2.0])).shape == (1, 2)
    assert normalized_laguerre_rows(0.4, 5, np.zeros((2, 3))).shape == (6, 2, 3)


def test_laguerre_orthogonality_quadrature_oracle():
    # int_0^inf x^a e^-x L_m^a L_n^a dx = delta_mn Gamma(m + a + 1) / m!, by
    # generalized Gauss-Laguerre (exact for polynomial integrands of this degree)
    a, m_max = 0.3, 12
    u, w = genlaguerre_rule(30, a)
    rows = normalized_laguerre_rows(a, m_max, u)
    gram = (rows * w) @ rows.T
    with mpmath.workdps(40):
        norms = [float(mpmath.gamma(m + a + 1) / mpmath.factorial(m) / mpmath.binomial(m + a, m) ** 2)
                 for m in range(m_max + 1)]
    np.testing.assert_allclose(gram, np.diag(norms), rtol=1e-12, atol=1e-13 * max(norms))
    assert gram[2, 2] * _at_zero(a, 2) ** 2 == pytest.approx(sp.gamma(3.3) / 2.0, rel=1e-13)


def _laguerre_direct_sum(alpha, m, x):
    """Explicit alternating sum of L_m^alpha(x) in 40 digits; returns (value, largest term magnitude)."""
    with mpmath.workdps(40):
        terms = [(-1) ** n * mpmath.binomial(m + alpha, m - n) * mpmath.mpf(x) ** n / mpmath.factorial(n)
                 for n in range(m + 1)]
        return float(mpmath.fsum(terms)), float(max(abs(t) for t in terms))


@pytest.mark.parametrize("alpha", [-0.9, -0.3, 0.25, 1.0, 3.0])
def test_laguerre_recurrence_vs_direct_sum(alpha, rng):
    for m in range(0, 31, 3):
        x = rng.uniform(0.0, 8.0)
        direct, peak = _laguerre_direct_sum(alpha, m, x)
        # 1e-11 relative to the sum's own conditioning scale
        assert abs(_row(alpha, m, x) * _at_zero(alpha, m) - direct) <= 1e-11 * max(abs(direct), peak)


def test_laguerre_vs_scipy(rng):
    for _ in range(40):
        alpha = rng.uniform(-0.5, 3.0)
        m = int(rng.integers(0, 25))
        x = rng.uniform(0.0, 20.0)
        assert _row(alpha, m, x) * _at_zero(alpha, m) == pytest.approx(
            float(sp.eval_genlaguerre(m, alpha, x)), rel=1e-10, abs=1e-10
        )


def test_normalized_laguerre():
    assert _row(0.7, 0, 5.0) == 1.0
    assert np.all(normalized_laguerre_rows(0.5, 9, 0.0) == 1.0)
    # frozen oracle: sum_n (-2)_n / ((1.5)_n n!) at x = 1 is exactly -1/15
    assert _row(0.5, 2, 1.0) == pytest.approx(-1.0 / 15.0, rel=1e-13)
    # consistency with the plain Laguerre polynomial over its value at 0
    for m, alpha, x in [(3, 0.3, 2.0), (7, 1.2, 5.5), (12, 0.8, 0.4)]:
        with mpmath.workdps(40):
            expected = float(mpmath.laguerre(m, alpha, x) / mpmath.binomial(m + alpha, m))
        assert _row(alpha, m, x) == pytest.approx(expected, rel=1e-11)


def test_kummer_terminating_matches_laguerre_family(rng):
    # row m is the terminating Kummer series M(-m, 1 + alpha, x)
    for m in range(0, 11):
        alpha = rng.uniform(0.05, 2.0)
        x = rng.uniform(0.0, 6.0)
        with mpmath.workdps(40):
            expected = float(mpmath.hyp1f1(-m, 1 + alpha, x))
        assert _row(alpha, m, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- Bessel -----------------------------------------------------------------
# magcone's Bessel values come from scipy.special, called by kernels, except
# for reduced_kernel_matrix's Bessel matrix, which kernels._bessel_j_rows
# builds by order recurrence and scales to scipy's jv.  These check the
# identity and the rotation the kernels rest on, and that matrix.

def test_bessel_product_identity_paper_case():
    # int_0^inf e^{-t^2} J_nu(a t) J_nu(b t) t dt = (1/2) e^{-(a^2+b^2)/4} I_nu(a b / 2)
    nu, a, b = 0.3, 1.0, 2.0
    lhs, _ = integrate.quad(lambda t: math.exp(-t * t) * sp.jv(nu, a * t) * sp.jv(nu, b * t) * t,
                            0.0, 30.0, limit=300)
    rhs = 0.5 * math.exp(-(a * a + b * b) / 4.0) * sp.iv(nu, a * b / 2.0)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _imaginary_axis_oracle(nu, rho):
    """I_nu(i rho) = (z/2)^nu / (sqrt(pi) Gamma(nu + 1/2)) * int_0^pi e^{z cos u} sin^{2 nu} u du, z = i rho."""
    z = 1j * rho

    def integrand(u):
        return np.exp(z * math.cos(u)) * math.sin(u) ** (2.0 * nu)

    re, _ = integrate.quad(lambda u: integrand(u).real, 0.0, math.pi, limit=200)
    im, _ = integrate.quad(lambda u: integrand(u).imag, 0.0, math.pi, limit=200)
    return (z / 2.0) ** nu / (math.sqrt(math.pi) * sp.gamma(nu + 0.5)) * (re + 1j * im)


def test_bessel_i_imaginary_axis_vs_integral_representation():
    # kernels' I_{a_k}(i rho) = e^{i sgn(rho) a_k pi/2} J_{a_k}(|rho|), at a_0 = |0/1 + 0.3|
    cfg = ConeConfig(sigma=1.0, b0=1.0, alpha=0.3)
    nu, rho = 0.3, 2.0
    (got,) = _rotated_bessel(cfg, np.array([0]), rho)
    (mirror,) = _rotated_bessel(cfg, np.array([0]), -rho)
    assert got == pytest.approx(_imaginary_axis_oracle(nu, rho), rel=1e-10)
    # rho < 0 takes the conjugate rotation
    assert mirror == pytest.approx(_imaginary_axis_oracle(nu, -rho), rel=1e-10)
    assert mirror == pytest.approx(got.conjugate(), rel=1e-15)
    # envelope bound from the integral representation
    env = (rho / 2.0) ** nu / (math.sqrt(math.pi) * sp.gamma(0.5 + nu)) * integrate.quad(
        lambda s: (1 - s * s) ** (nu - 0.5), -1, 1)[0]
    assert abs(got) <= env + 1e-12


# The orders |k/sigma + alpha| for |k| <= 640 sigma reach 640, past e rho / 2
# for every rho <= 400, so J has decayed at the largest of them (the condition
# _bessel_j_rows states; reduced_kernel_matrix's k range meets it the same way).
# sigma = 1, 1.5, 2 are the reference configurations (2, 6 and 4 ladders);
# 2.5 and 3 also form ladders, 1.3 and pi/2 do not and take jv.
LADDER_SIGMAS = [1.0, 1.5, 2.0, 2.5, 3.0, 1.3, math.pi / 2.0]
LADDER_ABS = 1e-13  # |recurrence - jv|, every order; 2.6e-14 is the largest seen
TINY = 5e-324  # smallest positive float


def _ladder_orders(sigma, alpha):
    k = round(640 * sigma)
    return np.abs(np.arange(-k, k + 1) / sigma + alpha)


@st.composite
def _ladder_case(draw):
    sigma = draw(st.sampled_from(LADDER_SIGMAS))
    alpha = draw(st.floats(0.0, 1.0 / sigma, exclude_min=True, exclude_max=True))
    rho = draw(st.lists(st.floats(0.0, 400.0), min_size=1, max_size=6))
    return sigma, alpha, rho


@settings(max_examples=60, deadline=None)
@given(case=_ladder_case())
@example(case=(1.0, 0.25, [0.0, TINY, 1e-300, 1e-20, 0.5, 400.0]))
@example(case=(1.5, 0.4, [0.0, TINY, 2.2e-308, 18.2, 399.9]))
@example(case=(2.0, 0.3, [TINY, 1e-150, 3.0, 250.0]))
@example(case=(1.0, 0.5, [7.0, 333.0]))  # both signs of k share one ladder
def test_bessel_ladder_matches_jv(case):
    sigma, alpha, rho = case
    a, rho = _ladder_orders(sigma, alpha), np.array(rho)
    got = _bessel_j_rows(a, rho)
    want = sp.jv(a[:, None], rho[None, :])
    assert np.all(np.abs(got - want) <= LADDER_ABS)
    assert not got[:, rho == 0.0].any()  # J_a(0) = 0 exactly, every order a > 0


@pytest.mark.parametrize("sigma, alpha", [(1.0, 0.25), (1.5, 0.4), (2.0, 0.3)])
def test_bessel_ladder_vs_mpmath_at_large_rho_and_order(sigma, alpha):
    a = _ladder_orders(sigma, alpha)
    rho = np.array([200.0, 287.3, 399.5])
    got = _bessel_j_rows(a, rho)
    picks = np.flatnonzero((a >= 300.0) & (a <= 420.0))[::7]
    assert picks.size >= 20
    with mpmath.workdps(40):
        for i in picks:
            for j, r in enumerate(rho):
                exact = float(mpmath.besselj(mpmath.mpf(a[i]), mpmath.mpf(r)))
                # scipy's jv itself is off by up to 2.9e-15 here; the ladder by 2.1e-15
                assert abs(got[i, j] - exact) <= 5e-15
                if a[i] > r:  # J decays monotonically there; 9.3e-14 seen, an ulp of the order at sigma = 1.5
                    assert got[i, j] == pytest.approx(exact, rel=5e-13)
