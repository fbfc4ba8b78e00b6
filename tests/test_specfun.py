import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, special as sp

from magcone.errors import DomainError
from magcone.quadrature import genlaguerre_rule
from magcone.specfun import bessel_i, bessel_j
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

def test_bessel_j_basics():
    assert bessel_j(0.0, 0.0) == 1.0
    # half-integer closed form as oracle
    assert bessel_j(0.5, 2.0) == pytest.approx(math.sqrt(2.0 / (math.pi * 2.0)) * math.sin(2.0),
                                               rel=1e-12)
    with pytest.raises(DomainError):
        bessel_j(-0.5, 1.0)


def test_bessel_product_identity_paper_case():
    # int_0^inf e^{-t^2} J_nu(a t) J_nu(b t) t dt = (1/2) e^{-(a^2+b^2)/4} I_nu(a b / 2)
    nu, a, b = 0.3, 1.0, 2.0
    lhs, _ = integrate.quad(lambda t: math.exp(-t * t) * bessel_j(nu, a * t) * bessel_j(nu, b * t) * t,
                            0.0, 30.0, limit=300)
    rhs = 0.5 * math.exp(-(a * a + b * b) / 4.0) * bessel_i(nu, a * b / 2.0).value.real
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_bessel_product_identity_random(rng):
    for _ in range(20):
        nu = rng.uniform(0.0, 2.0)
        a, b = rng.uniform(0.05, 3.0, size=2)
        lhs, _ = integrate.quad(
            lambda t: math.exp(-t * t) * bessel_j(nu, a * t) * bessel_j(nu, b * t) * t,
            0.0, 30.0, limit=300)
        rhs = 0.5 * math.exp(-(a * a + b * b) / 4.0) * bessel_i(nu, a * b / 2.0).value.real
        assert abs(lhs - rhs) < 1e-8


def test_bessel_i_basics():
    assert bessel_i(0.7, 0.0).value == 0.0
    assert bessel_i(0.0, 0.0).value == 1.0
    # real argument vs scipy
    assert bessel_i(1.3, 2.7).value.real == pytest.approx(float(sp.iv(1.3, 2.7)), rel=1e-12)


def test_bessel_i_imaginary_axis_vs_integral_representation():
    # I_nu(z) = (z/2)^nu / (sqrt(pi) Gamma(nu + 1/2)) * int_0^pi e^{z cos u} sin^{2 nu} u du
    nu, rho = 0.3, 2.0
    z = 1j * rho

    def integrand(u):
        return np.exp(z * math.cos(u)) * math.sin(u) ** (2.0 * nu)

    re, _ = integrate.quad(lambda u: integrand(u).real, 0.0, math.pi, limit=200)
    im, _ = integrate.quad(lambda u: integrand(u).imag, 0.0, math.pi, limit=200)
    pref = (z / 2.0) ** nu / (math.sqrt(math.pi) * sp.gamma(nu + 0.5))
    oracle = pref * (re + 1j * im)
    got = bessel_i(nu, z)
    assert got.value == pytest.approx(oracle, rel=1e-10)
    # rotation cross-check
    assert got.value == pytest.approx(np.exp(1j * nu * math.pi / 2.0) * sp.jv(nu, rho), rel=1e-12)
    # envelope bound from the integral representation
    env = (rho / 2.0) ** nu / (math.sqrt(math.pi) * sp.gamma(0.5 + nu)) * integrate.quad(
        lambda s: (1 - s * s) ** (nu - 0.5), -1, 1)[0]
    assert abs(got.value) <= env + 1e-12
    assert got.largest_term >= abs(got.value)


def test_bessel_i_general_complex_series():
    z = 1.5 + 0.8j
    nu = 0.6
    got = bessel_i(nu, z).value
    # independent oracle: the defining series summed term by explicit term
    total = 0.0 + 0.0j
    for m in range(80):
        total += (z / 2.0) ** (2 * m + nu) / (math.gamma(m + 1) * sp.gamma(m + 1 + nu))
    assert got == pytest.approx(total, rel=1e-12)


def _bessel_ode_residual(f, nu, x, h=1e-3, modified=False):
    """Residual of y'' + y'/x +- (1 -+ nu^2/x^2) y, normalized by solution scale.

    h balances the h^2 truncation against the ~1e-14 evaluation noise that
    the second difference amplifies by 1/h^2.
    """
    f0, fp, fm = f(x), f(x + h), f(x - h)
    d1 = (fp - fm) / (2 * h)
    d2 = (fp - 2 * f0 + fm) / (h * h)
    if modified:
        res = d2 + d1 / x - (1.0 + nu * nu / (x * x)) * f0
    else:
        res = d2 + d1 / x + (1.0 - nu * nu / (x * x)) * f0
    return res / max(1.0, abs(f0) * (1.0 + nu * nu / (x * x)))


def test_bessel_ode_residuals(rng):
    for _ in range(100):
        nu = rng.uniform(0.0, 3.0)
        x = rng.uniform(0.5, 6.0)
        assert abs(_bessel_ode_residual(lambda s: bessel_j(nu, s), nu, x)) < 1e-6
        assert abs(_bessel_ode_residual(lambda s: bessel_i(nu, s).value.real, nu, x,
                                        modified=True)) < 1e-6
