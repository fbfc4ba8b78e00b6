"""Propagator kernels in series, closed (image-sum + line-integral), and spectral form.

Heat and Schrodinger kernels are available both as angular Bessel series
and as closed covering-space forms: a finite sum over angular images
within distance pi plus a resummed-tail line integral.  The reduced
angular series (the dispersive-estimate engine) and the frequency-
truncated half-wave kernel round out the set.

Conventions, with theta_d the angular difference and images
theta_j = theta_d + 2 pi sigma j restricted to |theta_j| <= pi:

heat, t > 0, x = b0 r1 r2 / (2 sinh(t b0)), Q = b0 (r1^2+r2^2)/(4 tanh(t b0)):
    K = b0/(4 pi sinh(t b0)) * [ sum_j e^{x cosh(t b0 - i theta_j) - Q - i alpha theta_j}
        + (2 pi i sigma)^{-1} int_R e^{-x cosh s - Q} b(s - t b0, theta_d) ds ]
schrodinger, rho = b0 r1 r2 / (2 sin(t b0)), theta = t b0 - theta_d:
    K = i b0 e^{i t b0 alpha} / (8 pi sin(t b0)) * e^{b0 (r1^2+r2^2)/(4 i tan(t b0))}
        * [ sum_j e^{i rho cos(theta_j) - i alpha theta_j}
            - (pi sigma)^{-1} int_0^inf e^{-i rho cosh s} S(s, theta) ds ]

b and S are the closed forms of the angular tail sums (geometric series in
the winding number); both are exercised directly by the test suite against
brute-force mode sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonconvergenceError, QuadratureError, SingularTimeError, WindowTooSmallError
from .geometry import ConeConfig, ConePoint, angular_difference, flux_distance
from .lpbesov import _shell_mode_lists, make_cutoff
from .quadrature import adaptive_panel, gauss_legendre_rule, oscillatory_bessel_tail
from .spectrum import (
    _PHASE_DIGITS,
    ModeWindow,
    _radial_rows,
    _require_phase_digits,
    angular_order,
    eigenvalue,
    field_on_grid,
    point_field,
    spectral_apply,
)

_SIN_GUARD = 1e-6
_K_START = 40  # first |k| range of the angular series and reduced_kernel_matrix; both extend from there
_K_CAP = 8192
_HEAT_TB_MAX = 700.0  # past it the heat kernel's factor e^{-t b0} leaves the normal float range
_HEAT_SHIFT_TB = 50.0  # any value well below 350 works; 50 leaves the t b0 the sweeps use unshifted
_HEAT_X_MAX = 2.0 ** 30 - 1.0  # scipy's ive(a, x) is NaN from x = 2^30 - 1/2 on
_BOUNDARY_EPS = 1e-9
_GRID_BOUNDARY_GAP = 0.01  # heat_closed_bracket_grid's fixed panels keep 5e-13 this far from a boundary
_LADDER_SEED = 1e-300  # start value of each backward Bessel recurrence, near the bottom of the normal range
_LADDER_GROWTH = 1300.0  # log of the growth allowed from there: values stay below e^(1300 - 690) ~ 1e264
_HALFWAVE_K_CHUNK = 16  # angular blocks per phase contraction
_REDUCED_BLOCK_CELLS = 1 << 20  # Bessel values reduced_kernel_matrix builds and contracts at a time


@dataclass(frozen=True)
class KernelValue:
    """Kernel value and the peak summed-term magnitude; largest_term / |value| is its cancellation ratio."""

    value: complex
    largest_term: float
    k_range: tuple[int, int] = (0, 0)  # the (k_lo, k_hi) the angular series summed; a closed form sums none


def image_angles(theta: float, cfg: ConeConfig, gap: float = _BOUNDARY_EPS) -> np.ndarray:
    """All representatives theta + 2 pi sigma j with modulus <= pi.

    One within 1e-9 of pi, or within gap of it when gap is larger, raises
    QuadratureError; a non-finite theta raises DomainError.
    """
    if not math.isfinite(theta):
        raise DomainError(f"image_angles needs a finite angle, got {theta}")
    period = cfg.period
    j_lo = math.floor((-math.pi - theta) / period) - 1
    j_hi = math.ceil((math.pi - theta) / period) + 1
    cand = theta + period * np.arange(j_lo, j_hi + 1)
    off = float(np.abs(np.abs(cand) - math.pi).min())
    if off < max(gap, _BOUNDARY_EPS):
        where = "on" if off < _BOUNDARY_EPS else f"{off:.3g} from"
        raise QuadratureError(f"angle {theta} sits {where} an image-sum boundary (|theta + 2 pi sigma j| = pi)")
    return cand[np.abs(cand) <= math.pi]


# ---------------------------------------------------------------------------
# angular tail sums
# ---------------------------------------------------------------------------

def schrodinger_angular_tail(s, theta, cfg: ConeConfig):
    """Closed form of S(s, theta) = sum_k e^{i k theta / sigma} sin(pi a_k) e^{-s a_k}.

    With one winding direction per phi_+ = (theta + pi)/sigma and
    phi_- = -(theta - pi)/sigma (sign +1 and -1),

        S = e^{-alpha s} sin(alpha pi) + sum_sign e^{i sign alpha pi}/2
            * (cosh(alpha s) sin phi + i sign sinh(alpha s) (cos phi - e^{-s/sigma}))
            / (cosh(s/sigma) - cos phi).

    Both differences are taken in half angles, where nothing cancels:
    cosh(s/sigma) - cos phi = 2 sinh^2(s/2sigma) + 2 sin^2(phi/2) and
    cos phi - e^{-s/sigma} = 2 sinh(s/2sigma) e^{-s/2sigma} - 2 sin^2(phi/2),
    so every factor stays correct to a few ulps at the removable s -> 0,
    phi -> 0 (mod 2 pi) corner, where each half is a Lorentzian in s of
    width sigma |phi| (down to the 1e-9 boundary guard of image_angles).
    Each half's numerator and denominator are scaled by e^{-s/sigma}, so
    every factor is built from e^{-alpha s} and e^{(alpha - 1/sigma) s},
    both at most 1 in modulus for Re s >= 0 (alpha < 1/sigma): nothing
    overflows at any s, and a factor that underflows leaves a finite value.

    S is analytic in Re s > 0 (poles only on the imaginary axis), so it
    accepts complex s, which the deformed tail contour integrates.  s's
    dtype picks the arithmetic: real s takes the real exp and expm1 and
    never cancels; complex s takes two complex exps, and e^{-s/sigma} - 1
    and e^{-2 alpha s} - 1 in place of expm1 (numpy's complex expm1 costs
    two exps).  Those lose about log10(1/|s/sigma|) and log10(1/|alpha s|)
    digits of the term they enter, which the contour of
    oscillatory_bessel_tail bounds: its complex nodes have Re s >= 0.5.
    Measured there against 40-digit mpmath, the error is at most
    2.5e-15 of the terms' magnitude on the reference configurations and
    3.1e-15 at sigma = 50, alpha = 0.01.  theta is one angle or an array
    of angles shaped like s, one per node (see _tail_trig).
    """
    s = np.asarray(s)
    sg, al = cfg.sigma, cfg.alpha
    back_al, lead = np.exp(-al * s), np.exp((al - 1.0 / sg) * s)  # e^{-alpha s}, e^{(alpha - 1/sigma) s}
    decay = back_al * lead  # e^{-s/sigma}
    if np.iscomplexobj(s):
        decay_m1, back_al_sq_m1 = decay - 1.0, back_al * back_al - 1.0
    else:
        decay_m1, back_al_sq_m1 = np.expm1(-s / sg), np.expm1(-2.0 * al * s)
    shrink = -0.5 * decay_m1  # (1 - e^{-s/sigma}) / 2 = sinh(s/2sigma) e^{-s/2sigma}
    sinh_al = -0.5 * back_al_sq_m1 * lead  # sinh(alpha s) e^{-s/sigma}
    cosh_al = lead - sinh_al  # cosh(alpha s) e^{-s/sigma}
    shrink_sq = shrink * shrink  # sinh^2(s/2sigma) e^{-s/sigma}

    def half(sin_phi, sin_half_phi, phase_sign: float):
        # e^{i sign alpha pi}/4 (cosh_al sin phi + 2i sign sinh_al (shrink - sin^2(phi/2)))
        #                       / (shrink^2 + sin^2(phi/2) e^{-s/sigma})
        sq = sin_half_phi * sin_half_phi
        num = 2j * phase_sign * (sinh_al * (shrink - sq)) + cosh_al * sin_phi
        return cmath.exp(1j * phase_sign * al * math.pi) / 4.0 * (num / (shrink_sq + sq * decay))

    sin_plus, half_plus, sin_minus, half_minus = _tail_trig(theta, sg)
    return (back_al * math.sin(al * math.pi) + half(sin_plus, half_plus, +1.0)
            + half(sin_minus, half_minus, -1.0))


def _tail_trig(theta, sg: float):
    """sin phi and sin(phi/2) of phi = (theta + pi)/sigma and of phi = -(theta - pi)/sigma.

    One angle takes math's sin, a third of numpy's cost on a scalar; an
    array takes numpy's, which agrees with math's to the bit on the angles
    tested, so a node's value does not depend on which nodes share the call.
    An array's sines are taken once per run of equal neighbouring angles
    and repeated along the run: a walk's nodes come grouped by panel, so
    the tail-l1 sweep takes four sines per angle, not per node.
    """
    if np.ndim(theta) == 0:
        return _winding_sines(theta, sg, math.sin)
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    first = np.flatnonzero(np.diff(flat, prepend=math.nan) != 0.0)  # where each run starts
    run = np.diff(first, append=flat.size)
    sines = np.repeat(np.stack(_winding_sines(flat[first], sg, np.sin)), run, axis=1)
    return tuple(row.reshape(theta.shape) for row in sines)


def _winding_sines(theta, sg: float, sin):
    phi_plus, phi_minus = (theta + math.pi) / sg, -((theta - math.pi) / sg)
    return sin(phi_plus), sin(phi_plus / 2.0), sin(phi_minus), sin(phi_minus / 2.0)


def heat_angular_tail(s, factor, theta, t: float, cfg: ConeConfig):
    """factor * b(s - t b0, theta), the winding-number resummation in the heat line integral.

    b(w, theta) = e^{alpha w} [ e^{i alpha pi} / (e^{(w + i(theta+pi))/sigma} - 1)
                              - e^{-i alpha pi} / (e^{(w + i(theta-pi))/sigma} - 1) ]
    decays like e^{alpha w} as w -> -inf and e^{(alpha - 1/sigma) w} as w -> +inf.  Each
    c / (e^{w/sigma} u - 1) is taken as c conj(u) / (e^{w/sigma} - conj(u)), with
    e^{w/sigma} per node and u = e^{i phi/sigma} per angle; the real factor, shaped like
    s, multiplies e^{alpha w} before the bracket.  theta is one angle (the result is
    shaped like s) or a 1-D array of angles (one row per angle).
    """
    w = np.asarray(s, dtype=float) - t * cfg.b0
    sg, al = cfg.sigma, cfg.alpha
    theta = np.asarray(theta, dtype=float)[..., None]
    grow = np.exp(w / sg)
    back_plus = np.exp(-1j * (theta + math.pi) / sg)
    back_minus = np.exp(-1j * (theta - math.pi) / sg)
    return (np.exp(al * w) * factor) * (cmath.exp(1j * al * math.pi) * back_plus / (grow - back_plus)
                                        - cmath.exp(-1j * al * math.pi) * back_minus / (grow - back_minus))


def _heat_images(x, images: np.ndarray, tb: float, shift: float, cfg: ConeConfig) -> np.ndarray:
    """e^{x cosh(t b0 - i theta_j) - shift - i alpha theta_j}: one row, shaped like x, per image theta_j."""
    return np.array([np.exp(x * cmath.cosh(complex(tb, -tj)) - shift - 1j * cfg.alpha * tj) for tj in images])


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def _angular_series(terms_for, what: str):
    """sum_k terms_for(k) over an adaptive, asymmetric k-range.

    Starts from |k| <= _K_START and extends each side, the low side first,
    by blocks of 16 until the three terms at its edge fall below 1e-14 of
    the peak term; the edge terms are those of the initial range or of the
    block just added.  Returns (total, peak, (k_lo, k_hi)).
    """
    terms = terms_for(np.arange(-_K_START, _K_START + 1))
    mags = np.abs(terms)
    peak = float(mags.max())
    total = terms.sum()
    ends = []
    for sign, edge in ((-1, mags[:3].max()), (1, mags[-3:].max())):
        k = sign * _K_START
        while not (edge <= 1e-14 * max(peak, 1e-300) or sign * k >= _K_CAP):
            new = terms_for(np.arange(k - 16, k) if sign < 0 else np.arange(k + 1, k + 17))
            mags = np.abs(new)
            total += new.sum()
            peak = max(peak, float(mags.max()))
            edge = (mags[:3] if sign < 0 else mags[-3:]).max()
            k += 16 * sign
        if sign * k >= _K_CAP:
            raise NonconvergenceError(f"{what} angular series failed to converge within the k cap")
        ends.append(k)
    return total, peak, tuple(ends)


def _log_bessel_i(a: np.ndarray, x: float) -> np.ndarray:
    """log I_a(x), x > 0, from the ascending series summed in log space.

    (x/2)^a / Gamma(a+1) * sum_n (x^2/4)^n / (n! (a+1)_n): neither the
    leading power nor the sum leaves the float range, so this serves the
    orders where scipy's ive has underflowed.
    """
    log_half_x = math.log(x) - math.log(2.0)  # x / 2 may underflow
    log_q = 2.0 * log_half_x
    log_term = a * log_half_x - _sp.gammaln(a + 1.0)
    log_total = log_term
    n = 0
    while True:
        step = log_q - np.log((n + 1.0) * (n + 1.0 + a))
        log_term = log_term + step
        log_total = np.logaddexp(log_total, log_term)
        n += 1
        if np.all((step < 0.0) & (log_term < log_total - 40.0)):
            return log_total


def _heat_angular_series(cfg: ConeConfig, tb: float, x: float, theta: float, shift: float):
    """e^{-shift} sum_k e^{i(k/sigma)(theta + i t b0)} I_{a_k}(x).

    Negative k carry the growing factor e^{|k| t b0 / sigma}; the Bessel
    order decay always wins eventually, but the crossover is found by
    extension rather than assumed.  Orders where ive underflows are taken
    in log space, since that factor can bring their terms back into range.
    """
    if x == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)
    if not x <= _HEAT_X_MAX:
        raise NonconvergenceError(f"heat angular series needs x = b0 r1 r2 / (2 sinh t b0) below 2^30, "
                                  f"got {x:.6g}: its Bessel factors are not computed past it")

    def terms_for(ks: np.ndarray) -> np.ndarray:
        a = angular_order(cfg, ks)
        iv = _sp.ive(a, x)
        under = iv == 0.0  # scipy returns 0 below about 4e-305
        log_iv = np.log(np.where(under, 1.0, iv)) + x
        if under.any():
            log_iv[under] = _log_bessel_i(a[under], x)
        log_mag = log_iv - (ks / cfg.sigma) * tb - shift
        return np.exp(log_mag + 1j * (ks / cfg.sigma) * theta)

    return _angular_series(terms_for, "heat")


def _heat_tb(t: float, cfg: ConeConfig) -> float:
    """t b0, after the time checks every heat entry point shares: finite t > 0 and 0 < t b0 <= _HEAT_TB_MAX."""
    if not (0.0 < t < math.inf):
        raise DomainError(f"heat kernel needs a finite t > 0, got {t}")
    tb = t * cfg.b0
    if tb == 0.0:
        raise DomainError(f"heat kernel needs t b0 > 0, got t = {t} and b0 = {cfg.b0}: their product underflows")
    if tb > _HEAT_TB_MAX:
        raise DomainError(f"heat kernel needs t b0 <= {_HEAT_TB_MAX:g}, got {tb:.6g}: "
                          "its factor e^(-t b0) is below the normal float range there")
    return tb


def _heat_time(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> tuple[float, float, float]:
    """(t b0, x, Q) of the pair, after the checks both heat representations share."""
    tb = _heat_tb(t, cfg)
    x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(tb))
    big_q = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(tb))
    return tb, x, big_q


def heat_kernel_series(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> KernelValue:
    """Heat kernel by the angular Bessel series."""
    tb, x, big_q = _heat_time(t, p, q, cfg)
    theta = p.theta - q.theta
    # the k <= -1 terms grow like e^{alpha t b0} while the prefactor falls like
    # e^{-(1 + alpha) t b0}; past _HEAT_SHIFT_TB that factor moves into the terms,
    # so neither leaves the float range up to _HEAT_TB_MAX
    shift = tb * cfg.alpha if tb > _HEAT_SHIFT_TB else 0.0
    # past Q = 700 e^{-Q} underflows while the terms' e^{x} overflows; x <= Q,
    # so e^{-Q} moves into the terms instead
    q_shift = big_q if big_q >= 700 else 0.0
    total, peak, k_range = _heat_angular_series(cfg, tb, x, theta, shift + q_shift)
    pref = cfg.b0 * math.exp(shift - tb * cfg.alpha) / (4.0 * math.pi * cfg.sigma * math.sinh(tb))
    scale = math.exp(-big_q) if q_shift == 0.0 else 1.0
    return KernelValue(pref * scale * total, pref * scale * peak, k_range)


def _heat_tail_range(x: float, tb: float, cfg: ConeConfig) -> tuple[float, float]:
    """[s_lo, s_hi] of the heat line integral at x; a grid passes its smallest x, which reaches furthest.

    The tail decays like e^{alpha w} to the left and e^{(alpha - 1/sigma) w}
    to the right of w = s - t b0, and the e^{-x cosh s} factor caps the reach
    even when those rates degenerate.
    """
    s_reach = math.acosh(1.0 + 50.0 / x) + 6.0 + abs(tb)
    s_lo = tb - min(45.0 / cfg.alpha, s_reach)
    s_hi = tb + min(45.0 / (1.0 / cfg.sigma - cfg.alpha), s_reach)
    return s_lo, s_hi


def heat_kernel_closed(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> KernelValue:
    """Heat kernel by the image sum plus resummed-tail line integral."""
    tb, x, big_q = _heat_time(t, p, q, cfg)
    if x == 0.0:  # a point at the tip: every mode vanishes there
        return KernelValue(0.0 + 0.0j, 0.0)
    theta = angular_difference(p.theta, q.theta, cfg)
    # past Q = 700 e^{x cosh} and e^{-Q} leave the float range apart, so e^{-Q} goes into each term
    terms = _heat_images(x, image_angles(theta, cfg), tb, big_q, cfg)
    jsum, peak = terms.sum(), float(np.abs(terms).max(initial=0.0))

    def integrand(s, _panel=None):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):  # cosh s past the float range: e^{-x cosh s} is 0 there
            envelope = np.exp(-x * np.cosh(s) - big_q)
        return heat_angular_tail(s, envelope, theta, t, cfg)

    s_lo, s_hi = _heat_tail_range(x, tb, cfg)
    probes = np.linspace(s_lo, s_hi, 41)
    mass = float(np.abs(integrand(probes)).max()) * (s_hi - s_lo)
    # accuracy target is relative to the whole bracket, not the tail alone
    tol = max(1e-12 * max(mass, 2.0 * math.pi * cfg.sigma * abs(jsum)), 1e-320)
    edges = np.unique(np.concatenate([
        np.array([s_lo, 0.0, tb, s_hi]),
        np.linspace(s_lo, s_hi, 25),
    ]))
    integral = 0.0 + 0.0j  # added in panel order: a pairwise sum would move values by up to 4.7e-15
    for value in adaptive_panel(integrand, edges[:-1], edges[1:], tol / (edges.size - 1)):
        integral += value
    bracket = jsum + integral / (2j * math.pi * cfg.sigma)
    pref = cfg.b0 / (4.0 * math.pi * math.sinh(tb))
    peak = max(peak, abs(integral) / (2.0 * math.pi * cfg.sigma))
    return KernelValue(pref * bracket, pref * peak)


def heat_closed_bracket_grid(x_vec: np.ndarray, theta_vec: np.ndarray, t: float,
                             cfg: ConeConfig) -> np.ndarray:
    """Closed-form heat bracket (without the e^{-Q} factor) on a product grid.

    Returns M[i_theta, i_x] with K^H = b0 / (4 pi sinh(t b0)) * e^{-Q} * M, from
    heat_kernel_closed's image terms and tail on a shared-node line integral:
    free of the deep cancellation the angular series hits when
    x (1 - cos theta cosh t b0) is large.  Its fixed graded panels, dense near
    s = 0 (Laplace peak) and s = t b0 (the tail's pole near an image boundary),
    keep M within 5e-13 of heat_kernel_closed from 0.01 off a boundary (4.8e-13
    the worst measured, at 0.02, sigma = 1) but not closer in (7e-3 at 0.001).
    Before any contraction it refuses an angle within _GRID_BOUNDARY_GAP of a
    boundary, the t heat_kernel_closed refuses, and an x that is empty or holds
    a value not finite and > 0.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    theta_vec = np.asarray(theta_vec, dtype=float)
    tb = _heat_tb(t, cfg)
    if x_vec.size == 0 or not np.all((x_vec > 0.0) & (x_vec < math.inf)):
        raise DomainError("heat_closed_bracket_grid needs a nonempty x, each value finite and > 0")
    images = [image_angles(float(th), cfg, _GRID_BOUNDARY_GAP) for th in theta_vec]
    s_lo, s_hi = _heat_tail_range(float(x_vec.min()), tb, cfg)
    edges = np.unique(np.concatenate([
        np.linspace(-1.5, 1.5, 61),
        np.linspace(tb - 0.8, tb + 0.8, 81),
        np.linspace(s_lo, s_hi, 97),
    ]))
    gl_x, gl_w = gauss_legendre_rule(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * gl_x[None, :]).ravel()
    weights = (halfs[:, None] * gl_w[None, :]).ravel()

    tail = heat_angular_tail(nodes, weights, theta_vec, t, cfg)
    envelope = np.exp(-np.outer(np.cosh(nodes), x_vec))
    integral = np.empty((theta_vec.size, x_vec.size), dtype=complex)  # the envelope is real: two real gemms
    integral.real = tail.real @ envelope
    integral.imag = tail.imag @ envelope

    out = integral / (2j * math.pi * cfg.sigma)
    for row, tjs in zip(out, images):
        for term in _heat_images(x_vec, tjs, tb, 0.0, cfg):  # e^{-Q} stays outside the bracket
            row += term
    return out


# ---------------------------------------------------------------------------
# Schrodinger kernel
# ---------------------------------------------------------------------------

def _schrodinger_time(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> tuple[float, float, complex]:
    """(rho, theta, prefactor) of the pair, after the checks both Schrodinger representations share.

    A non-finite t, or a phase |t b0| >= 2^52 whose e^{i t b0} has no
    significant digit, raises DomainError, and |sin(t b0)| < _SIN_GUARD
    raises SingularTimeError.
    """
    if not math.isfinite(t):
        raise DomainError(f"Schrodinger kernel needs a finite t, got {t}")
    tb = t * cfg.b0
    if abs(tb) >= _PHASE_DIGITS:
        raise DomainError(f"Schrodinger kernel: phase up to {abs(tb):.6g} has no significant digit (|t b0| >= 2^52)")
    sin_tb = math.sin(tb)
    if abs(sin_tb) < _SIN_GUARD:
        raise SingularTimeError(
            f"|sin(t b0)| = {abs(sin_tb):.2e} < {_SIN_GUARD}; kernel is singular near t b0 in pi Z"
        )
    rho = cfg.b0 * p.r * q.r / (2.0 * sin_tb)
    theta = tb - (p.theta - q.theta)
    pref = (1j * cfg.b0 * cmath.exp(1j * tb * cfg.alpha) / (8.0 * math.pi * cfg.sigma * sin_tb)
            * cmath.exp(cfg.b0 * (p.r ** 2 + q.r ** 2) / (4j * math.tan(tb))))
    return rho, theta, pref


def _rotated_bessel(cfg: ConeConfig, ks: np.ndarray, rho: float) -> np.ndarray:
    """I_{a_k}(i rho) for signed rho, via the Bessel-J rotation."""
    a = angular_order(cfg, ks)
    return np.exp(1j * math.copysign(1.0, rho) * a * math.pi / 2.0) * _sp.jv(a, abs(rho))


def _schrodinger_angular_series(cfg: ConeConfig, rho: float, theta: float):
    """sum_k e^{i(k/sigma) theta} I_{a_k}(i rho)."""
    if rho == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)
    return _angular_series(lambda ks: np.exp(1j * (ks / cfg.sigma) * theta) * _rotated_bessel(cfg, ks, rho),
                           "Schrodinger")


def schrodinger_kernel_series(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> KernelValue:
    """Schrodinger kernel by the angular Bessel series."""
    rho, theta, pref = _schrodinger_time(t, p, q, cfg)
    total, peak, k_range = _schrodinger_angular_series(cfg, rho, theta)
    return KernelValue(pref * total, abs(pref) * peak, k_range)


def _closed_angular_bracket(cfg: ConeConfig, rho: float, theta: float) -> tuple[complex, float]:
    """Image sum minus tail integral for sum_k e^{ik theta/sigma} I_{a_k}(i rho)/sigma.

    Returns (bracket, peak) with  sum_k ... = sigma * bracket.  At rho = 0
    every I_{a_k}(0) is 0 (a_k > 0), so the bracket is 0, as in the series,
    and no contour is walked.
    """
    if rho == 0.0:
        return 0.0 + 0.0j, 0.0
    if rho < 0.0:
        bracket, peak = _closed_angular_bracket(cfg, -rho, -theta)
        return bracket.conjugate(), peak
    images = image_angles(theta, cfg)
    jsum = sum(cmath.exp(1j * rho * math.cos(tj) - 1j * cfg.alpha * tj) for tj in images)

    def f(s):
        # a complex node's cosh s from one exp and its reciprocal, sound on the contour (see oscillatory_bessel_tail)
        if np.iscomplexobj(s):
            grow = np.exp(s)
            cosh = (grow + 1.0 / grow) * 0.5
        else:
            cosh = np.cosh(s)
        return np.exp(-1j * rho * cosh) * schrodinger_angular_tail(s, theta, cfg)

    tol = 1e-11 * max(1.0, abs(jsum))
    tail = oscillatory_bessel_tail(f, rho, flux_distance(cfg), tol)
    bracket = jsum - tail / (cfg.sigma * math.pi)
    peak = max(1.0 if images.size else 0.0, abs(tail) / (cfg.sigma * math.pi))
    return bracket, peak


def schrodinger_kernel_closed(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig) -> KernelValue:
    """Schrodinger kernel by the image sum plus deformed tail integral."""
    rho, theta, pref = _schrodinger_time(t, p, q, cfg)
    bracket, peak = _closed_angular_bracket(cfg, rho, theta)
    return KernelValue(pref * cfg.sigma * bracket, abs(pref) * cfg.sigma * peak)


# ---------------------------------------------------------------------------
# reduced angular kernel
# ---------------------------------------------------------------------------

def _reduced_args(rho, delta) -> tuple[np.ndarray, np.ndarray]:
    """rho and delta as float arrays; DomainError unless every rho is finite and >= 0 and every delta finite.

    A finite delta with |delta| >= 2^52 raises DomainError too: e^{i k delta / sigma} has no significant digit there.
    """
    rho, delta = np.asarray(rho, dtype=float), np.asarray(delta, dtype=float)
    if not (np.all((0.0 <= rho) & (rho < math.inf)) and np.isfinite(delta).all()):
        raise DomainError("reduced kernel needs a finite rho >= 0 and a finite delta")
    if (np.abs(delta) >= _PHASE_DIGITS).any():
        raise DomainError(f"reduced kernel: delta up to {float(np.abs(delta).max()):.6g} "
                          "has no significant digit (|delta| >= 2^52)")
    return rho, delta


def reduced_kernel(rho: float, delta: float, cfg: ConeConfig) -> complex:
    """The universal angular series sum_k e^{i k delta / sigma} I_{a_k}(i rho)."""
    _reduced_args(rho, delta)
    total, _, _ = _schrodinger_angular_series(cfg, rho, delta)
    return complex(total)


def _bessel_j_ladder(nu0: float, n: int, rho: np.ndarray) -> np.ndarray:
    """J_{nu0 + i}(rho) for i < n and rho > 0, shape (n, len(rho)), by Miller's backward recurrence.

    J_{nu-1} = (2 nu / rho) J_nu - J_{nu+1} runs down from J = 0 above each
    column's start.  A column starts at the top order, or lower where the
    growth bound prod 2 nu / rho over the orders nu >= rho it passes would
    take _LADDER_SEED past e^{_LADDER_GROWTH}, so nothing overflows.  J must
    have decayed at the top order for every rho.  Each column is then scaled
    to scipy's jv at the order nearest rho, within 1/2 of rho and so below
    the first zero of J.
    """
    log_half_rho = np.log(rho) - math.log(2.0)  # 2 / rho may overflow
    log_nu = np.concatenate(([0.0], np.cumsum(np.log(nu0 + np.arange(1, n)))))  # sum of log(nu0 + m), m = 1..i
    first = np.clip(np.ceil(rho - nu0), 1, n).astype(int)  # first step whose order reaches rho

    def growth(i):  # log of prod 2 nu / rho over the steps first..i
        span = i - first + 1
        return np.where(span > 0, log_nu[i] - log_nu[first - 1] - span * log_half_rho, 0.0)

    lo, hi = np.zeros(rho.size, dtype=int), np.full(rho.size, n - 1)
    fits = growth(hi) <= _LADDER_GROWTH
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        ok = growth(mid) <= _LADDER_GROWTH
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    start = np.where(fits, n - 1, lo)
    seeds = {int(i): np.flatnonzero(start == i) for i in np.unique(start)}

    out = np.zeros((n + 1, rho.size))  # row n stays 0: J above the top order
    for i in range(n - 1, -1, -1):
        if i in seeds:
            out[i, seeds[i]] = _LADDER_SEED
        if i > 0:
            row = out[i - 1]
            np.multiply(out[i], 2.0 * (nu0 + i), out=row)
            np.divide(row, rho, out=row)
            np.subtract(row, out[i + 1], out=row)
    ref = np.clip(np.rint(rho - nu0), 0, n - 1).astype(int)
    out = out[:n]
    out *= _sp.jv(nu0 + ref, rho) / out[ref, np.arange(rho.size)]
    return out


def _bessel_j_rows(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """J_{a_i}(rho_j), shape (len(a), len(rho)), for orders a >= 0 and rho >= 0.

    J must have decayed at the largest order for every rho.  Orders that
    share a fractional part (to 4 ulp) form a unit-step ladder from their
    lowest up to the largest order of all.  A ladder holding at most four
    orders per order it serves goes to _bessel_j_ladder, far cheaper per
    value than jv; every other order goes to scipy's jv.  J_a(0) is exact.
    """
    out = np.empty((a.size, rho.size))
    zero = rho == 0.0
    rho_pos = np.where(zero, 1.0, rho)  # any positive value; those columns are set below
    key = np.rint(np.mod(a, 1.0) * 2.0 ** 20) % 2.0 ** 20
    by_key = np.argsort(key, kind="stable")
    for idx in np.split(by_key, np.flatnonzero(np.diff(key[by_key])) + 1):
        nu0 = float(a[idx].min())
        steps = np.rint(a[idx] - nu0).astype(int)
        n = int(np.rint(a.max() - nu0)) + 1
        if n <= 4 * idx.size and np.all(np.abs(a[idx] - (nu0 + steps)) <= 4.0 * np.spacing(a[idx])):
            out[idx] = _bessel_j_ladder(nu0, n, rho_pos)[steps]
        else:
            out[idx] = _sp.jv(a[idx, None], rho_pos[None, :])
    out[:, zero] = (a == 0.0)[:, None]
    return out


def reduced_kernel_matrix(rho: np.ndarray, delta: np.ndarray, cfg: ConeConfig) -> np.ndarray:
    """reduced_kernel on a product grid; shape (len(delta), len(rho)).

    One Bessel matrix serves every delta, so sweeps over large grids cost
    one matrix product per block of radii, each block at most
    _REDUCED_BLOCK_CELLS Bessel values whatever the number of orders.  Its
    columns come from order recurrences scaled to scipy's jv
    (_bessel_j_rows), within 1e-13 of jv itself.
    """
    rho, delta = _reduced_args(rho, delta)
    rho_max = float(rho.max(initial=0.0))
    k_hi = _K_START
    while True:
        a_edge = float(angular_order(cfg, np.array([k_hi])).max())
        env = math.exp(a_edge * math.log(max(math.e * rho_max / (2.0 * (1.0 + a_edge)), 1e-300)))
        if env < 1e-15 or k_hi >= _K_CAP:
            break
        k_hi *= 2
    if k_hi >= _K_CAP:
        raise NonconvergenceError("reduced kernel k range exceeded the cap")
    ks = np.arange(-k_hi, k_hi + 1)
    a = angular_order(cfg, ks)
    rotation = np.exp(1j * a * math.pi / 2.0)[:, None]
    phases = np.exp(1j * np.outer(delta, ks / cfg.sigma))
    out = np.empty((delta.size, rho.size), dtype=complex)
    step = max(1, _REDUCED_BLOCK_CELLS // a.size)
    for lo in range(0, rho.size, step):
        out[:, lo:lo + step] = phases @ (rotation * _bessel_j_rows(a, rho[lo:lo + step]))
    return out


# ---------------------------------------------------------------------------
# spectral-representation kernels
# ---------------------------------------------------------------------------

def spectral_kernel(multiplier, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                    window: ModeWindow) -> complex:
    """Kernel of F(H) truncated to the window: sum F(lam) V(p) conj(V(q))."""
    field = spectral_apply(multiplier, point_field(q, cfg, window), cfg)
    return complex(field_on_grid(field, [p.r], [p.theta], cfg)[0, 0])


def _shell_blocks(j: int, cfg: ConeConfig, window: ModeWindow, r_nodes: np.ndarray):
    """Time-independent blocks (k, sqrt(lam), phi(2^-j sqrt(lam)), V_{k,m}(r_nodes)) of shell j.

    The k <= -1 Landau branch shares one m-range, and its blocks share one
    sqrt(lam) and one weight array, so _halfwave_pairs forms their phases
    once.  Its row k is kept while (max_m phi |V|)^2 exceeds 1e-13 of the
    branch peak; the branch stops after three rows in a row below that, or
    at k = -k_max.
    Returns (blocks, tail), tail being the last row's magnitude over that peak
    (1 if the window holds no k <= -1 row): far above 1e-13, the window cut the branch.
    """
    cutoff = make_cutoff()
    pos, neg_ms = _shell_mode_lists(j, cfg, window)
    blocks = []
    rows = _radial_rows(cfg, [k for k, _ in pos], max((int(ms.max()) for _, ms in pos), default=0), r_nodes)
    for (k, ms), (_, rad) in zip(pos, rows):
        lam = np.asarray(eigenvalue(cfg, k, ms), dtype=float)
        blocks.append((k, np.sqrt(lam), cutoff.shell_weights(j, lam), rad[ms, :]))
    tail = 0.0
    if neg_ms.size:
        lam_neg = np.asarray(eigenvalue(cfg, -1, neg_ms), dtype=float)
        sq_neg, w_neg = np.sqrt(lam_neg), cutoff.shell_weights(j, lam_neg)
        scale, tail = 0.0, 1.0
        stall = 0
        for k, rad in _radial_rows(cfg, range(-1, -window.k_max - 1, -1), int(neg_ms.max()), r_nodes):
            rad = rad[neg_ms, :]
            mag = float((w_neg[:, None] * np.abs(rad)).max()) ** 2
            scale = max(scale, mag)
            tail = mag / max(scale, 1e-300)
            if mag <= 1e-13 * max(scale, 1e-300):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
                blocks.append((k, sq_neg, w_neg, rad))
    return blocks, tail


def _halfwave_pairs(blocks: list, ts: np.ndarray, dth_nodes: np.ndarray, n_r: int, cfg: ConeConfig) -> np.ndarray:
    """K[t, i_dtheta, pair] for every time at once.

    A t that is not finite, or a phase t sqrt(lam) past the float range on
    the shell or of 2^52 or more on a mode of nonzero weight, raises
    DomainError first.  Each block is symmetric in (r_i, r_j), so only the
    pairs i <= j are formed, in np.triu_indices(n_r) order.  The blocks are
    contracted _HALFWAVE_K_CHUNK at a time: at the half-wave sweep's 19
    times, 41 radii (861 pairs) and 32 angles the accumulator holds 8.4 MB
    and a chunk's pair products 4.2 MB; SweepGrids' cell cap counts the
    accumulator.  Consecutive blocks holding the same sqrt(lam) and weight
    arrays (the k <= -1 branch) share one w e^{i t sqrt(lam)}.
    """
    if not np.isfinite(ts).all():
        raise DomainError(f"half-wave kernel needs a finite t, got {ts[~np.isfinite(ts)][0]}")
    t_max = float(np.abs(ts).max(initial=0.0))
    sq_max = max((float(sq.max(initial=0.0)) for _, sq, _, _ in blocks), default=0.0)
    if math.isinf(t_max * sq_max):
        raise DomainError(f"half-wave phase t sqrt(lam) overflows on its shell: |t| up to {t_max:g}, "
                          f"sqrt(lam) up to {sq_max:.6g}")
    _require_phase_digits("halfwave_kernel_grid",
                          t_max * max((float(sq[w != 0.0].max(initial=0.0)) for _, sq, w, _ in blocks), default=0.0))
    iu, ju = np.triu_indices(n_r)
    acc = np.zeros((ts.size, dth_nodes.size, iu.size), dtype=complex)
    formed_from = None  # ids of the sqrt(lam) and weight arrays the current weights were formed from
    for k0 in range(0, len(blocks), _HALFWAVE_K_CHUNK):
        chunk = blocks[k0:k0 + _HALFWAVE_K_CHUNK]
        mk = np.empty((ts.size, len(chunk), iu.size), dtype=complex)
        for i, (k, sq, w, rad) in enumerate(chunk):
            if (id(sq), id(w)) != formed_from:
                formed_from, weights = (id(sq), id(w)), w * np.exp(1j * ts[:, None] * sq)
            pairs = rad[:, iu]
            pairs *= rad[:, ju]
            mk[:, i].real = weights.real @ pairs
            mk[:, i].imag = weights.imag @ pairs
        ks = np.array([k for k, *_ in chunk], dtype=float)
        phase = np.exp(1j * np.multiply.outer(dth_nodes, ks / cfg.sigma))
        for acc_t, mk_t in zip(acc, mk):  # a product over all times at once would need a temporary the size of acc
            acc_t += phase @ mk_t
    return acc


def halfwave_kernel_grid(j: int, t: float, r_nodes: np.ndarray, dtheta_nodes: np.ndarray,
                         cfg: ConeConfig, window: ModeWindow) -> np.ndarray:
    """Frequency-truncated half-wave kernel on a grid of radii and angle gaps.

    Returns K[i_dtheta, i_r1, i_r2], symmetric in (i_r1, i_r2).  The k <= -1
    Landau branch is truncated by the evaluated radial magnitude on the
    requested radii (see _shell_blocks); a tail still above 1e-10 of its
    peak at the window edge raises WindowTooSmallError, and t is checked
    by _halfwave_pairs.
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    dtheta_nodes = np.asarray(dtheta_nodes, dtype=float)
    blocks, tail = _shell_blocks(j, cfg, window, r_nodes)
    if tail > 1e-10:
        raise WindowTooSmallError(
            f"degenerate-branch tail still {tail:.2e} of its peak at k=-{window.k_max}; enlarge k_max"
        )
    (pairs,) = _halfwave_pairs(blocks, np.array([t]), dtheta_nodes, r_nodes.size, cfg)
    return _symmetric(pairs, r_nodes.size)


def _symmetric(pairs: np.ndarray, n_r: int) -> np.ndarray:
    """out[..., i, j] = out[..., j, i] = pairs[..., p] for the p-th pair i <= j in np.triu_indices(n_r) order."""
    iu, ju = np.triu_indices(n_r)
    out = np.empty(pairs.shape[:-1] + (n_r, n_r), dtype=pairs.dtype)
    out[..., iu, ju] = pairs
    out[..., ju, iu] = pairs
    return out


def halfwave_sup_curve(j: int, ts: np.ndarray, r_nodes: np.ndarray, dtheta_nodes: np.ndarray,
                       cfg: ConeConfig, window: ModeWindow) -> np.ndarray:
    """S[i_t, i_r1, i_r2] = max over the angle gaps of |frequency-truncated half-wave kernel|; S is symmetric.

    S.max(axis=(1, 2)) is the sup curve over the whole grid, and
    S[:, ::2, ::2].max(axis=(1, 2)) the one over every other radius.  The
    shell is assembled once for every time, and each time is checked as
    halfwave_kernel_grid's t is.  Unlike halfwave_kernel_grid, the k <= -1
    branch's tail at the window edge is not checked.
    """
    blocks, _ = _shell_blocks(j, cfg, window, r_nodes)
    return _symmetric(np.abs(_halfwave_pairs(blocks, ts, dtheta_nodes, r_nodes.size, cfg)).max(axis=1), r_nodes.size)

