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
from .geometry import ConeConfig, ConePoint, angular_difference
from .quadrature import adaptive_line, oscillatory_bessel_tail
from .spectrum import (
    ModeWindow,
    angular_order,
    eigenvalue,
    point_field,
    radial_profiles,
    signed_order,
    spectral_apply,
    synthesize,
)

_SIN_GUARD = 1e-6
_K_CAP = 8192
_BOUNDARY_EPS = 1e-9
_SHELL_MODE_CAP = 1 << 20  # half-wave shell work bound; j <= 3 holds <= 132k on the reference configs
_HALFWAVE_T_CHUNK = 4  # times per accumulator in _halfwave_pair_chunks
_HALFWAVE_K_CHUNK = 16  # angular blocks per phase contraction


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation controls: angular cutoff, panel order, half-line floor."""

    k_max: int = 40
    quad_nodes: int = 16
    s_max: float = 30.0

    def __post_init__(self) -> None:
        if self.k_max < 1 or self.quad_nodes < 4 or self.s_max < 10.0:
            raise DomainError("need k_max >= 1, quad_nodes >= 4, s_max >= 10")


@dataclass(frozen=True)
class KernelValue:
    """Kernel value with the peak summed-term magnitude as conditioning data."""

    value: complex
    largest_term: float
    truncation: TruncationSpec


def image_angles(theta: float, cfg: ConeConfig) -> np.ndarray:
    """All representatives theta + 2 pi sigma j with modulus <= pi."""
    period = cfg.period
    j_lo = math.floor((-math.pi - theta) / period) - 1
    j_hi = math.ceil((math.pi - theta) / period) + 1
    cand = theta + period * np.arange(j_lo, j_hi + 1)
    return cand[np.abs(cand) <= math.pi]


def _check_off_boundary(theta: float, cfg: ConeConfig) -> None:
    period = cfg.period
    j = np.round((np.array([-math.pi, math.pi]) - theta) / period)
    dist = np.abs(theta + period * j - np.array([-math.pi, math.pi])).min()
    if dist < _BOUNDARY_EPS:
        raise QuadratureError(
            f"angle {theta} sits on an image-sum boundary (|theta + 2 pi sigma j| = pi)"
        )


# ---------------------------------------------------------------------------
# angular tail sums
# ---------------------------------------------------------------------------

def schrodinger_angular_tail(s, theta: float, cfg: ConeConfig):
    """Closed form of sum_k e^{i k theta / sigma} sin(pi a_k) e^{-s a_k}.

    Analytic in Re s > 0 (poles only on the imaginary axis), so it accepts
    complex s; this is what the deformed tail contour integrates.  The two
    winding directions are combined into numerator/denominator pairs that
    stay stable at the removable s -> 0, phi -> 0 (mod 2 pi) corner.
    """
    s = np.asarray(s, dtype=complex)
    sg, al = cfg.sigma, cfg.alpha
    decay = np.exp(-s / sg)
    cosh_scaled = np.cosh(s / sg)

    def half(phi: float, phase_sign: float):
        den = cosh_scaled - math.cos(phi)
        num = np.cosh(s * al) * math.sin(phi) + 1j * phase_sign * np.sinh(s * al) * (
            math.cos(phi) - decay
        )
        return cmath.exp(1j * phase_sign * al * math.pi) / 2.0 * num / den

    phi_plus = (theta + math.pi) / sg
    phi_minus = (theta - math.pi) / sg
    out = np.exp(-s * al) * math.sin(al * math.pi) + half(phi_plus, +1.0) + half(-phi_minus, -1.0)
    return out


def heat_angular_tail(s, theta, t: float, cfg: ConeConfig):
    """Winding-number resummation entering the heat line integral.

    Evaluates b(w, theta) at w = s - t b0 with
    b(w, theta) = e^{alpha w} [ e^{i alpha pi} / (e^{(w + i(theta+pi))/sigma} - 1)
                              - e^{-i alpha pi} / (e^{(w + i(theta-pi))/sigma} - 1) ].
    Decays like e^{alpha w} as w -> -inf and e^{(alpha - 1/sigma) w} as w -> +inf.
    s is real and theta broadcasts against it (a column of angles against a
    row of nodes gives the product grid).
    """
    w = np.asarray(s, dtype=float) - t * cfg.b0
    sg, al = cfg.sigma, cfg.alpha
    plus = np.exp((w + 1j * (theta + math.pi)) / sg)
    minus = np.exp((w + 1j * (theta - math.pi)) / sg)
    return np.exp(al * w) * (
        cmath.exp(1j * al * math.pi) / (plus - 1.0) - cmath.exp(-1j * al * math.pi) / (minus - 1.0)
    )


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def _angular_series(terms_for, k0: int, what: str):
    """sum_k terms_for(k) over an adaptive, asymmetric k-range.

    Starts from |k| <= k0 and extends each side by blocks of 16 until the
    three terms at its edge fall below 1e-14 of the peak term; the edge
    terms are those of the initial range or of the block just added.
    Returns (total, peak, (k_lo, k_hi)).
    """
    k_lo, k_hi = -k0, k0
    terms = terms_for(np.arange(k_lo, k_hi + 1))
    mags = np.abs(terms)
    peak = float(mags.max())
    total = terms.sum()
    edge_lo, edge_hi = mags[:3].max(), mags[-3:].max()

    block = 16
    while not (edge_lo <= 1e-14 * max(peak, 1e-300) or k_lo <= -_K_CAP):
        new = terms_for(np.arange(k_lo - block, k_lo))
        mags = np.abs(new)
        total += new.sum()
        peak = max(peak, float(mags.max()))
        edge_lo = mags[:3].max()
        k_lo -= block
    while not (edge_hi <= 1e-14 * max(peak, 1e-300) or k_hi >= _K_CAP):
        new = terms_for(np.arange(k_hi + 1, k_hi + block + 1))
        mags = np.abs(new)
        total += new.sum()
        peak = max(peak, float(mags.max()))
        edge_hi = mags[-3:].max()
        k_hi += block
    if k_lo <= -_K_CAP or k_hi >= _K_CAP:
        raise NonconvergenceError(f"{what} angular series failed to converge within the k cap")
    return total, peak, (k_lo, k_hi)


def _heat_angular_series(cfg: ConeConfig, tb: float, x: float, theta: float, k0: int):
    """sum_k e^{i(k/sigma)(theta + i t b0)} I_{a_k}(x).

    Negative k carry the growing factor e^{|k| t b0 / sigma}; the Bessel
    order decay always wins eventually, but the crossover is found by
    extension rather than assumed.
    """
    if x == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)

    def terms_for(ks: np.ndarray) -> np.ndarray:
        a = angular_order(cfg, ks)
        iv = _sp.ive(a, x)
        log_mag = np.where(iv > 0.0, np.log(np.where(iv > 0.0, iv, 1.0)) + x - (ks / cfg.sigma) * tb, -np.inf)
        return np.exp(log_mag + 1j * (ks / cfg.sigma) * theta)

    return _angular_series(terms_for, k0, "heat")


def heat_kernel_series(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                       trunc: TruncationSpec = TruncationSpec()) -> KernelValue:
    """Heat kernel by the angular Bessel series."""
    if not (0.0 < t < math.inf):
        raise DomainError(f"heat kernel needs a finite t > 0, got {t}")
    tb = t * cfg.b0
    x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(tb))
    big_q = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(tb))
    theta = p.theta - q.theta
    total, peak, _ = _heat_angular_series(cfg, tb, x, theta, trunc.k_max)
    pref = cfg.b0 * math.exp(-tb * cfg.alpha) / (4.0 * math.pi * cfg.sigma * math.sinh(tb))
    scale = math.exp(-big_q) if big_q < 700 else 0.0
    return KernelValue(pref * scale * total, pref * scale * peak, trunc)


def heat_kernel_closed(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                       trunc: TruncationSpec = TruncationSpec()) -> KernelValue:
    """Heat kernel by the image sum plus resummed-tail line integral."""
    if not (0.0 < t < math.inf):
        raise DomainError(f"heat kernel needs a finite t > 0, got {t}")
    tb = t * cfg.b0
    x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(tb))
    big_q = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(tb))
    if x == 0.0:  # a point at the tip: every mode vanishes there
        return KernelValue(0.0 + 0.0j, 0.0, trunc)
    theta = angular_difference(p.theta, q.theta, cfg)
    _check_off_boundary(theta, cfg)

    images = image_angles(theta, cfg)
    jsum = sum(
        cmath.exp(x * cmath.cosh(complex(tb, -tj)) - big_q - 1j * cfg.alpha * tj) for tj in images
    )
    peak = max((abs(cmath.exp(x * cmath.cosh(complex(tb, -tj)) - big_q)) for tj in images), default=0.0)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-x * np.cosh(s) - big_q) * heat_angular_tail(s, theta, t, cfg)

    # range: the e^{-x cosh s} factor always caps the reach even when the
    # tail rates alpha, 1/sigma - alpha degenerate
    s_reach = math.acosh(1.0 + 50.0 / x) + 6.0
    rate_left = cfg.alpha
    rate_right = 1.0 / cfg.sigma - cfg.alpha
    s_lo = tb - min(max(trunc.s_max, 45.0 / rate_left), s_reach + abs(tb))
    s_hi = tb + min(max(trunc.s_max, 45.0 / rate_right), s_reach + abs(tb))
    probes = np.linspace(s_lo, s_hi, 41)
    mass = float(np.abs(integrand(probes)).max()) * (s_hi - s_lo)
    # accuracy target is relative to the whole bracket, not the tail alone
    tol = max(1e-12 * max(mass, 2.0 * math.pi * cfg.sigma * abs(jsum)), 1e-320)
    edges = np.unique(np.concatenate([
        np.array([s_lo, min(0.0, tb), 0.0, tb, s_hi]),
        np.linspace(s_lo, s_hi, 25),
    ]))
    integral = adaptive_line(integrand, edges, tol, trunc.quad_nodes)
    bracket = jsum + integral / (2j * math.pi * cfg.sigma)
    pref = cfg.b0 / (4.0 * math.pi * math.sinh(tb))
    peak = max(peak, abs(integral) / (2.0 * math.pi * cfg.sigma))
    return KernelValue(pref * bracket, pref * peak, trunc)


def heat_closed_bracket_grid(x_vec: np.ndarray, theta_vec: np.ndarray, t: float,
                             cfg: ConeConfig, order: int = 16) -> np.ndarray:
    """Closed-form heat bracket (without the e^{-Q} factor) on a product grid.

    Returns M[i_theta, i_x] with
        K^H = b0 / (4 pi sinh(t b0)) * e^{-Q} * M
    evaluated through the image sum plus a shared-node line integral, which
    is free of the deep cancellation the angular series hits when
    x (1 - cos theta cosh t b0) is large.  Fixed graded panels: dense near
    s = 0 (Laplace peak) and near s = t b0 (tail-pole proximity at image
    boundaries); intended for sweep-grade accuracy (~1e-8 relative).
    """
    x_vec = np.asarray(x_vec, dtype=float)
    theta_vec = np.asarray(theta_vec, dtype=float)
    tb = t * cfg.b0
    x_min = float(x_vec.min())
    if x_min <= 0.0:
        raise DomainError("heat_closed_bracket_grid needs strictly positive x")
    s_reach = math.acosh(1.0 + 50.0 / x_min) + 6.0 + abs(tb)
    rate_left, rate_right = cfg.alpha, 1.0 / cfg.sigma - cfg.alpha
    s_lo = tb - min(45.0 / rate_left, s_reach)
    s_hi = tb + min(45.0 / rate_right, s_reach)
    edges = np.unique(np.concatenate([
        np.linspace(-1.5, 1.5, 61),
        np.linspace(tb - 0.8, tb + 0.8, 81),
        np.linspace(s_lo, s_hi, 97),
    ]))
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * gl_x[None, :]).ravel()
    weights = (halfs[:, None] * gl_w[None, :]).ravel()

    tail = heat_angular_tail(nodes[None, :], theta_vec[:, None], t, cfg) * weights[None, :]
    envelope = np.exp(-np.outer(np.cosh(nodes), x_vec))
    integral = tail @ envelope  # (n_theta, n_x)

    out = integral / (2j * math.pi * cfg.sigma)
    for i_th, th in enumerate(theta_vec):
        for tj in image_angles(float(th), cfg):
            out[i_th] += np.exp(x_vec * cmath.cosh(complex(tb, -tj)) - 1j * cfg.alpha * tj)
    return out


# ---------------------------------------------------------------------------
# Schrodinger kernel
# ---------------------------------------------------------------------------

def _require_regular_time(t: float, cfg: ConeConfig) -> float:
    if not math.isfinite(t):
        raise DomainError(f"Schrodinger kernel needs a finite t, got {t}")
    sin_tb = math.sin(t * cfg.b0)
    if abs(sin_tb) < _SIN_GUARD:
        raise SingularTimeError(
            f"|sin(t b0)| = {abs(sin_tb):.2e} < {_SIN_GUARD}; kernel is singular near t b0 in pi Z"
        )
    return sin_tb


def _rotated_bessel(cfg: ConeConfig, ks: np.ndarray, rho: float) -> np.ndarray:
    """I_{a_k}(i rho) for signed rho, via the Bessel-J rotation."""
    a = angular_order(cfg, ks)
    return np.exp(1j * math.copysign(1.0, rho) * a * math.pi / 2.0) * _sp.jv(a, abs(rho))


def _schrodinger_angular_series(cfg: ConeConfig, rho: float, theta: float, k0: int):
    """sum_k e^{i(k/sigma) theta} I_{a_k}(i rho)."""
    if rho == 0.0:
        return 0.0 + 0.0j, 0.0, (0, 0)
    return _angular_series(
        lambda ks: np.exp(1j * (ks / cfg.sigma) * theta) * _rotated_bessel(cfg, ks, rho), k0, "Schrodinger"
    )


def _schrodinger_prefactor(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                           sin_tb: float) -> complex:
    tb = t * cfg.b0
    return (
        1j * cfg.b0 * cmath.exp(1j * tb * cfg.alpha) / (8.0 * math.pi * cfg.sigma * sin_tb)
        * cmath.exp(cfg.b0 * (p.r ** 2 + q.r ** 2) / (4j * math.tan(tb)))
    )


def schrodinger_kernel_series(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                              trunc: TruncationSpec = TruncationSpec()) -> KernelValue:
    """Schrodinger kernel by the angular Bessel series."""
    sin_tb = _require_regular_time(t, cfg)
    rho = cfg.b0 * p.r * q.r / (2.0 * sin_tb)
    theta = t * cfg.b0 - (p.theta - q.theta)
    total, peak, _ = _schrodinger_angular_series(cfg, rho, theta, trunc.k_max)
    pref = _schrodinger_prefactor(t, p, q, cfg, sin_tb)
    return KernelValue(pref * total, abs(pref) * peak, trunc)


def _closed_angular_bracket(cfg: ConeConfig, rho: float, theta: float,
                            trunc: TruncationSpec) -> tuple[complex, float]:
    """Image sum minus tail integral for sum_k e^{ik theta/sigma} I_{a_k}(i rho)/sigma.

    Returns (bracket, peak) with  sum_k ... = sigma * bracket.
    """
    if rho < 0.0:
        bracket, peak = _closed_angular_bracket(cfg, -rho, -theta, trunc)
        return bracket.conjugate(), peak
    _check_off_boundary(theta, cfg)
    images = image_angles(theta, cfg)
    jsum = sum(cmath.exp(1j * rho * math.cos(tj) - 1j * cfg.alpha * tj) for tj in images)

    rate = min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)

    def f(s):
        return np.exp(-1j * rho * np.cosh(np.asarray(s, dtype=complex))) * schrodinger_angular_tail(
            s, theta, cfg
        )

    tol = 1e-11 * max(1.0, abs(jsum))
    tail = oscillatory_bessel_tail(f, rho, rate, tol, trunc.quad_nodes)
    bracket = jsum - tail / (cfg.sigma * math.pi)
    peak = max(1.0 if images.size else 0.0, abs(tail) / (cfg.sigma * math.pi))
    return bracket, peak


def schrodinger_kernel_closed(t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                              trunc: TruncationSpec = TruncationSpec()) -> KernelValue:
    """Schrodinger kernel by the image sum plus deformed tail integral."""
    sin_tb = _require_regular_time(t, cfg)
    rho = cfg.b0 * p.r * q.r / (2.0 * sin_tb)
    theta = t * cfg.b0 - (p.theta - q.theta)
    bracket, peak = _closed_angular_bracket(cfg, rho, theta, trunc)
    pref = _schrodinger_prefactor(t, p, q, cfg, sin_tb)
    return KernelValue(pref * cfg.sigma * bracket, abs(pref) * cfg.sigma * peak, trunc)


# ---------------------------------------------------------------------------
# reduced angular kernel
# ---------------------------------------------------------------------------

def reduced_kernel(rho: float, delta: float, cfg: ConeConfig,
                   trunc: TruncationSpec = TruncationSpec()) -> complex:
    """The universal angular series sum_k e^{i k delta / sigma} I_{a_k}(i rho)."""
    if rho < 0.0:
        raise DomainError(f"reduced_kernel needs rho >= 0, got {rho}")
    total, _, _ = _schrodinger_angular_series(cfg, rho, delta, trunc.k_max)
    return complex(total)


def reduced_kernel_matrix(rho: np.ndarray, delta: np.ndarray, cfg: ConeConfig,
                          trunc: TruncationSpec = TruncationSpec()) -> np.ndarray:
    """reduced_kernel on a product grid; shape (len(delta), len(rho)).

    One Bessel matrix serves every delta, so sweeps over large grids cost a
    single matrix product.
    """
    rho = np.asarray(rho, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(rho < 0.0):
        raise DomainError("reduced_kernel_matrix needs rho >= 0")
    rho_max = float(rho.max(initial=0.0))
    k_hi = trunc.k_max
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
    bessel = np.exp(1j * a * math.pi / 2.0)[:, None] * _sp.jv(a[:, None], rho[None, :])
    phases = np.exp(1j * np.outer(delta, ks / cfg.sigma))
    return phases @ bessel


# ---------------------------------------------------------------------------
# spectral-representation kernels
# ---------------------------------------------------------------------------

def spectral_kernel(multiplier, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                    window: ModeWindow) -> complex:
    """Kernel of F(H) truncated to the window: sum F(lam) V(p) conj(V(q))."""
    return synthesize(spectral_apply(multiplier, point_field(q, cfg, window), cfg), p, cfg)


def _require_shell_bounded(j: int, cfg: ConeConfig) -> None:
    """Raise WindowTooSmallError if dyadic shell j may hold more than _SHELL_MODE_CAP modes.

    A closed form, so callers check it before they iterate or allocate
    anything: at most sigma * lam_hi / (2 b0) + 1 rows k >= 0 lie below
    lam_hi = 4^{j+1}, plus the degenerate row, each with at most
    lam_hi / (2 b0) + 1 levels m.  The exponent is capped only so that the
    bound stays a finite float.
    """
    half_levels = 2.0 ** (2 * min(j, 500) + 1) / cfg.b0  # lam_hi / (2 b0)
    modes = (cfg.sigma * half_levels + 2.0) * (half_levels + 1.0)
    if modes > _SHELL_MODE_CAP:
        raise WindowTooSmallError(f"shell j={j} may hold {modes:.3g} modes, above the cap of {_SHELL_MODE_CAP}")


def _shell_mode_lists(j: int, cfg: ConeConfig, window: ModeWindow):
    """Modes with sqrt(lambda) inside the dyadic shell (2^{j-1}, 2^{j+1}).

    Returns [(k, m_array)] for k >= 0 (finite by growth in k) and the shell
    m-range shared by every k <= -1.  Raises WindowTooSmallError if the
    window cannot contain the shell, or if the shell holds more than
    _SHELL_MODE_CAP modes.
    """
    _require_shell_bounded(j, cfg)
    lam_lo, lam_hi = 4.0 ** (j - 1), 4.0 ** (j + 1)
    pos = []
    for k in range(0, window.k_max + 1):
        lam0 = float(eigenvalue(cfg, k, 0))
        if lam0 >= lam_hi:
            break
        m_lo = max(0, math.ceil((lam_lo / cfg.b0 - 1.0 - 2.0 * float(signed_order(cfg, k))) / 2.0))
        m_hi = math.floor((lam_hi / cfg.b0 - 1.0 - 2.0 * float(signed_order(cfg, k))) / 2.0)
        if m_hi > window.m_max:
            raise WindowTooSmallError(
                f"shell j={j} needs m up to {m_hi} at k={k}, window has m_max={window.m_max}"
            )
        if m_hi >= m_lo:
            pos.append((k, np.arange(m_lo, m_hi + 1)))
    else:
        if float(eigenvalue(cfg, window.k_max + 1, 0)) < lam_hi:
            raise WindowTooSmallError(
                f"shell j={j} extends past k_max={window.k_max} on the k >= 0 side"
            )
    m_lo_neg = max(0, math.ceil((lam_lo / cfg.b0 - 1.0) / 2.0))
    m_hi_neg = math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)
    if m_hi_neg > window.m_max:
        raise WindowTooSmallError(
            f"shell j={j} needs m up to {m_hi_neg} on the degenerate branch, window has m_max={window.m_max}"
        )
    neg_ms = np.arange(m_lo_neg, m_hi_neg + 1) if m_hi_neg >= m_lo_neg else np.arange(0)
    return pos, neg_ms


def shell_window(j: int, cfg: ConeConfig) -> ModeWindow:
    """The smallest mode window covering dyadic shell j.

    Raises WindowTooSmallError first if the shell may hold more than
    _SHELL_MODE_CAP modes.
    """
    _require_shell_bounded(j, cfg)
    lam_hi = 4.0 ** (j + 1)
    return ModeWindow(k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
                      m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)


def _shell_blocks(j: int, cfg: ConeConfig, window: ModeWindow, r_nodes: np.ndarray, cutoff):
    """Time-independent blocks (k, sqrt(lam), phi(2^-j sqrt(lam)), V_{k,m}(r_nodes)) of shell j.

    The k <= -1 Landau branch shares one m-range and one set of weights.  Its
    row k is kept while (max_m phi |V|)^2 exceeds 1e-13 of the branch peak;
    the branch stops after three rows in a row below that, or at k = -k_max.
    Returns (blocks, tail), tail being the last row's magnitude over that peak
    (1 if the window holds no k <= -1 row): far above 1e-13, the window cut the branch.
    """
    pos, neg_ms = _shell_mode_lists(j, cfg, window)
    blocks = []
    for k, ms in pos:
        lam = np.asarray(eigenvalue(cfg, k, ms), dtype=float)
        rad = radial_profiles(cfg, k, int(ms.max()), r_nodes)[ms, :]
        blocks.append((k, np.sqrt(lam), cutoff.shell_weights(j, lam), rad))
    tail = 0.0
    if neg_ms.size:
        lam_neg = np.asarray(eigenvalue(cfg, -1, neg_ms), dtype=float)
        w_neg = cutoff.shell_weights(j, lam_neg)
        scale, tail = 0.0, 1.0
        k = -1
        stall = 0
        while -k <= window.k_max:
            rad = radial_profiles(cfg, k, int(neg_ms.max()), r_nodes)[neg_ms, :]
            mag = float((w_neg[:, None] * np.abs(rad)).max()) ** 2
            scale = max(scale, mag)
            tail = mag / max(scale, 1e-300)
            if mag <= 1e-13 * max(scale, 1e-300):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
                blocks.append((k, np.sqrt(lam_neg), w_neg, rad))
            k -= 1
    return blocks, tail


def _halfwave_pair_chunks(blocks: list, ts: np.ndarray, dth_nodes: np.ndarray, n_r: int, cfg: ConeConfig):
    """Yield K[t, i_dtheta, pair] for successive chunks of _HALFWAVE_T_CHUNK times.

    Each block is symmetric in (r_i, r_j), so only the pairs i <= j are
    formed, in np.triu_indices(n_r) order.  Chunking the times keeps the
    accumulator and the pair products near 2 MB.
    """
    iu, ju = np.triu_indices(n_r)
    for t0 in range(0, ts.size, _HALFWAVE_T_CHUNK):
        tc = ts[t0:t0 + _HALFWAVE_T_CHUNK]
        acc = np.zeros((tc.size, dth_nodes.size, iu.size), dtype=complex)
        for k0 in range(0, len(blocks), _HALFWAVE_K_CHUNK):
            chunk = blocks[k0:k0 + _HALFWAVE_K_CHUNK]
            mk = np.empty((tc.size, len(chunk), iu.size), dtype=complex)
            for i, (k, sq, w, rad) in enumerate(chunk):
                weights = w * np.exp(1j * tc[:, None] * sq)
                pairs = rad[:, iu]
                pairs *= rad[:, ju]
                mk[:, i].real = weights.real @ pairs
                mk[:, i].imag = weights.imag @ pairs
            ks = np.array([k for k, *_ in chunk], dtype=float)
            phase = np.exp(1j * np.multiply.outer(dth_nodes, ks / cfg.sigma))
            for i_t in range(tc.size):
                acc[i_t] += phase @ mk[i_t]
        yield acc


def halfwave_kernel_grid(j: int, t: float, r_nodes: np.ndarray, dtheta_nodes: np.ndarray,
                         cfg: ConeConfig, window: ModeWindow, cutoff=None) -> np.ndarray:
    """Frequency-truncated half-wave kernel on a grid of radii and angle gaps.

    Returns K[i_dtheta, i_r1, i_r2], symmetric in (i_r1, i_r2).  The k <= -1
    Landau branch is truncated by the evaluated radial magnitude on the
    requested radii (see _shell_blocks); a tail still above 1e-10 of its
    peak at the window edge raises WindowTooSmallError.
    """
    if not math.isfinite(t):
        raise DomainError(f"half-wave kernel needs a finite t, got {t}")
    if cutoff is None:
        from .lpbesov import make_cutoff

        cutoff = make_cutoff()
    r_nodes = np.asarray(r_nodes, dtype=float)
    dtheta_nodes = np.asarray(dtheta_nodes, dtype=float)
    blocks, tail = _shell_blocks(j, cfg, window, r_nodes, cutoff)
    if tail > 1e-10:
        raise WindowTooSmallError(
            f"degenerate-branch tail still {tail:.2e} of its peak at k=-{window.k_max}; enlarge k_max"
        )
    (pairs,) = _halfwave_pair_chunks(blocks, np.array([t]), dtheta_nodes, r_nodes.size, cfg)
    iu, ju = np.triu_indices(r_nodes.size)
    out = np.empty((dtheta_nodes.size, r_nodes.size, r_nodes.size), dtype=complex)
    out[:, iu, ju] = pairs[0]
    out[:, ju, iu] = pairs[0]
    return out


def halfwave_kernel_truncated(j: int, t: float, p: ConePoint, q: ConePoint, cfg: ConeConfig,
                              window: ModeWindow, cutoff=None) -> complex:
    """Frequency-truncated half-wave kernel at a pair of points."""
    dtheta = p.theta - q.theta
    if abs(p.r - q.r) < 1e-15:
        grid = halfwave_kernel_grid(j, t, np.array([p.r]), np.array([dtheta]), cfg, window, cutoff)
        return complex(grid[0, 0, 0])
    grid = halfwave_kernel_grid(j, t, np.array([p.r, q.r]), np.array([dtheta]), cfg, window, cutoff)
    return complex(grid[0, 0, 1])
