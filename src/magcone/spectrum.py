"""Discrete spectrum of the cone operator and expansions in its eigenbasis.

Eigenvalues come in Landau-type ladders ``(2m + 1 + |s_k| + s_k) b0`` with
``s_k = k/sigma + alpha``; for ``k <= -1`` the flux term cancels exactly and
every angular mode shares the level ``(2m+1) b0``.  Eigenfunctions factor
into a normalized radial profile (power * Gaussian * Laguerre polynomial)
and the phase ``e^{i k theta / sigma}``.  The module provides the
eigenbasis, projection onto a finite mode window, synthesis back to points,
and the functional calculus on coefficient tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DomainError, QuadratureError
from .geometry import ConeConfig, ConePoint
from .quadrature import genlaguerre_rule


@dataclass(frozen=True)
class ModeIndex:
    """Angular mode k and radial level m."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise DomainError(f"radial level m must be >= 0, got {self.m}")


@dataclass(frozen=True)
class ModeData:
    """Derived quantities of one mode: order, ladder offset, eigenvalue, norm."""

    alpha_k: float
    beta_k: float
    lam: float
    norm_sq: float


@dataclass(frozen=True)
class ModeWindow:
    """Rectangular index window |k| <= k_max, 0 <= m <= m_max."""

    k_max: int
    m_max: int

    def __post_init__(self) -> None:
        if self.k_max < 0 or self.m_max < 0:
            raise DomainError("window bounds must be nonnegative")

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.m_max + 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (2 * self.k_max + 1, self.m_max + 1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of the reference quadrature used by expand()."""

    n_radial: int = 80
    n_theta: int = 256


@dataclass(frozen=True)
class SpectralField:
    """Coefficient table c[k, m] w.r.t. the normalized eigenfunctions."""

    window: ModeWindow
    coeffs: np.ndarray  # complex, shape window.shape

    def __post_init__(self) -> None:
        if self.coeffs.shape != self.window.shape:
            raise DomainError(
                f"coefficient table shape {self.coeffs.shape} != window shape {self.window.shape}"
            )

    def coefficient_norm(self) -> float:
        """l2 norm of the coefficients = L2(X) norm of the represented function."""
        return float(np.linalg.norm(self.coeffs))


def signed_order(cfg: ConeConfig, k) -> np.ndarray:
    """s_k = k/sigma + alpha; its sign decides the degenerate branch."""
    return np.asarray(k, dtype=float) / cfg.sigma + cfg.alpha


def angular_order(cfg: ConeConfig, k) -> np.ndarray:
    """Bessel/Laguerre order |k/sigma + alpha| of mode k."""
    return np.abs(signed_order(cfg, k))


def eigenvalue(cfg: ConeConfig, k, m) -> np.ndarray:
    """Eigenvalue (2m + 1 + |s_k| + s_k) b0, exact (2m+1) b0 on the s_k < 0 branch.

    The degenerate branch is taken by a sign test, never by subtracting
    |s_k| from s_k, so the Landau levels carry no rounding drift.
    """
    s = signed_order(cfg, k)
    m = np.asarray(m, dtype=float)
    flux_part = np.where(s > 0.0, 2.0 * s, 0.0)
    return (2.0 * m + 1.0 + flux_part) * cfg.b0


def log_norm_sq(cfg: ConeConfig, k, m) -> np.ndarray:
    """log of the squared L2 norm of the unnormalized eigenfunction.

    norm_sq = (1/2) (2/b0)^(a_k+1) Gamma(1+a_k)^2 m! / Gamma(m+a_k+1).
    """
    a = angular_order(cfg, k)
    m = np.asarray(m, dtype=float)
    return (
        math.log(0.5)
        + (a + 1.0) * math.log(2.0 / cfg.b0)
        + 2.0 * _sp.gammaln(a + 1.0)
        + _sp.gammaln(m + 1.0)
        - _sp.gammaln(m + a + 1.0)
    )


def mode_data(idx: ModeIndex, cfg: ConeConfig) -> ModeData:
    """All derived quantities of a single mode."""
    s = float(signed_order(cfg, idx.k))
    a = abs(s)
    beta = (1.0 + a + s) * cfg.b0
    lam = float(eigenvalue(cfg, idx.k, idx.m))
    nsq = float(np.exp(log_norm_sq(cfg, idx.k, idx.m)))
    return ModeData(alpha_k=a, beta_k=beta, lam=lam, norm_sq=nsq)


def _unit_laguerre_rows(a: float, m_max: int, u: np.ndarray) -> np.ndarray:
    """Rows of at-zero-normalized Laguerre polynomials over the nodes u."""
    polys = np.empty((m_max + 1, u.size))
    polys[0] = 1.0
    if m_max >= 1:
        polys[1] = 1.0 - u / (1.0 + a)
    for n in range(1, m_max):
        polys[n + 1] = ((2 * n + 1 + a - u) * polys[n] - n * polys[n - 1]) / (n + 1 + a)
    return polys


def radial_profiles(cfg: ConeConfig, k: int, m_max: int, r) -> np.ndarray:
    """Normalized radial factors R[m, i] of modes (k, 0..m_max) at radii r[i].

    The full normalized eigenfunction is R[m, i] * exp(i k theta / sigma);
    the angular normalization 1/sqrt(2 pi sigma) is folded into R.
    The Laguerre recurrence runs in the at-zero-normalized scale.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a = float(angular_order(cfg, k))
    u = cfg.b0 * r * r / 2.0
    polys = _unit_laguerre_rows(a, m_max, u)

    with np.errstate(divide="ignore"):
        log_radial = np.where(r > 0.0, a * np.log(np.where(r > 0.0, r, 1.0)), -np.inf if a > 0 else 0.0)
    log_radial = log_radial - u / 2.0 - 0.5 * math.log(cfg.period)
    log_norm = log_norm_sq(cfg, k, np.arange(m_max + 1))
    scale = np.exp(log_radial[None, :] - 0.5 * log_norm[:, None])
    return polys * scale


def eigenfunction(idx: ModeIndex, p: ConePoint, cfg: ConeConfig, normalized: bool = True) -> complex:
    """Eigenfunction value at a point (L2-normalized unless normalized=False)."""
    rad = radial_profiles(cfg, idx.k, idx.m, np.array([p.r]))[idx.m, 0]
    if not normalized:
        rad *= math.exp(0.5 * float(log_norm_sq(cfg, idx.k, idx.m)))
    return rad * np.exp(1j * (idx.k / cfg.sigma) * p.theta)


def _angular_nodes(cfg: ConeConfig, n_theta: int) -> np.ndarray:
    return np.arange(n_theta) * (cfg.period / n_theta)


def expand(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    window: ModeWindow,
    cfg: ConeConfig,
    quad: QuadratureSpec = QuadratureSpec(),
) -> SpectralField:
    """Project a function onto the eigenbasis over the window.

    f(r, theta) must accept broadcast ndarrays and return the sampled values.
    The angular projection is the exact trapezoid rule on the uniform circle
    grid (spectrally exact for band-limited f); the radial integral uses the
    generalized Gauss-Laguerre rule matched to each mode's order, which is
    exact whenever f lies in the window's span.
    """
    if window.k_max > quad.n_theta // 2 - 1:
        raise QuadratureError(
            f"k_max={window.k_max} exceeds the angular resolution of n_theta={quad.n_theta}"
        )
    theta = _angular_nodes(cfg, quad.n_theta)
    coeffs = np.zeros(window.shape, dtype=complex)
    ms = window.m_values

    for ik, k in enumerate(window.k_values):
        a = float(angular_order(cfg, k))
        u, w = genlaguerre_rule(quad.n_radial, a)
        r = np.sqrt(2.0 * u / cfg.b0)
        samples = np.asarray(f(r[:, None], theta[None, :]), dtype=complex)
        fk = samples @ np.exp(-1j * (k / cfg.sigma) * theta) / quad.n_theta

        # node factors: weight * exp(u/2 - (a/2) ln u + (a/2) ln(2/b0)), in log space
        g = np.exp(np.log(w) + u / 2.0 - (a / 2.0) * np.log(u) + (a / 2.0) * math.log(2.0 / cfg.b0))
        polys = _unit_laguerre_rows(a, window.m_max, u)
        log_norm = log_norm_sq(cfg, k, ms)
        pref = math.sqrt(cfg.period) / cfg.b0 * np.exp(-0.5 * log_norm)
        coeffs[ik] = pref * (polys @ (g * fk))
    return SpectralField(window=window, coeffs=coeffs)


def field_on_grid(field: SpectralField, r, theta, cfg: ConeConfig) -> np.ndarray:
    """Synthesize the field on the product grid r x theta; shape (len(r), len(theta))."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.zeros((r.size, theta.size), dtype=complex)
    for ik, k in enumerate(field.window.k_values):
        ck = field.coeffs[ik]
        if not np.any(ck):
            continue
        rad = radial_profiles(cfg, int(k), field.window.m_max, r)  # (m, r)
        v = ck @ rad  # (r,)
        out += np.outer(v, np.exp(1j * (k / cfg.sigma) * theta))
    return out


def synthesize(field: SpectralField, p: ConePoint, cfg: ConeConfig) -> complex:
    """Pointwise synthesis of the field at p."""
    return complex(field_on_grid(field, [p.r], [p.theta], cfg)[0, 0])


def eigenvalue_table(cfg: ConeConfig, window: ModeWindow) -> np.ndarray:
    """Eigenvalues over the window, shape window.shape."""
    return eigenvalue(cfg, window.k_values[:, None], window.m_values[None, :])


def spectral_apply(
    multiplier: Callable[[np.ndarray], np.ndarray],
    field: SpectralField,
    cfg: ConeConfig,
) -> SpectralField:
    """Apply a spectral multiplier F(H): coefficients scale by F(lambda_mode)."""
    lam = eigenvalue_table(cfg, field.window)
    factors = np.asarray(multiplier(lam))
    return SpectralField(window=field.window, coeffs=field.coeffs * factors)


# -- standard multipliers ---------------------------------------------------

def heat_multiplier(t: float):
    return lambda lam: np.exp(-t * lam)


def schrodinger_multiplier(t: float):
    return lambda lam: np.exp(1j * t * lam)


def halfwave_multiplier(t: float):
    return lambda lam: np.exp(1j * t * np.sqrt(lam))


def fractional_flow_multiplier(nu: float, t: float):
    return lambda lam: np.exp(1j * t * lam ** nu)


# -- serialization ----------------------------------------------------------

_CSV_HEADER = "k,m,re_c,im_c"


def save_field(field: SpectralField, cfg: ConeConfig, quad: QuadratureSpec,
               csv_path: str | Path, json_path: str | Path | None = None) -> None:
    """Write the coefficient table as CSV plus a JSON header."""
    csv_path = Path(csv_path)
    lines = [_CSV_HEADER]
    for ik, k in enumerate(field.window.k_values):
        for im, m in enumerate(field.window.m_values):
            c = field.coeffs[ik, im]
            lines.append(f"{int(k)},{int(m)},{c.real:.17g},{c.imag:.17g}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = {
        "window": {"k_max": field.window.k_max, "m_max": field.window.m_max},
        "cone": {"sigma": cfg.sigma, "b0": cfg.b0, "alpha": cfg.alpha},
        "quadrature": {"n_radial": quad.n_radial, "n_theta": quad.n_theta},
    }
    if json_path is None:
        json_path = csv_path.with_suffix(".json")
    Path(json_path).write_text(json.dumps(header, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_field(csv_path: str | Path) -> SpectralField:
    """Read a coefficient table written by save_field."""
    lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise DomainError(f"{csv_path}: not a spectral-field CSV (bad header)")
    rows = []
    for line in lines[1:]:
        k_s, m_s, re_s, im_s = line.split(",")
        rows.append((int(k_s), int(m_s), float(re_s), float(im_s)))
    if not rows:
        raise DomainError(f"{csv_path}: empty coefficient table")
    k_max = max(abs(k) for k, _, _, _ in rows)
    m_max = max(m for _, m, _, _ in rows)
    window = ModeWindow(k_max=k_max, m_max=m_max)
    coeffs = np.zeros(window.shape, dtype=complex)
    for k, m, re, im in rows:
        coeffs[k + k_max, m] = re + 1j * im
    return SpectralField(window=window, coeffs=coeffs)


def random_field(window: ModeWindow, rng: np.random.Generator, normalize: bool = True) -> SpectralField:
    """Random band-limited field: coefficients uniform on the unit disk, then normalized."""
    radii = np.sqrt(rng.uniform(size=window.shape))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=window.shape)
    coeffs = radii * np.exp(1j * phases)
    if normalize:
        coeffs = coeffs / np.linalg.norm(coeffs)
    return SpectralField(window=window, coeffs=coeffs)
