"""Dyadic frequency shells, Besov/Sobolev norms, Bernstein ratios.

The mother cutoff is a smooth bump supported on [1/2, 2] normalized by its
own dyadic dilates, which makes the partition of unity exact by
construction and guarantees at most two overlapping shells at any
frequency.  The package pins one cutoff; this module also holds the shell
bookkeeping every user of "dyadic shell j" shares: which modes the shell
holds, the window covering it, and the bound on its size.  Norms operate on SpectralField coefficient tables: L^2
quantities come straight from coefficients (Parseval), other L^p norms use
the fixed evaluation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowTooSmallError
from .geometry import ConeConfig, ConePoint
from .quadrature import EvaluationGrid, evaluation_grid
from .spectrum import (
    ModeWindow,
    SpectralField,
    eigenvalue,
    eigenvalue_table,
    fields_on_grid,
    point_field,
    random_field,
    signed_order,
    spectral_apply,
)

_SHELL_MODE_CAP = 1 << 20  # half-wave shell work bound; j <= 3 holds <= 132k on the reference configs
_RESIDUAL_J = 40  # partition_residual sums the shells |j| <= _RESIDUAL_J


def _mother_bump(lam: np.ndarray) -> np.ndarray:
    """C_c^inf bump on (1/2, 2), zero elsewhere."""
    lam = np.asarray(lam, dtype=float)
    y = (lam - 1.25) / 0.75
    inside = np.abs(y) < 1.0
    out = np.zeros_like(lam)
    ys = np.where(inside, y, 0.0)
    out[inside] = np.exp(-1.0 / (1.0 - ys[inside] ** 2))
    return out


def _dilate_sum(lam: np.ndarray) -> np.ndarray:
    """sum_j bump(2^{-j} lam); dilation-invariant and strictly positive."""
    lam = np.asarray(lam, dtype=float)
    j0 = np.floor(np.log2(np.where(lam > 0.0, lam, 1.0))).astype(int)
    total = np.zeros_like(lam)
    for dj in (-1, 0, 1):
        total += _mother_bump(lam / np.exp2(j0 + dj))
    return total


@dataclass(frozen=True)
class DyadicCutoff:
    """Smooth dyadic profile phi with supp phi in [1/2, 2], sum_j phi(2^-j l) = 1."""

    def __call__(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        pos = (lam > 0.0) & (lam < math.inf)
        out = np.zeros_like(lam)
        out[pos] = _mother_bump(lam[pos]) / _dilate_sum(lam[pos])
        return out

    def shell_weights(self, j: int, lam) -> np.ndarray:
        """phi(2^-j sqrt(lam)), the weights of dyadic shell j at eigenvalues lam.

        The power of two scales exactly, so a shell past the float range
        gets phi(0) = 0 or phi(inf) = 0 with no overflow.  Scaling by
        2^{+-2200} takes every finite sqrt(lam) > 0 out of that range, so
        clamping j there changes no weight.
        """
        with np.errstate(over="ignore"):
            return self(np.ldexp(np.sqrt(lam), -max(-2200, min(j, 2200))))

    def partition_residual(self, lam_grid: np.ndarray) -> float:
        """max |sum_j phi(2^-j lam) - 1| over the grid."""
        lam_grid = np.asarray(lam_grid, dtype=float)
        total = np.zeros_like(lam_grid)
        for j in range(-_RESIDUAL_J, _RESIDUAL_J + 1):
            total += self(lam_grid / 2.0 ** j)
        return float(np.abs(total - 1.0).max())


_CUTOFF = DyadicCutoff()


def make_cutoff() -> DyadicCutoff:
    """The package's pinned dyadic cutoff (all constants reproducible from it)."""
    return _CUTOFF


def shell_range(cfg: ConeConfig, window: ModeWindow) -> range:
    """Dyadic indices j whose shell meets the window's spectrum."""
    lam = eigenvalue_table(cfg, window)
    s_lo, s_hi = math.sqrt(float(lam.min())), math.sqrt(float(lam.max()))
    return range(math.floor(math.log2(s_lo)), math.floor(math.log2(s_hi)) + 2)


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
    _SHELL_MODE_CAP modes, then DomainError if it holds no mode.  The lowest
    eigenvalue is b0 and the levels lie at most 2 b0 apart, so a shell
    ending at or below b0 is the one way to miss every level; the integer
    power 4 ** (j + 1) is exact at any j.
    """
    _require_shell_bounded(j, cfg)
    if 4 ** (j + 1) <= cfg.b0:
        raise DomainError(f"half-wave shell j={j} holds no mode: it ends at eigenvalue 4^(j+1) = "
                          f"{4 ** (j + 1):.6g}, at or below the lowest one, b0 = {cfg.b0:g}")
    lam_hi = 4.0 ** (j + 1)
    return ModeWindow(k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
                      m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)


def shell_project(field: SpectralField, j: int, cfg: ConeConfig) -> SpectralField:
    """phi(2^-j sqrt(H)) f on the coefficient table."""
    return spectral_apply(lambda lam: _CUTOFF.shell_weights(j, lam), field, cfg)


def _shell_norms(field: SpectralField, p: float, cfg: ConeConfig) -> list[tuple[int, float]]:
    """(j, ||shell_j f||_{L^p}) for every shell meeting the field's window.

    p = 2 comes from coefficients; other p synthesize every shell on the
    evaluation grid in one pass.
    """
    shells = shell_range(cfg, field.window)
    if p == 2.0:
        return [(j, shell_project(field, j, cfg).coefficient_norm()) for j in shells]
    grid = evaluation_grid(cfg)
    values = fields_on_grid([shell_project(field, j, cfg) for j in shells], grid.r, grid.theta, cfg)
    return [(j, grid.lp_norm(v, p)) for j, v in zip(shells, values)]


def _besov(field: SpectralField, s: float, p: float, q: float,
           cfg: ConeConfig) -> tuple[list[tuple[int, float]], float]:
    """The shell norms and their ell^q sum of 2^{js} ||shell_j f||_{L^p}."""
    if q < 1.0 or p < 1.0:
        raise DomainError("besov_norm needs p, q >= 1")
    pieces = _shell_norms(field, p, cfg)
    if math.isinf(q):
        return pieces, max(2.0 ** (j * s) * n for j, n in pieces)
    return pieces, float(sum((2.0 ** (j * s) * n) ** q for j, n in pieces) ** (1.0 / q))


def besov_norm(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig) -> float:
    """Homogeneous Besov norm: ell^q over shells of 2^{js} ||shell_j f||_{L^p}.

    p = 2 is exact from coefficients; other p are quadrature norms on the
    fixed evaluation grid; p = inf means the grid maximum.
    """
    return _besov(field, s, p, q, cfg)[1]


def besov_report(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig) -> dict:
    """Norm plus per-shell breakdown, JSON-ready."""
    pieces, value = _besov(field, s, p, q, cfg)
    return {
        "s": s,
        "p": p,
        "q": q,
        "window": {"k_max": field.window.k_max, "m_max": field.window.m_max},
        "value": value,
        "shells": [{"j": j, "lp_norm": n} for j, n in pieces],
    }


def sobolev_norm(field: SpectralField, s: float, cfg: ConeConfig) -> float:
    """Homogeneous Sobolev norm (sum |lambda^{s/2} c|^2)^{1/2}, exact."""
    lam = eigenvalue_table(cfg, field.window)
    return float(np.linalg.norm(lam ** (s / 2.0) * field.coeffs))


def square_function_l2(field: SpectralField, cfg: ConeConfig) -> float:
    """L2 norm squared of the dyadic square function, from coefficients.

    Equals sum_j ||shell_j f||_2^2; lands in [1/2, 1] * ||f||_2^2 because at
    most two shells overlap at any eigenvalue.
    """
    return sum(n ** 2 for _, n in _shell_norms(field, 2.0, cfg))


def bernstein_ratio(j: int, p: float, q_exp: float, cfg: ConeConfig, window: ModeWindow,
                    trials: int = 8, seed: int = 0,
                    grid: EvaluationGrid | None = None) -> float:
    """Empirical Bernstein constant for the shell-j projector.

    max over trial fields of
        ||shell_j f||_{L^p} / (2^{2j(1/q - 1/p)} ||f||_{L^q}).
    Trials mix seeded random band-limited fields with point-kernel fields
    (coefficients conj(V(p0))); the latter are the near-extremizers, without
    them random fields underestimate the constant by j-dependent factors.
    Both norms run on the same grid, a like-for-like quadrature quantity.
    """
    if not (1.0 <= q_exp <= p):
        raise DomainError("bernstein_ratio needs 1 <= q_exp <= p")
    _shell_mode_lists(j, cfg, window)  # raises unless the window covers the shell

    if grid is None:
        grid = evaluation_grid(cfg)
    rng = np.random.default_rng(seed)
    fields = [random_field(window, rng) for _ in range(trials)]
    for r0 in (0.35, 0.9, 1.7):
        point = point_field(ConePoint(r0, 0.0), cfg, window)
        fields.append(point)
        # shell-localized variant: the L1-side extremizer shape
        fields.append(shell_project(point, j, cfg))
    inv_q = 0.0 if math.isinf(q_exp) else 1.0 / q_exp
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 2.0 ** (2 * j * (inv_q - inv_p))
    pairs = [g for f in fields for g in (shell_project(f, j, cfg), f)]
    values = fields_on_grid(pairs, grid.r, grid.theta, cfg)  # every trial field lives on the window
    best = 0.0
    for v_piece, v_f in zip(values, values):
        num = grid.lp_norm(v_piece, p)
        den = grid.lp_norm(v_f, q_exp)
        if den > 0.0:
            best = max(best, num / (scale * den))
    if best == 0.0:
        raise WindowTooSmallError(f"no spectral mass in shell {j} for the given window")
    return best
