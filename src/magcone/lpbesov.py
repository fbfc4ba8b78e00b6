"""Dyadic frequency shells, Besov/Sobolev norms, Bernstein ratios.

The mother cutoff is a smooth bump supported on [1/2, 2] normalized by its
own dyadic dilates, which makes the partition of unity exact by
construction and guarantees at most two overlapping shells at any
frequency.  The package pins one cutoff; this module also holds the shell
bookkeeping every user of "dyadic shell j" shares: which modes the shell
holds (_shell_table, read off the eigenvalue table its weights come from),
the window covering it, and the bound on its size.  Norms operate on
SpectralField coefficient tables: L^2 quantities come straight from
coefficients (Parseval), other L^p norms use the fixed evaluation grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    """Raise DomainError if dyadic shell j may hold more than _SHELL_MODE_CAP modes.

    A closed form, so callers check it before they iterate or allocate
    anything: at most sigma * lam_hi / (2 b0) + 1 rows k >= 0 lie below
    lam_hi = 4^{j+1}, plus the degenerate row, each with at most
    lam_hi / (2 b0) + 1 levels m.  The exponent is capped only so that the
    bound stays a finite float.  A shell that passes the cap (a huge b0)
    but whose edge lam_hi passes the float range raises DomainError.
    """
    half_levels = 2.0 ** (2 * min(j, 500) + 1) / cfg.b0  # lam_hi / (2 b0)
    modes = (cfg.sigma * half_levels + 2.0) * (half_levels + 1.0)
    if modes > _SHELL_MODE_CAP:
        raise DomainError(f"shell j={j} may hold {modes:.3g} modes, above the cap of {_SHELL_MODE_CAP}")
    if 2 * (j + 1) >= sys.float_info.max_exp:
        raise DomainError(f"half-wave shell j={j} ends at eigenvalue 4^(j+1) = 2^{2 * (j + 1)}, "
                          "past the float range")


def _shell_table(j: int, cfg: ConeConfig, window: ModeWindow):
    """(lam, weights, mask, branch): the window's eigenvalue table, phi(2^-j sqrt(lam)), 4^{j-1} <= lam <= 4^{j+1}.

    branch is (ms, lam, weights) of the shell's levels on the degenerate
    ladder (2m + 1) b0, m <= m_max, which every k <= -1 row holds, at any
    k_max.  After _require_shell_bounded, DomainError if
    eigenvalue(k_max + 1, 0) lies below 4^{j+1}, or the ladder's level
    m_max + 1, the lowest mode past m_max, at or below it.
    """
    _require_shell_bounded(j, cfg)
    lam_lo, lam_hi = 4.0 ** (j - 1), 4.0 ** (j + 1)
    if float(eigenvalue(cfg, window.k_max + 1, 0)) < lam_hi:
        raise DomainError(f"shell j={j} extends past k_max={window.k_max} on the k >= 0 side")
    ladder = eigenvalue(cfg, -1, np.arange(window.m_max + 2))
    if ladder[-1] <= lam_hi:
        raise DomainError(f"shell j={j} needs m up to {math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)} "
                                  f"on the degenerate branch, window has m_max={window.m_max}")
    lam = eigenvalue_table(cfg, window)
    ms = np.flatnonzero((lam_lo <= ladder[:-1]) & (ladder[:-1] <= lam_hi))
    return (lam, _CUTOFF.shell_weights(j, lam), (lam_lo <= lam) & (lam <= lam_hi),
            (ms, ladder[ms], _CUTOFF.shell_weights(j, ladder[ms])))


def shell_window(j: int, cfg: ConeConfig) -> ModeWindow:
    """The smallest mode window covering dyadic shell j.

    Raises DomainError if the shell may hold more than _SHELL_MODE_CAP
    modes, ends past the float range or holds no mode.  The lowest
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


def _shell_weights(shells, cfg: ConeConfig, window: ModeWindow) -> list[np.ndarray]:
    """phi(2^-j sqrt(lam)) over the window for each j of shells, all from one eigenvalue table.

    The one shell weighting: every shell piece the package makes has the
    coefficients field.coeffs * weights, so each keeps shell_project's bits.
    """
    lam = eigenvalue_table(cfg, window)
    return [_CUTOFF.shell_weights(j, lam) for j in shells]


def shell_project(field: SpectralField, j: int, cfg: ConeConfig) -> SpectralField:
    """phi(2^-j sqrt(H)) f on the coefficient table."""
    (weights,) = _shell_weights([j], cfg, field.window)
    return SpectralField(field.window, field.coeffs * weights)


def _shell_norms(field: SpectralField, p: float, cfg: ConeConfig) -> list[tuple[int, float]]:
    """(j, ||shell_j f||_{L^p}) for every shell meeting the field's window.

    Every shell weighting comes from one eigenvalue table.  p = 2 comes from
    coefficients; other p synthesize every shell on the evaluation grid in
    one pass.
    """
    shells = shell_range(cfg, field.window)
    pieces = [SpectralField(field.window, field.coeffs * w) for w in _shell_weights(shells, cfg, field.window)]
    if p == 2.0:
        return [(j, piece.coefficient_norm()) for j, piece in zip(shells, pieces)]
    grid = evaluation_grid(cfg)
    values = fields_on_grid(pieces, grid.r, grid.theta, cfg)
    return [(j, grid.lp_norm(v, p)) for j, v in zip(shells, values)]


def _besov(field: SpectralField, s: float, p: float, q: float,
           cfg: ConeConfig) -> tuple[list[tuple[int, float]], float]:
    """The shell norms and their ell^q sum of 2^{js} ||shell_j f||_{L^p}."""
    if not (p >= 1.0 and q >= 1.0 and math.isfinite(s)):
        raise DomainError(f"besov_norm needs p, q >= 1 and a finite s, got s={s}, p={p}, q={q}")
    pieces = _shell_norms(field, p, cfg)
    terms = [_dyadic_term(j, s, n) for j, n in pieces]
    if math.isinf(q):
        return pieces, max(terms)
    try:
        total = sum(t ** q for t in terms)
    except OverflowError:
        total = math.inf
    if sys.float_info.min <= total < math.inf:
        return pieces, float(total ** (1.0 / q))
    return pieces, _lq_from_top(np.array(terms), q, f"besov_norm at s={s}, q={q}")


def _dyadic_term(j: int, s: float, norm: float) -> float:
    """2^{js} norm; DomainError naming s and shell j where it leaves the float range."""
    try:
        term = 2.0 ** (j * s) * norm
    except OverflowError:
        term = math.inf
    if not term < math.inf:
        raise DomainError(f"besov_norm: 2^(j s) ||shell_j f|| leaves the float range at shell j={j}, s={s}")
    return term


def _lq_from_top(terms: np.ndarray, q: float, what: str) -> float:
    """(sum terms^q)^{1/q} of finite terms >= 0, taken relative to the largest.

    The fallback for an ell^q sum whose plain form leaves the normal float
    range, where it would lose digits, read 0 or overflow; DomainError if
    the norm itself leaves the float range.
    """
    top = float(terms.max(initial=0.0))
    if top == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        value = top * float(np.sum((terms / top) ** q)) ** (1.0 / q)
    if not value < math.inf:
        raise DomainError(f"{what}: the norm leaves the float range")
    return value


def besov_norm(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig) -> float:
    """Homogeneous Besov norm: ell^q over shells of 2^{js} ||shell_j f||_{L^p}.

    p = 2 is exact from coefficients; other p are quadrature norms on the
    fixed evaluation grid; p = inf means the grid maximum.  Where the plain
    ell^q sum leaves the normal float range it is taken relative to its
    largest term; an s at which some 2^{js} ||shell_j f|| leaves the float
    range raises DomainError.
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
    """Homogeneous Sobolev norm (sum |lambda^{s/2} c|^2)^{1/2}, exact.

    A non-finite s raises DomainError, and so does an s at which some
    lambda^{s/2} c of the window leaves the float range (a large s, or at
    b0 < 1 a large negative one), naming the eigenvalue.  Where the plain
    sum of squares leaves the normal float range, the norm is taken
    relative to the largest term.
    """
    if not math.isfinite(s):
        raise DomainError(f"sobolev_norm needs a finite s, got s={s}")
    lam = eigenvalue_table(cfg, field.window)
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = lam ** (s / 2.0) * field.coeffs
    bad = ~np.isfinite(weighted)
    if bad.any():
        at = float(lam[bad].min() if s > 0.0 else lam[bad].max())
        raise DomainError(f"sobolev_norm: lambda^(s/2) leaves the float range at eigenvalue {at:.6g}, s={s}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(weighted))
    if sys.float_info.min <= norm * norm < math.inf:
        return norm
    return _lq_from_top(np.abs(weighted).ravel(), 2.0, f"sobolev_norm at s={s}")


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
    _, weights, _, _ = _shell_table(j, cfg, window)  # raises unless the window covers the shell
    if grid is None:
        grid = evaluation_grid(cfg)
    rng = np.random.default_rng(seed)
    fields = [random_field(window, rng) for _ in range(trials)]
    for r0 in (0.35, 0.9, 1.7):
        point = point_field(ConePoint(r0, 0.0), cfg, window)
        fields.append(point)
        # shell-localized variant: the L1-side extremizer shape
        fields.append(SpectralField(window, point.coeffs * weights))
    inv_q = 0.0 if math.isinf(q_exp) else 1.0 / q_exp
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 2.0 ** (2 * j * (inv_q - inv_p))
    pairs = [g for f in fields for g in (SpectralField(window, f.coeffs * weights), f)]
    values = fields_on_grid(pairs, grid.r, grid.theta, cfg)  # every trial field lives on the window
    best = 0.0
    for v_piece, v_f in zip(values, values):
        num = grid.lp_norm(v_piece, p)
        den = grid.lp_norm(v_f, q_exp)
        if den > 0.0:
            best = max(best, num / (scale * den))
    if best == 0.0:
        raise DomainError(f"no spectral mass in shell {j} for the given window")
    return best
