"""Dyadic frequency cutoffs, Besov/Sobolev norms, Bernstein ratios.

The mother cutoff is a smooth bump supported on [1/2, 2] normalized by its
own dyadic dilates, which makes the partition of unity exact by
construction and guarantees at most two overlapping shells at any
frequency.  Norms operate on SpectralField coefficient tables: L^2
quantities come straight from coefficients (Parseval), other L^p norms use
the fixed evaluation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowTooSmallError
from .geometry import ConeConfig, ConePoint
from .kernels import _shell_mode_lists
from .quadrature import EvaluationGrid, evaluation_grid
from .spectrum import (
    ModeWindow,
    SpectralField,
    eigenvalue_table,
    field_on_grid,
    point_field,
    random_field,
    spectral_apply,
)


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

    support: tuple[float, float] = (0.5, 2.0)

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

    def partition_residual(self, lam_grid: np.ndarray, j_range: int = 40) -> float:
        """max |sum_j phi(2^-j lam) - 1| over the grid."""
        lam_grid = np.asarray(lam_grid, dtype=float)
        total = np.zeros_like(lam_grid)
        for j in range(-j_range, j_range + 1):
            total += self(lam_grid / 2.0 ** j)
        return float(np.abs(total - 1.0).max())


def make_cutoff() -> DyadicCutoff:
    """The package's pinned dyadic cutoff (all constants reproducible from it)."""
    return DyadicCutoff()


def shell_range(cfg: ConeConfig, window: ModeWindow) -> range:
    """Dyadic indices j whose shell meets the window's spectrum."""
    lam = eigenvalue_table(cfg, window)
    s_lo, s_hi = math.sqrt(float(lam.min())), math.sqrt(float(lam.max()))
    return range(math.floor(math.log2(s_lo)), math.floor(math.log2(s_hi)) + 2)


def shell_project(field: SpectralField, j: int, cfg: ConeConfig,
                  cutoff: DyadicCutoff) -> SpectralField:
    """phi(2^-j sqrt(H)) f on the coefficient table."""
    return spectral_apply(lambda lam: cutoff.shell_weights(j, lam), field, cfg)


def _lp_norm(field: SpectralField, p: float, cfg: ConeConfig, grid: EvaluationGrid) -> float:
    if p == 2.0:
        return field.coefficient_norm()
    values = field_on_grid(field, grid.r, grid.theta, cfg)
    return grid.lp_norm(values, p)


def _shell_norms(field: SpectralField, p: float, cfg: ConeConfig, grid: EvaluationGrid | None,
                 cutoff: DyadicCutoff) -> list[tuple[int, float]]:
    """(j, ||shell_j f||_{L^p}) for every shell meeting the field's window."""
    if grid is None and p != 2.0:
        grid = evaluation_grid(cfg)
    return [(j, _lp_norm(shell_project(field, j, cfg, cutoff), p, cfg, grid))
            for j in shell_range(cfg, field.window)]


def _besov(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig,
           grid: EvaluationGrid | None, cutoff: DyadicCutoff) -> tuple[list[tuple[int, float]], float]:
    """The shell norms and their ell^q sum of 2^{js} ||shell_j f||_{L^p}."""
    if q < 1.0 or p < 1.0:
        raise DomainError("besov_norm needs p, q >= 1")
    pieces = _shell_norms(field, p, cfg, grid, cutoff)
    if math.isinf(q):
        return pieces, max(2.0 ** (j * s) * n for j, n in pieces)
    return pieces, float(sum((2.0 ** (j * s) * n) ** q for j, n in pieces) ** (1.0 / q))


def besov_norm(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig,
               grid: EvaluationGrid | None = None,
               cutoff: DyadicCutoff | None = None) -> float:
    """Homogeneous Besov norm: ell^q over shells of 2^{js} ||shell_j f||_{L^p}.

    p = 2 is exact from coefficients; other p are quadrature norms on the
    fixed evaluation grid; p = inf means the grid maximum.
    """
    return _besov(field, s, p, q, cfg, grid, cutoff if cutoff is not None else make_cutoff())[1]


def besov_report(field: SpectralField, s: float, p: float, q: float, cfg: ConeConfig,
                 grid: EvaluationGrid | None = None) -> dict:
    """Norm plus per-shell breakdown, JSON-ready."""
    pieces, value = _besov(field, s, p, q, cfg, grid, make_cutoff())
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


def square_function_l2(field: SpectralField, cfg: ConeConfig,
                       cutoff: DyadicCutoff | None = None) -> float:
    """L2 norm squared of the dyadic square function, from coefficients.

    Equals sum_j ||shell_j f||_2^2; lands in [1/2, 1] * ||f||_2^2 because at
    most two shells overlap at any eigenvalue.
    """
    if cutoff is None:
        cutoff = make_cutoff()
    return sum(n ** 2 for _, n in _shell_norms(field, 2.0, cfg, None, cutoff))


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
    cutoff = make_cutoff()
    rng = np.random.default_rng(seed)
    fields = [random_field(window, rng) for _ in range(trials)]
    for r0 in (0.35, 0.9, 1.7):
        point = point_field(ConePoint(r0, 0.0), cfg, window)
        fields.append(point)
        # shell-localized variant: the L1-side extremizer shape
        fields.append(shell_project(point, j, cfg, cutoff))
    inv_q = 0.0 if math.isinf(q_exp) else 1.0 / q_exp
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 2.0 ** (2 * j * (inv_q - inv_p))
    best = 0.0
    for f in fields:
        piece = shell_project(f, j, cfg, cutoff)
        num = grid.lp_norm(field_on_grid(piece, grid.r, grid.theta, cfg), p)
        den = grid.lp_norm(field_on_grid(f, grid.r, grid.theta, cfg), q_exp)
        if den > 0.0:
            best = max(best, num / (scale * den))
    if best == 0.0:
        raise WindowTooSmallError(f"no spectral mass in shell {j} for the given window")
    return best
