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
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy import special as _sp

from .errors import DomainError, NonconvergenceError, QuadratureError
from .geometry import ConeConfig, ConePoint
from .quadrature import genlaguerre_rule

_CELL_CAP = 1 << 22  # most modes of a window and nodes of an expand grid; every shell_window lpbesov admits fits


@dataclass(frozen=True)
class ModeWindow:
    """Rectangular index window |k| <= k_max, 0 <= m <= m_max, of at most _CELL_CAP modes."""

    k_max: int
    m_max: int

    def __post_init__(self) -> None:
        if self.k_max < 0 or self.m_max < 0:
            raise DomainError("window bounds must be nonnegative")
        if math.prod(self.shape) > _CELL_CAP:
            raise DomainError(f"window k_max={self.k_max}, m_max={self.m_max} holds {math.prod(self.shape)} modes, "
                              f"above the cap of {_CELL_CAP}")

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
    """Resolution of the reference quadrature used by expand(): n_radial, n_theta >= 1, at most _CELL_CAP nodes."""

    n_radial: int = 80
    n_theta: int = 256

    def __post_init__(self) -> None:
        if min(self.n_radial, self.n_theta) < 1 or self.n_radial * self.n_theta > _CELL_CAP:
            raise DomainError(f"quadrature needs n_radial, n_theta >= 1 and n_radial * n_theta <= {_CELL_CAP}, "
                              f"got n_radial={self.n_radial}, n_theta={self.n_theta}")


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
    |s_k| from s_k, so the Landau levels carry no rounding drift.  An
    eigenvalue past the float range (b0 near the largest float) raises
    DomainError.
    """
    s = signed_order(cfg, k)
    m = np.asarray(m, dtype=float)
    flux_part = np.where(s > 0.0, 2.0 * s, 0.0)
    with np.errstate(over="ignore"):
        lam = (2.0 * m + 1.0 + flux_part) * cfg.b0
    if not np.isfinite(lam).all():
        raise DomainError(f"eigenvalues pass the float range at b0 = {cfg.b0:g}")
    return lam


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


def normalized_laguerre_rows(alpha, m_max: int, x) -> np.ndarray:
    """Rows P[n] = L_n^alpha(x) / L_n^alpha(0) for n = 0..m_max; shape (m_max + 1,) + the alpha, x broadcast shape.

    The one normalized-Laguerre recurrence: it builds the radial factors of
    the eigenfunctions and the projections onto them.  Kept in the
    normalized scale to avoid the large binomial factors.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((m_max + 1,) + np.broadcast_shapes(np.shape(alpha), x.shape))
    rows[0] = 1.0
    if m_max >= 1:
        rows[1] = 1.0 - x / (1.0 + alpha)
    for n in range(1, m_max):
        rows[n + 1] = ((2 * n + 1 + alpha - x) * rows[n] - n * rows[n - 1]) / (n + 1 + alpha)
    return rows


def radial_profiles(cfg: ConeConfig, k, m_max: int, r) -> np.ndarray:
    """Normalized radial factors R[..., m, i] of modes (k, 0..m_max) at radii r[i]; shape k.shape + (m_max + 1, len(r)).

    k is an int or an int array.  The full normalized eigenfunction is R[m, i] * exp(i k theta / sigma);
    the angular normalization 1/sqrt(2 pi sigma) is folded into R.
    The Laguerre recurrence runs in the at-zero-normalized scale; where it overflows, at large r,
    the Gaussian scale is already 0 and so is R, every other value keeping the product's bits.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a = angular_order(cfg, k)[..., None]
    u = cfg.b0 * r * r / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        polys = np.moveaxis(normalized_laguerre_rows(a, m_max, u), 0, -2)
        log_radial = np.where(r > 0.0, a * np.log(np.where(r > 0.0, r, 1.0)), np.where(a > 0, -np.inf, 0.0))
    log_radial = log_radial - u / 2.0 - 0.5 * math.log(cfg.period)
    log_norm = log_norm_sq(cfg, np.asarray(k)[..., None], np.arange(m_max + 1))
    scale = np.exp(log_radial[..., None, :] - 0.5 * log_norm[..., :, None])
    return np.multiply(polys, scale, out=scale, where=(scale != 0.0) | np.isfinite(polys))


_ROW_BLOCK = 1 << 15  # most radial values one _radial_rows block builds: 256 KB of float64


def _radial_blocks(cfg: ConeConfig, ks, m_max: int, r) -> Iterator[tuple[slice, np.ndarray]]:
    """(s, radial_profiles(cfg, ks[s], m_max, r)) for consecutive slices s of the sequence ks, one call per block.

    A block holds at most _ROW_BLOCK values, or one k if its rows alone are more.
    """
    step = max(1, _ROW_BLOCK // ((m_max + 1) * max(1, np.size(r))))
    for lo in range(0, len(ks), step):
        block = slice(lo, lo + step)
        yield block, radial_profiles(cfg, np.asarray(ks[block]), m_max, r)


def _radial_rows(cfg: ConeConfig, ks, m_max: int, r) -> Iterator[tuple[int, np.ndarray]]:
    """(k, radial_profiles(cfg, k, m_max, r)) for each k of the sequence ks, in order, one call per block of ks.

    Each rows is a view into its block: a caller that keeps rows keeps a copy, or it holds the whole block.
    """
    for block, rows in _radial_blocks(cfg, ks, m_max, r):
        yield from zip(ks[block], rows)


def _require_synthesis_points(ks, r: np.ndarray, theta: np.ndarray, cfg: ConeConfig) -> None:
    """Refuse with DomainError, naming the first bad value, points the eigenfunctions of modes ks cannot take.

    Each radius must be finite and >= 0 with u = b0 r^2 / 2 finite, each
    angle finite, and every phase k theta / sigma below 2^52
    (_require_phase_digits); a phase that overflows counts as the largest
    float.  The largest u and phase sit at the largest r, |k| and |theta|,
    so scalars decide, and the arrays are searched only to name a bad value.
    """
    r_top = float(r.max(initial=0.0))
    if not (r.min(initial=0.0) >= 0.0 and cfg.b0 * r_top * r_top / 2.0 < math.inf):
        with np.errstate(over="ignore"):
            bad = ~((r >= 0.0) & np.isfinite(cfg.b0 * r * r / 2.0))
        raise DomainError(f"synthesis needs each radius finite and >= 0, with u = b0 r^2 / 2 finite, "
                          f"got r = {r[np.argmax(bad)]:g}")
    theta_top = float(np.abs(theta).max(initial=0.0))
    if not theta_top < math.inf:
        raise DomainError(f"synthesis needs each angle finite, got theta = {theta[np.argmax(~np.isfinite(theta))]:g}")
    if np.size(ks):
        _require_phase_digits("synthesis", min(float(np.abs(ks).max()) / cfg.sigma * theta_top, sys.float_info.max))


def point_field(q: ConePoint, cfg: ConeConfig, window: ModeWindow) -> SpectralField:
    """Coefficients c[k, m] = conj(V_{k,m}(q)): the window's part of the delta at q.

    Synthesizing F(H) applied to it at p gives the truncated kernel of F(H)
    at (p, q).  A q whose radius or phases synthesis refuses raises DomainError.
    """
    _require_synthesis_points(window.k_values, np.array([q.r]), np.array([q.theta]), cfg)
    rad = radial_profiles(cfg, window.k_values, window.m_max, [q.r])[:, :, 0]
    return SpectralField(window, rad * np.exp(-1j * (window.k_values / cfg.sigma) * q.theta)[:, None])


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
    exact whenever f lies in the window's span.  A sample that is not finite
    raises DomainError naming its (r, theta) before it is projected.
    """
    if window.k_max > quad.n_theta // 2 - 1:
        raise QuadratureError(
            f"k_max={window.k_max} exceeds the angular resolution of n_theta={quad.n_theta}"
        )
    theta = _angular_nodes(cfg, quad.n_theta)
    coeffs = np.zeros(window.shape, dtype=complex)

    for ik, k in enumerate(window.k_values):
        a = float(angular_order(cfg, k))
        u, w = genlaguerre_rule(quad.n_radial, a)
        r = np.sqrt(2.0 * u / cfg.b0)
        samples = np.asarray(f(r[:, None], theta[None, :]), dtype=complex)
        bad = np.broadcast_to(~np.isfinite(samples), (r.size, theta.size))
        if bad.any():
            i, it = np.argwhere(bad)[0]
            raise DomainError(f"expand needs finite samples, f(r={r[i]:g}, theta={theta[it]:g}) is not finite")
        fk = samples @ np.exp(-1j * (k / cfg.sigma) * theta) / quad.n_theta
        # the rule's weight function u^a e^{-u} divided out; period / b0 from the angular mean and r dr = du / b0
        weights = np.exp(np.log(w) + u - a * np.log(u)) * cfg.period / cfg.b0
        coeffs[ik] = radial_profiles(cfg, k, window.m_max, r) @ (weights * fk)
    return SpectralField(window=window, coeffs=coeffs)


def fields_on_grid(fields, r, theta, cfg: ConeConfig) -> Iterator[np.ndarray]:
    """Synthesize fields sharing one window on the grid r x theta; yields one grid each, in order.

    The ks where some field is nonzero are walked in _radial_blocks' blocks:
    each block's radial_profiles rows R[k, m, r] are built once, and every
    field's radial part V[k, f, r] = sum_m c[k, f, m] R[k, m, r] is formed
    by one batched matmul for the real parts of the coefficients and one
    for the imaginary parts.  So one block of rows is held at a time.  Each
    grid is then one product V[:, f].T @ E with the phases
    E[k, theta] = e^{i k theta / sigma}.  Fields on two windows, a negative
    or non-finite radius, one whose u = b0 r^2 / 2 overflows, a non-finite
    angle, or a phase k theta / sigma of 2^52 or more on a live k raise
    DomainError before any work.
    """
    fields = list(fields)
    if not fields:
        return iter(())
    window = fields[0].window
    if any(f.window != window for f in fields):
        raise DomainError(f"fields_on_grid needs one window, got {sorted({str(f.window) for f in fields})}")
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    iks = np.flatnonzero(np.any([np.any(f.coeffs, axis=1) for f in fields], axis=0))
    ks = window.k_values[iks]
    _require_synthesis_points(ks, r, theta, cfg)
    parts = np.empty((2, iks.size, len(fields), r.size))  # real and imaginary radial parts V[k, f, r]
    for block, rows in _radial_blocks(cfg, ks, window.m_max, r):
        coeffs = np.empty((rows.shape[0], len(fields), window.m_max + 1))  # c[k, f, m], one part at a time
        for out, part in zip(parts, (np.real, np.imag)):
            for i, f in enumerate(fields):
                coeffs[:, i] = part(f.coeffs)[iks[block]]
            np.matmul(coeffs, rows, out=out[block])
    phase = np.exp(1j * (ks / cfg.sigma)[:, None] * theta)

    def grids() -> Iterator[np.ndarray]:
        v = np.empty((iks.size, r.size), dtype=complex)
        for i in range(len(fields)):
            v.real, v.imag = parts[0, :, i], parts[1, :, i]
            yield v.T @ phase
    return grids()


def field_on_grid(field: SpectralField, r, theta, cfg: ConeConfig) -> np.ndarray:
    """Synthesize the field on the product grid r x theta; shape (len(r), len(theta))."""
    return next(fields_on_grid([field], r, theta, cfg))


def eigenvalue_table(cfg: ConeConfig, window: ModeWindow) -> np.ndarray:
    """Eigenvalues over the window, shape window.shape."""
    return eigenvalue(cfg, window.k_values[:, None], window.m_values[None, :])


def spectral_apply(
    multiplier: Callable[[np.ndarray], np.ndarray],
    field: SpectralField,
    cfg: ConeConfig,
) -> SpectralField:
    """Apply a spectral multiplier F(H): coefficients scale by F(lambda_mode).

    F is evaluated with numpy's overflow and invalid-value warnings off; a
    non-finite F(lambda) on the window (say a phase t lambda past the float
    range) raises DomainError naming the multiplier and the first such mode.
    """
    lam = eigenvalue_table(cfg, field.window)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.asarray(multiplier(lam))
    finite = np.isfinite(factors)
    if not finite.all():
        ik, m = np.argwhere(~np.broadcast_to(finite, lam.shape))[0]
        name = getattr(multiplier, "__qualname__", repr(multiplier)).split(".<locals>")[0]
        raise DomainError(f"spectral multiplier {name} is not finite at mode (k={field.window.k_values[ik]}, "
                          f"m={m}), eigenvalue {lam[ik, m]:.6g}")
    return SpectralField(window=field.window, coeffs=field.coeffs * factors)


# -- standard multipliers ---------------------------------------------------

def heat_multiplier(t: float):
    """e^{-t lam} for t >= 0 (t = 0 is the identity); a negative t, which overflows it, raises DomainError."""
    if t < 0:
        raise DomainError(f"heat multiplier needs t >= 0, got {t}")
    return lambda lam: np.exp(-t * lam)


_PHASE_DIGITS = 2.0 ** 52  # from here on a float's spacing is >= 1, so phase mod 2 pi has no significant digit


def _require_phase_digits(name: str, phase) -> None:
    """Refuse a finite phase with |phase| >= 2^52 with DomainError naming `name`, the multiplier or function.

    e^{i phase} of such a phase has no significant digit.  A phase that
    overflows is left to spectral_apply, which refuses the multiplier as
    not finite.
    """
    mag = np.abs(phase)
    if np.isfinite(mag).all() and (mag >= _PHASE_DIGITS).any():
        raise DomainError(f"{name}: phase up to {float(mag.max()):.6g} "
                          f"has no significant digit (|phase| >= 2^52)")


def schrodinger_multiplier(t: float):
    """e^{i t lam}; a finite phase t lam of 2^52 or more raises DomainError."""
    def multiplier(lam):
        _require_phase_digits("spectral multiplier schrodinger_multiplier", t * lam)
        return np.exp(1j * t * lam)
    return multiplier


def fractional_flow_multiplier(nu: float, t: float):
    """e^{i t lam^nu}; a finite phase t lam^nu of 2^52 or more raises DomainError."""
    def multiplier(lam):
        _require_phase_digits("spectral multiplier fractional_flow_multiplier", t * lam ** nu)
        return np.exp(1j * t * lam ** nu)
    return multiplier


# -- serialization ----------------------------------------------------------

_CSV_BLOCK_CELLS = 1 << 16  # cells write_csv formats at a time, so its text does not grow with the table


def _require_finite_cells(header, rows: np.ndarray, what: str) -> None:
    """Raise NonconvergenceError naming `what` and the first column of rows that holds a non-finite cell."""
    finite = np.isfinite(rows).all(axis=0)
    if not finite.all():
        raise NonconvergenceError(f"{what}: non-finite value in CSV column {header[int(np.argmin(finite))]!r}")


def _csv_body(rows: np.ndarray) -> str:
    """The rows as %.17g CSV lines.

    Tables repeat most values (grid coordinates, mode indices), so each
    distinct float64 bit pattern is formatted once, all in one %-format,
    and the cells are gathered from those strings through an object array.
    """
    bits, inverse = np.unique(rows.view(np.uint64).ravel(), return_inverse=True)
    values = bits.view(float).tolist()
    text = np.array((("%.17g\n" * len(values)) % tuple(values)).split("\n")[:-1], dtype=object)
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    return (line * rows.shape[0]) % tuple(text[inverse].tolist())


def write_csv(path: str | Path, header, rows, what: str, *, append: bool = False) -> Path:
    """Write (N, len(header)) float rows as %.17g CSV: the one writer of every table magcone writes.

    A non-finite cell raises NonconvergenceError naming `what` and its column
    before anything, path's directory included, is created.  append=True
    writes the header only into a new file.
    """
    rows = np.asarray(rows, dtype=float)
    _require_finite_cells(header, rows, what)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    new_file = not (append and path.exists())
    step = max(1, _CSV_BLOCK_CELLS // max(rows.shape[1], 1))
    with path.open("a" if append else "w", encoding="utf-8") as fh:
        if new_file:
            fh.write(",".join(header) + "\n")
        for lo in range(0, rows.shape[0], step):
            fh.write(_csv_body(rows[lo:lo + step]))
    return path


def mode_rows(window: ModeWindow, *tables) -> np.ndarray:
    """Rows (k, m, *values) over the window, k-major; each table has window.shape.  The rows are the one copy."""
    columns = np.broadcast_arrays(window.k_values[:, None], window.m_values, *tables)
    return np.stack(columns, axis=-1, dtype=float).reshape(-1, len(columns))


_CSV_HEADER = ("k", "m", "re_c", "im_c")


def save_field(field: SpectralField, cfg: ConeConfig, quad: QuadratureSpec, csv_path: str | Path) -> None:
    """Write the coefficient table as CSV plus a JSON header beside it (same stem, .json); see write_csv."""
    csv_path = write_csv(csv_path, _CSV_HEADER, mode_rows(field.window, field.coeffs.real, field.coeffs.imag),
                         f"field {csv_path}")
    header = {
        "window": {"k_max": field.window.k_max, "m_max": field.window.m_max},
        "cone": {"sigma": cfg.sigma, "b0": cfg.b0, "alpha": cfg.alpha},
        "quadrature": {"n_radial": quad.n_radial, "n_theta": quad.n_theta},
    }
    csv_path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True, indent=2) + "\n",
                                             encoding="utf-8")


def load_field(csv_path: str | Path) -> SpectralField:
    """Read a coefficient table written by save_field.

    A row that is not four cells, a cell that does not parse, a negative m,
    a non-finite coefficient or a repeated (k, m) raises DomainError naming
    the file and line.
    """
    lines = Path(csv_path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != ",".join(_CSV_HEADER):
        raise DomainError(f"{csv_path}: not a spectral-field CSV (bad header)")
    rows, seen = [], set()
    for n, line in enumerate(lines[1:], start=2):
        try:
            k_s, m_s, re_s, im_s = line.split(",")
            k, m, re, im = int(k_s), int(m_s), float(re_s), float(im_s)
        except ValueError:
            raise DomainError(f"{csv_path}:{n}: expected integer k, m and real re_c, im_c, got {line!r}") from None
        if m < 0 or not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError(f"{csv_path}:{n}: needs m >= 0 and a finite coefficient, got {line!r}")
        if (k, m) in seen:
            raise DomainError(f"{csv_path}:{n}: mode (k={k}, m={m}) appears twice")
        seen.add((k, m))
        rows.append((k, m, re, im))
    if not rows:
        raise DomainError(f"{csv_path}: empty coefficient table")
    k_max = max(abs(k) for k, _, _, _ in rows)
    m_max = max(m for _, m, _, _ in rows)
    window = ModeWindow(k_max=k_max, m_max=m_max)
    coeffs = np.zeros(window.shape, dtype=complex)
    for k, m, re, im in rows:
        coeffs[k + k_max, m] = re + 1j * im
    return SpectralField(window=window, coeffs=coeffs)


def random_field(window: ModeWindow, rng: np.random.Generator) -> SpectralField:
    """Random band-limited field: coefficients uniform on the unit disk, then normalized."""
    radii = np.sqrt(rng.uniform(size=window.shape))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=window.shape)
    coeffs = radii * np.exp(1j * phases)
    return SpectralField(window=window, coeffs=coeffs / np.linalg.norm(coeffs))
