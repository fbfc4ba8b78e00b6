"""Estimate-certification sweeps.

Every proved inequality becomes a sweep: evaluate the quantity the proof
bounds over a deterministic grid, report the empirical constant, and check
that it saturates under nested grid refinement (ratio <= 1.05).  "Bounded"
is operationalized as refinement saturation because the underlying proofs
give finiteness without numeric constants.  Every refinement sweep
evaluates its fine grid only: the coarse grid is its nodes at even indices
on every axis, bit for bit, so the coarse sup is read from the fine values
there, and each of the five sup sweeps' ratios is at least 1.

Dispersive-type constants are reported in reduced-kernel units, i.e. as
sup of rho^{-gamma} |sum_k e^{i k delta / sigma} I_{a_k}(i rho)| over the
grid induced by (t, r1, r2, dtheta); the kernel-side constant is this
value divided by 8 pi sigma.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import DomainError, GammaOutOfRangeError, NonconvergenceError
from .geometry import ConeConfig, flux_distance
from .kernels import heat_closed_bracket_grid, halfwave_sup_curve, reduced_kernel_matrix, schrodinger_angular_tail
from .lpbesov import shell_window
from .quadrature import adaptive_panel
from .spectrum import (
    _CELL_CAP,
    ModeWindow,
    _require_finite_cells,
    eigenvalue_table,
    random_field,
    spectral_apply,
    write_csv,
)

REFERENCE_CONFIGS = (
    ConeConfig(sigma=1.0, b0=1.0, alpha=0.25),
    ConeConfig(sigma=1.5, b0=1.0, alpha=0.4),
    ConeConfig(sigma=2.0, b0=0.5, alpha=0.3),
)

SUITE_NAMES = (
    "dispersive",
    "weighted",
    "gaussian-heat",
    "reduced-kernel",
    "tail-l1",
    "subordination",
    "halfwave",
    "energy",
)

_SCAN_DELTA = 2.0 * math.pi  # reduced_kernel_bound_scan covers |delta| <= _SCAN_DELTA
_SCAN_DOUBLINGS = 4  # reduced_kernel_bound_scan doubles rho_max from 12.5 at most this often, to 200
_ENERGY_WINDOW = ModeWindow(12, 12)  # energy_conservation_check draws its random fields here
_ENERGY_TRIALS = 50
_SEED = 20240901  # default seed of the random-field sweeps, and of the CLI's config
_HALFWAVE_J = 2  # default dyadic level of the half-wave sweep, and of every CLI --j


@dataclass(frozen=True)
class SweepGrids:
    """Grid sizes for the certification sweeps over radii [r_min, r_max]; refined() nests the grids.

    A sweep's coarse grid is self and its fine grid refined(): the pair
    sweeps' times, radii and base angles are refined()'s at even indices,
    and so are the half-wave sweep's 3 n_radius radii among its
    6 n_radius - 1, the tail-L1 scan's 8 n_angle angles among its
    16 n_angle - 1, and the reduced-kernel scan's n_rho radii and
    8 n_angle deltas among its 2 n_rho - 1 and 16 n_angle - 1.

    Sizes below 1, or past _CELL_CAP cells in a sweep's largest array,
    raise DomainError.  Those arrays are the reduced-kernel scan's fine
    matrix at rho_max = 200 (16 n_angle - 1 by 1280 n_radius - 1) and the
    half-wave residue table (2 n_time + 10 times by max(2 n_angle, 32)
    residues k mod n_angle by the pairs of 6 n_radius - 1 radii), which one
    FFT per time reads at as many uniform angles; the refined grids' tables
    are smaller, and reduced_kernel_matrix builds its Bessel rows in blocks.
    """

    n_time: int = 5
    n_radius: int = 7
    n_angle: int = 12
    r_min: ClassVar[float] = 0.15
    r_max: ClassVar[float] = 3.0

    def __post_init__(self) -> None:
        sizes = f"n_time={self.n_time}, n_radius={self.n_radius}, n_angle={self.n_angle}"
        if min(self.n_time, self.n_radius, self.n_angle) < 1:
            raise DomainError(f"sweep grid sizes must be >= 1, got {sizes}")
        n_r = 6 * self.n_radius - 1
        cells = max((16 * self.n_angle - 1) * (2 * 40 * 2 ** _SCAN_DOUBLINGS * self.n_radius - 1),
                    (2 * self.n_time + 10) * max(2 * self.n_angle, 32) * n_r * (n_r + 1) // 2)
        if cells > _CELL_CAP:
            raise DomainError(f"sweep grids {sizes} need an array of {cells} cells, above the cap of {_CELL_CAP}")

    def refined(self) -> "SweepGrids":
        """The fine grid, 2n - 1 nodes per axis, whose nodes at even indices are self's, bit for bit.

        Built unchecked: the bound on self counts its arrays.  The dispersive-family
        and Gaussian-heat sweeps evaluate only this grid and read the sup over self
        from its values at those nodes.
        """
        fine = object.__new__(SweepGrids)
        fine.__dict__.update(n_time=2 * self.n_time - 1, n_radius=2 * self.n_radius - 1,
                             n_angle=2 * self.n_angle - 1)
        return fine


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one certification sweep.

    csv_header/csv_rows hold the grid samples, csv_rows as a read-only
    (N, len(csv_header)) float64 array that takes no part in ``==`` (compare
    it with np.array_equal).  An empty csv_header means the report has no
    CSV of its own: the dispersive family's one table rides on its first
    report, and its other reports carry none.  runtime_ms is the wall time
    of the sweep call that made the report (one call makes every report of
    the family), console-only diagnostics and never serialized (outputs
    must be bitwise reproducible).
    """

    name: str
    config: ConeConfig
    grid_spec: str
    empirical_constant: float
    refinement_ratio: float
    passed: bool
    runtime_ms: int
    csv_header: tuple[str, ...] = ()
    csv_rows: np.ndarray = field(default_factory=lambda: _as_rows((), 0), compare=False)

    def json_dict(self) -> dict:
        return {
            "name": self.name,
            "config": {"sigma": self.config.sigma, "b0": self.config.b0, "alpha": self.config.alpha},
            "grid_spec": self.grid_spec,
            "empirical_constant": self.empirical_constant,
            "refinement_ratio": self.refinement_ratio,
            "pass": self.passed,
        }


def require_finite_report(report: SweepReport) -> None:
    """Raise NonconvergenceError unless the report's constant, ratio and every CSV cell are finite."""
    for key in ("empirical_constant", "refinement_ratio"):
        if not math.isfinite(getattr(report, key)):
            raise NonconvergenceError(f"sweep {report.name!r}: non-finite {key} {getattr(report, key)!r}")
    _require_finite_cells(report.csv_header, report.csv_rows, f"sweep {report.name!r}")


def write_report(report: SweepReport, out_dir: str | Path) -> tuple[Path, Path | None]:
    """Write <name>.csv (the samples), then <name>.json (the summary); return (json path, csv path).

    A report with an empty csv_header writes the JSON only, and its csv path
    is None; no sweep makes a report with a header and no rows.  '/' in the
    name becomes '_' in the file names.  A non-finite constant,
    ratio or sample raises NonconvergenceError before any file is opened.
    """
    require_finite_report(report)
    out_dir, stem = Path(out_dir), report.name.replace("/", "_")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = (write_csv(out_dir / f"{stem}.csv", report.csv_header, report.csv_rows, f"sweep {report.name!r}")
                if report.csv_header else None)
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(report.json_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return json_path, csv_path


def _as_rows(rows, n_cols: int) -> np.ndarray:
    """Samples as a read-only (N, n_cols) float64 array; a float64 array is not copied."""
    arr = np.asarray(rows, dtype=float).reshape(len(rows), n_cols)
    arr.setflags(write=False)
    return arr


def _refinement(coarse: float, fine: float) -> tuple[float, bool]:
    """Refinement ratio fine / coarse (1 on a zero coarse sup), and whether the sup saturated: finite, ratio <= 1.05."""
    ratio = fine / coarse if coarse > 0 else 1.0
    return ratio, math.isfinite(fine) and ratio <= 1.05


def _ms_since(t0: float) -> int:
    return int(1000 * (time.perf_counter() - t0))


def _report(name, cfg, grid_spec, constant, ratio, passed, runtime_ms, header=(), rows=()) -> SweepReport:
    return SweepReport(
        name=name,
        config=cfg,
        grid_spec=grid_spec,
        empirical_constant=float(constant),
        refinement_ratio=float(ratio),
        passed=bool(passed),
        runtime_ms=runtime_ms,
        csv_header=tuple(header),
        csv_rows=_as_rows(rows, len(header)),
    )


# ---------------------------------------------------------------------------
# dispersive family
# ---------------------------------------------------------------------------

def _time_grid(grids: SweepGrids, cfg: ConeConfig) -> np.ndarray:
    tb = np.linspace(0.35, math.pi - 0.3, grids.n_time)
    return tb / cfg.b0


def _pair_grid(cfg: ConeConfig, grids: SweepGrids) -> tuple[np.ndarray, np.ndarray]:
    """(r1 r2, dtheta) of the pair sweeps: radius products and base angles.

    The dispersive and Gaussian-heat kernels are symmetric in (r1, r2), so
    the products run over the unordered pairs r1 <= r2 (np.triu_indices order).
    """
    r = np.linspace(grids.r_min, grids.r_max, grids.n_radius)
    iu, ju = np.triu_indices(grids.n_radius)
    return r[iu] * r[ju], np.linspace(-0.5 * cfg.period + 0.11, 0.5 * cfg.period - 0.07, grids.n_angle)


def _coarse_pairs(grids: SweepGrids) -> np.ndarray:
    """Indices of grids' radius pairs among refined()'s (_pair_grid): the pairs of even-index radii, in order."""
    iu, ju = np.triu_indices(grids.refined().n_radius)
    return np.flatnonzero((iu % 2 == 0) & (ju % 2 == 0))


def _dispersive_grid(cfg: ConeConfig, grids: SweepGrids) -> tuple[np.ndarray, ...]:
    """(t[t], rho[t, pair], delta[t, angle], |K|[t, angle, pair]) over the induced grid, laid out [t, angle, pair].

    rho ~ r1 r2 runs over the unordered radius pairs (_pair_grid); one reduced_kernel_matrix call per time.
    """
    rr, dth = _pair_grid(cfg, grids)
    ts = _time_grid(grids, cfg)
    # t b0 in [0.35, pi - 0.3]: |sin| >= 0.29
    rho = np.array([cfg.b0 * rr / (2.0 * math.sin(t * cfg.b0)) for t in ts])
    delta = ts[:, None] * cfg.b0 - dth
    return ts, rho, delta, np.array([np.abs(reduced_kernel_matrix(r, d, cfg)) for r, d in zip(rho, delta)])


def _grid_table(t: np.ndarray, x: np.ndarray, angle: np.ndarray, *values: np.ndarray) -> np.ndarray:
    """Rows (t, x, angle, then one column per value array), ordered by t, then angle, then x.

    Each value array is laid out [t, angle, x]; x and angle hold one row per
    time, [t, x] and [t, angle], or one row shared by every time.
    """
    rows = np.empty(values[0].shape + (3 + len(values),))
    rows[..., 0] = t[:, None, None]
    rows[..., 1] = x[..., None, :]
    rows[..., 2] = angle[..., None]
    for i, value in enumerate(values, 3):
        rows[..., i] = value
    return rows.reshape(-1, rows.shape[-1])


def _split_sups(grid: tuple, gamma: float) -> tuple[float, float, float]:
    """sup of rho^-gamma |K| over the grid, over rho >= 1 and over rho < 1 (0 on an empty part)."""
    _, rho, _, mat = grid
    weighted = (mat * rho[:, None, :] ** (-gamma)).max(axis=1)
    return tuple(float(w.max()) if w.size else 0.0
                 for w in (weighted, weighted[rho >= 1.0], weighted[rho < 1.0]))


def _require_gamma(cfg: ConeConfig, gamma: float) -> None:
    """Raise GammaOutOfRangeError unless 0 <= gamma <= kappa, the flux distance."""
    kappa = flux_distance(cfg)
    if not (0.0 <= gamma <= kappa + 1e-12):
        raise GammaOutOfRangeError(f"gamma={gamma} outside [0, kappa={kappa}]")


def weighted_dispersive_constant(cfg: ConeConfig, gammas: tuple[float, ...],
                                 grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    """The dispersive family on one fine grid, built once; each coarse sup is its max at grids' nodes.

    Reports, in order: 'dispersive' (the unweighted sweep), then per gamma
    'weighted-g<gamma>' over the full grid and its rho >= 1 and rho < 1
    splits '/omega1' and '/omega2'.  The dispersive report carries the
    family's one table, the fine grid's samples (one row per unordered
    radius pair): t, rho, delta, abs_series, then rho^-gamma abs_series per
    gamma, named after its report.  The other reports carry no CSV, and
    every report the call's wall time.  A gamma outside [0, kappa] raises
    before any kernel call.
    """
    t0 = time.perf_counter()
    for gamma in gammas:
        _require_gamma(cfg, gamma)
    names = [f"weighted-g{g:.4g}" for g in gammas]
    sweeps = [("dispersive", 0.0, ("",))] + [(name, g, ("", "/omega1", "/omega2")) for name, g in zip(names, gammas)]
    ts, rho, delta, mat = fine = _dispersive_grid(cfg, grids.refined())
    pairs = _coarse_pairs(grids)
    coarse = (ts[::2], rho[::2, pairs], delta[::2, ::2], mat[::2, ::2, pairs])
    results = []
    for name, gamma, suffixes in sweeps:
        spec = (f"t x r x dtheta = {grids.n_time} x {grids.n_radius}^2 x {grids.n_angle}, "
                f"gamma={gamma:.6g}, reduced-kernel units (kernel constant = value / (8 pi sigma))")
        for suffix, c, cf in zip(suffixes, _split_sups(coarse, gamma), _split_sups(fine, gamma)):
            results.append((name + suffix, spec, cf, *_refinement(c, cf)))
    header = ("t", "rho", "delta", "abs_series", *names)
    table = _grid_table(ts, rho, delta, mat, *(mat * rho[:, None, :] ** (-g) for g in gammas))
    runtime_ms = _ms_since(t0)
    return [_report(name, cfg, spec, cf, ratio, passed, runtime_ms, *((header, table) if i == 0 else ()))
            for i, (name, spec, cf, ratio, passed) in enumerate(results)]


# ---------------------------------------------------------------------------
# Gaussian heat bound
# ---------------------------------------------------------------------------

def _heat_time_grid(grids: SweepGrids, cfg: ConeConfig) -> np.ndarray:
    return np.geomspace(0.1, 5.0, grids.n_time) / cfg.b0


def _heat_angles(cfg: ConeConfig, base: np.ndarray) -> np.ndarray:
    """The Gaussian-heat angles: the base angles and a fixed cluster near |dtheta| = pi, sorted."""
    # the sup lives in a steep layer at the direct/through-tip transition
    # |dtheta| = pi; pin a fixed cluster there so the coarse grid sees it
    cluster = np.array([0.03, 0.07, 0.15, 0.3, 0.6])
    near_pi = np.concatenate([math.pi + cluster, math.pi - cluster,
                              -math.pi + cluster, -math.pi - cluster])
    near_pi = near_pi[np.abs(near_pi) < 0.5 * cfg.period - 0.02]
    dth = np.unique(np.concatenate([base, near_pi]))
    # heat_closed_bracket_grid's docstring states its accuracy from 0.01 off the image boundaries |dtheta| = pi
    return dth[np.abs(np.abs(dth) - math.pi) >= 0.02]


def gaussian_heat_constant(cfg: ConeConfig, grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    """sup |K^H| sinh(t b0) e^{+b0 d_X(p,q)^2 / (4 tanh t b0)}.

    The distance-squared envelope is the one the Gaussian bound's proof (and
    its Bernstein application) actually uses, and the only refinement-stable
    reading: the raw (r1^2+r2^2) variant peaks like e^{x cosh t b0} at
    coinciding angles and never saturates under angular refinement.  That
    raw variant is still recorded per sample in the CSV.  Only the fine
    grid is evaluated: the coarse sup is its max over every other time,
    radius and base angle, and the near-pi cluster.
    """
    t0 = time.perf_counter()
    fine = grids.refined()
    rr, base = _pair_grid(cfg, fine)
    dth = _heat_angles(cfg, base)
    ts = _heat_time_grid(fine, cfg)
    # best-image angle per dtheta: the geodesic uses cos(theta_red), or -1 past pi
    red = np.abs(np.remainder(dth + cfg.period / 2.0, cfg.period) - cfg.period / 2.0)
    cosfac = np.where(red < math.pi, np.cos(red), -1.0)
    raw = np.empty((ts.size, dth.size, rr.size))
    dist = np.empty_like(raw)
    for i, t in enumerate(ts):
        tb = t * cfg.b0
        x = cfg.b0 * rr / (2.0 * math.sinh(tb))
        raw[i] = cfg.b0 / (4.0 * math.pi) * np.abs(heat_closed_bracket_grid(x, dth, t, cfg))  # |K| sinh e^{+Q}
        # distance envelope: e^{-Q + b0 d^2/(4 tanh)} = e^{-x cosh(tb) cosfac}
        dist[i] = raw[i] * np.exp(-x[None, :] * math.cosh(tb) * cosfac[:, None])
    c = dist[::2][:, np.isin(dth, _heat_angles(cfg, base[::2]))][:, :, _coarse_pairs(grids)].max()
    cf = dist.max()
    ratio, passed = _refinement(c, cf)
    spec = (f"t geomspace(0.1,5)/b0 x {grids.n_time}, r x {grids.n_radius}^2, "
            f"dtheta x {grids.n_angle}; distance-squared envelope, raw (r1^2+r2^2) variant in CSV")
    header = ("t", "r1r2", "dtheta", "raw_const", "distance_const")
    return [_report("gaussian-heat", cfg, spec, cf, ratio, passed, _ms_since(t0), header,
                    _grid_table(ts, rr, dth, raw, dist))]


# ---------------------------------------------------------------------------
# reduced-kernel sup scan
# ---------------------------------------------------------------------------

def reduced_kernel_bound_scan(cfg: ConeConfig, grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    """sup over rho in [0, rho_max], |delta| <= _SCAN_DELTA, with rho_max grown from 12.5 until
    the coarse sup moves < 1% per doubling; each doubling evaluates the fine grid only."""
    t0 = time.perf_counter()

    def abs_kernel(rho_max: float, n_rho: int, n_delta: int):
        rho = np.linspace(0.0, rho_max, n_rho)
        delta = np.linspace(-_SCAN_DELTA, _SCAN_DELTA, n_delta)
        return rho, delta, np.abs(reduced_kernel_matrix(rho, delta, cfg))

    rho_max, n_rho = 12.5, 40 * grids.n_radius
    coarse = float(abs_kernel(rho_max, n_rho, 8 * grids.n_angle)[2].max())
    for _ in range(_SCAN_DOUBLINGS):
        rho_max, n_rho, last = 2.0 * rho_max, 2 * n_rho, coarse
        rho, delta, mat = abs_kernel(rho_max, 2 * n_rho - 1, 16 * grids.n_angle - 1)
        coarse = float(mat[::2, ::2].max())
        if abs(coarse - last) < 0.01 * coarse:
            break
    fine = float(mat.max())
    ratio, passed = _refinement(coarse, fine)
    rows = np.column_stack([delta, rho[mat.argmax(axis=1)], mat.max(axis=1)])
    spec = f"rho in [0,{rho_max}] (saturated by doubling), |delta| <= {_SCAN_DELTA:.6g}"
    return [_report("reduced-kernel", cfg, spec, fine, ratio, passed, _ms_since(t0),
                    ("delta", "argmax_rho", "max_abs"), rows)]


# ---------------------------------------------------------------------------
# angular tail L1 scan
# ---------------------------------------------------------------------------

def angular_tail_l1_scan(cfg: ConeConfig, grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    """sup over theta of int_0^inf |S(s, theta)| ds (finite, boundary-uniform): one walk, a row of panels per angle."""
    t0 = time.perf_counter()
    s_hi = 45.0 / flux_distance(cfg)
    edges = np.concatenate([np.linspace(0.0, 2.0, 9), np.geomspace(2.0, s_hi, 12)])
    n_panels = edges.size - 1
    n_theta = 16 * grids.n_angle - 1
    thetas = np.linspace(-0.5 * cfg.period + 0.03, 0.5 * cfg.period, n_theta)
    f = lambda s, panel: np.abs(schrodinger_angular_tail(s, thetas[panel // n_panels], cfg))
    rows = np.broadcast_to(edges, (n_theta, edges.size))
    values = adaptive_panel(f, rows[:, :-1], rows[:, 1:], 1e-10)
    l1 = np.array([float(np.real(sum(row))) for row in values])
    cf = float(l1.max())
    ratio, passed = _refinement(float(l1[::2].max()), cf)
    spec = f"theta x {n_theta} over one period, adaptive quadrature to 1e-10"
    return [_report("tail-l1", cfg, spec, cf, ratio, passed, _ms_since(t0),
                    ("theta", "l1_norm"), np.column_stack([thetas, l1]))]


# ---------------------------------------------------------------------------
# subordination identity
# ---------------------------------------------------------------------------

_SUBORDINATION_GRID = np.geomspace(0.1, 10.0, 10)  # the z and the y grid of subordination_identity_check


def subordination_identity_check(cfg: ConeConfig = REFERENCE_CONFIGS[0]) -> list[SweepReport]:
    """max relative error of e^{-z sqrt(y)} = z/(2 sqrt(pi)) int_0^inf e^{-s y - z^2/(4 s)} s^{-3/2} ds.

    The substitution s = (z / 2 sqrt(y)) e^u centers the saddle and factors
    out e^{-z sqrt(y)}, so both sides are compared at O(1) scale even deep
    in the exponential tail.
    """
    t0 = time.perf_counter()
    pairs = [(z, y) for z in _SUBORDINATION_GRID for y in _SUBORDINATION_GRID]
    scales = np.array([z * math.sqrt(y) for z, y in pairs])
    edges = []  # a row of panels per pair
    for a in scales.tolist():
        u_hi = math.asinh(45.0 / max(a, 1e-3)) + 45.0 / max(a, 0.5) + 4.0
        u_max = min(max(u_hi, 8.0), 120.0)
        edges.append(np.linspace(-u_max, u_max, 33))
    edges = np.array(edges)
    n_panels = edges.shape[1] - 1
    # rhs * e^{+a} = sqrt(a / (2 pi)) * int_R e^{-a (cosh u - 1) - u/2} du
    f = lambda u, panel: np.exp(-scales[panel // n_panels] * (np.cosh(u) - 1.0) - 0.5 * u)
    values = adaptive_panel(f, edges[:, :-1], edges[:, 1:], 1e-14)
    rows = []
    worst = 0.0
    for (z, y), a, row in zip(pairs, scales.tolist(), values):
        integral = np.real(sum(row))
        scaled_rhs = math.sqrt(a / (2.0 * math.pi)) * integral
        rel = abs(scaled_rhs - 1.0)
        worst = max(worst, rel)
        rows.append((z, y, 1.0, scaled_rhs, rel))
    passed = math.isfinite(worst) and worst < 1e-10
    spec = (f"(z, y) geomspace grid {_SUBORDINATION_GRID.size} x {_SUBORDINATION_GRID.size}; "
            "saddle-scaled identity check, ratio not applicable")
    return [_report("subordination", cfg, spec, worst, 1.0, passed, _ms_since(t0),
                    ("z", "y", "scaled_lhs", "scaled_rhs", "rel_err"), rows)]


# ---------------------------------------------------------------------------
# half-wave decay fit
# ---------------------------------------------------------------------------

_ONSET_TAU = 3.2  # upper edge (in 2^j t) of the decay-onset fit window


def halfwave_decay_fit(cfg: ConeConfig, j: int, grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    """Log-log decay slope of the frequency-truncated half-wave sup-kernel.

    The full admissible curve (up to 2^{-j} t = pi/(2 b0)) goes to the CSV;
    the slope is fitted on the onset window 2^j t in [1, 3.2].  The sup
    curve is not a single power law: it follows the proved rate at onset,
    dips through a transition, and (window permitting) returns to the rate
    with a smaller constant before the magnetic revival at the window edge;
    the onset window is the one regime present at every j.
    Pass criterion is the band [-0.75, -0.35] around the proved -1/2 rate.
    One halfwave_sup_curve call covers 6 n_radius - 1 radii and a uniform
    circle of max(2 n_angle, 32) angle gaps; the refinement
    ratio divides its slope by the slope over the 3 n_radius radii at even
    indices.  A shell that holds no mode raises DomainError before any sweep.
    """
    t0 = time.perf_counter()
    window = shell_window(j, cfg)
    t_lo = 2.0 ** (-j)
    t_hi = 2.0 ** j * math.pi / (2.0 * cfg.b0)
    ts = np.unique(np.concatenate([
        np.geomspace(t_lo, t_hi, 2 * grids.n_time + 2),
        np.geomspace(t_lo, min(_ONSET_TAU * t_lo, t_hi), 8),
    ]))
    onset = 2.0 ** j * ts <= _ONSET_TAU + 1e-12
    # angular bandwidth of the shell is ~ its k extent; radial wavelength ~ 2 pi / 2^j
    n_angle = max(2 * grids.n_angle, 32)
    r_max = min(2.5 + 2.0 ** j * math.pi / (2.0 * cfg.b0), 10.0)

    xdata = np.log(1.0 + 2.0 ** j * ts[onset])

    def slope(sups: np.ndarray) -> float:
        return float(np.polyfit(xdata, np.log(sups[onset]), 1)[0])

    by_pair = halfwave_sup_curve(j, ts, np.linspace(0.25, r_max, 6 * grids.n_radius - 1),
                                 -0.5 * cfg.period + 0.013, n_angle, cfg, window)
    sups = by_pair.max(axis=(1, 2))
    slope_c, slope_f = slope(by_pair[:, ::2, ::2].max(axis=(1, 2))), slope(sups)
    ratio = slope_f / slope_c if slope_c != 0 else 1.0
    passed = math.isfinite(slope_f) and (-0.75 <= slope_f <= -0.35)
    rows = [(t, 1.0 + 2.0 ** j * t, s) for t, s in zip(ts, sups)]
    spec = (f"j={j}, t geomspace[{t_lo:.6g},{t_hi:.6g}] x {ts.size}, fit on 2^j t <= {_ONSET_TAU}, "
            f"r <= {r_max:.3g}, window k_max={window.k_max} m_max={window.m_max}; "
            "constant = fitted log-log slope")
    return [_report("halfwave", cfg, spec, slope_f, ratio, passed, _ms_since(t0),
                    ("t", "one_plus_2j_t", "sup_abs_kernel"), rows)]


# ---------------------------------------------------------------------------
# energy conservation
# ---------------------------------------------------------------------------

def energy_conservation_check(cfg: ConeConfig, seed: int = _SEED) -> list[SweepReport]:
    """Unitarity of the Schrodinger and half-wave flows on coefficients."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    lam = eigenvalue_table(cfg, _ENERGY_WINDOW)
    worst = 0.0
    rows = []
    for i in range(_ENERGY_TRIALS):
        f = random_field(_ENERGY_WINDOW, rng)
        t = float(rng.uniform(-6.0, 6.0))
        n0 = f.coefficient_norm()
        for mult_name, mult in (("schrodinger", np.exp(1j * t * lam)),
                                ("halfwave", np.exp(1j * t * np.sqrt(lam)))):
            g = spectral_apply(lambda _lam, m=mult: m, f, cfg)
            dev = abs(g.coefficient_norm() - n0)
            worst = max(worst, dev)
            rows.append((float(i), t, float(dev)))
        # heat flow contracts at least as fast as the window's ground level
        th = float(rng.uniform(0.0, 2.0))
        g = spectral_apply(lambda lam_: np.exp(-th * lam_), f, cfg)
        bound = math.exp(-th * float(lam.min())) * n0
        if g.coefficient_norm() > bound * (1.0 + 1e-12):
            worst = max(worst, g.coefficient_norm() - bound)
    passed = worst < 1e-12
    spec = (f"{_ENERGY_TRIALS} random fields on window {_ENERGY_WINDOW.k_max} x {_ENERGY_WINDOW.m_max}, "
            "t uniform [-6,6]")
    return [_report("energy", cfg, spec, worst, 1.0, passed, _ms_since(t0),
                    ("trial", "t", "deviation"), rows)]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_suite(name: str, cfg: ConeConfig, grids: SweepGrids = SweepGrids(), seed: int = _SEED,
              halfwave_j: int = _HALFWAVE_J, gamma: float | None = None) -> list[SweepReport]:
    """Run one named sweep (or 'all', every sweep) on a configuration; reports come in SUITE_NAMES order.

    One weighted_dispersive_constant call makes the dispersive family's
    reports (dispersive, then for 'weighted' and 'all' weighted at gamma, or
    at 0, kappa/2 and kappa without it), after every other sweep, so its
    table is not held while they run.  A gamma outside [0, kappa], or a
    half-wave shell past the work cap or without a mode, raises before any
    sweep runs.  Each sweep is looked up
    by its module-level name when it runs, so a wrapper set on the module
    sees the call.
    """
    if name not in SUITE_NAMES + ("all",):
        raise DomainError(f"unknown suite '{name}'; choose from {SUITE_NAMES + ('all',)}")
    if gamma is not None and name in ("weighted", "all"):
        _require_gamma(cfg, gamma)
    if name in ("halfwave", "all"):
        shell_window(halfwave_j, cfg)  # raises on a shell past the work cap or without a mode
    sweeps = {
        "gaussian-heat": lambda: gaussian_heat_constant(cfg, grids),
        "reduced-kernel": lambda: reduced_kernel_bound_scan(cfg, grids),
        "tail-l1": lambda: angular_tail_l1_scan(cfg, grids),
        "subordination": lambda: subordination_identity_check(cfg=cfg),
        "halfwave": lambda: halfwave_decay_fit(cfg, halfwave_j, grids),
        "energy": lambda: energy_conservation_check(cfg, seed),
    }
    suites = SUITE_NAMES if name == "all" else (name,)
    reports = [rep for suite in suites if suite in sweeps for rep in sweeps[suite]()]
    if name not in ("dispersive", "weighted", "all"):
        return reports
    kappa = flux_distance(cfg)
    gammas = () if name == "dispersive" else (gamma,) if gamma is not None else (0.0, kappa / 2.0, kappa)
    # the family's two suites lead SUITE_NAMES, so its reports lead too
    return weighted_dispersive_constant(cfg, gammas, grids) + reports
