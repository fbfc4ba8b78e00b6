"""The benchmark's workloads: seeded inputs, the fixed op list of one pass, oracles.

Every op is a call into magcone's public functions, looked up through the
module attribute at call time so that the tracer's wrappers see it.  An
op's oracle runs after its timer stops and returns one of

    OK       the output passed its check
    KNOWN    the output failed its check and the failure is the documented
             heat-series cancellation defect (NOTES.md); counted as failed
    FAIL     any other failed check; the run reports correct = false
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np
from scipy import special as _sp

from magcone import cli, kernels, lpbesov, spectrum, verify
from magcone.geometry import ConeConfig, make_point

OK, KNOWN, FAIL = "ok", "known-defect", "fail"

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
CONFIGS = verify.REFERENCE_CONFIGS
BOUNDARY_GAP = 0.04  # admissible distance from the image-sum boundaries


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]


def late(module, name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of ``module.name`` resolved when it runs, so tracer wrappers apply."""
    return lambda: getattr(module, name)(*args, **kwargs)


class Workload:
    """The op list of one pass, the warm-up ops, and counts a pass adds up."""

    name = ""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.warmups: list[Op] = []
        self.pass_counts: dict = {}

    def begin_pass(self) -> None:
        self.pass_counts = {}


def config_key(cfg: ConeConfig) -> str:
    return f"sigma={cfg.sigma:g},alpha={cfg.alpha:g},b0={cfg.b0:g}"


# ---------------------------------------------------------------------------
# certify: `magcone verify all` through the CLI entry point
# ---------------------------------------------------------------------------

# Coarse grids: the warm-up runs every sweep once (every code path and cold
# cache of the full op) in about a third of its time.  Some sweeps fail their
# refinement check on grids this coarse; a warm-up's output is not checked.
WARMUP_GRIDS = "n_time = 3\nn_radius = 3\nn_angle = 4\n"


def write_config(path: Path, cfg: ConeConfig, extra: str = "") -> Path:
    path.write_text(f"sigma = {cfg.sigma!r}\nalpha = {cfg.alpha!r}\nb0 = {cfg.b0!r}\n{extra}",
                    encoding="utf-8")
    return path


def run_verify(config: Path, out_dir: Path, suite: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--config", str(config), "--out", str(out_dir), "verify", suite])


def read_artifacts(out_dir: Path) -> tuple[dict, dict, int]:
    """(empirical constants by sweep, sha256 by file name, bytes) of one verify run."""
    constants, digests, size = {}, {}, 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        size += len(data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".json":
            report = json.loads(data)
            constants[report["name"]] = report["empirical_constant"]
    return constants, digests, size


class Certify(Workload):
    """Each op is `verify all` on one reference config; the seed orders the configs.

    The verify seed stays at the config default, so the artifacts can be
    compared bitwise with the digests recorded in reference.json.
    """

    name = "certify"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["configs"]
        order = np.random.default_rng(seed).permutation(len(CONFIGS))
        for i in order:
            cfg = CONFIGS[i]
            out_dir = workdir / f"verify-{i}"
            config = write_config(workdir / f"cone-{i}.cfg", cfg)
            self.ops.append(Op("verify all", partial(run_verify, config, out_dir, "all"),
                               partial(self._check, reference[config_key(cfg)], out_dir)))
        warm = write_config(workdir / "warmup.cfg", CONFIGS[0], WARMUP_GRIDS)
        self.warmups = [Op("verify all", partial(run_verify, warm, workdir / "warmup", "all"),
                           lambda _rc: OK)]

    def begin_pass(self) -> None:
        self.pass_counts = {"verify.bytes_written": 0, "verify.artifacts_changed": 0}

    def _check(self, reference: dict, out_dir: Path, rc: int) -> str:
        try:
            if rc != 0:
                return FAIL
            constants, digests, size = read_artifacts(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.pass_counts["verify.bytes_written"] += size
        recorded = reference["sha256"]
        self.pass_counts["verify.artifacts_changed"] += sum(
            digests.get(name) != recorded.get(name) for name in set(digests) | set(recorded))
        if set(constants) != set(reference["empirical_constant"]):
            return FAIL
        for sweep, expected in reference["empirical_constant"].items():
            # 1e-9 relative; the absolute floor covers the two sweeps whose
            # constant is itself a rounding error (energy, subordination)
            if not abs(constants[sweep] - expected) <= 1e-9 * abs(expected) + 1e-13:
                return FAIL
        return OK


# ---------------------------------------------------------------------------
# kernel-points: heat / Schrodinger kernels in series and closed form
# ---------------------------------------------------------------------------

POINTS_PER_STRATUM = 200  # per (config, kind); one pass = 3 x 2 x 200 ops
MIN_SIN = 0.2  # lower bound on |sin t b0| of the acceptance grid
TOLERANCE = {"heat": 1e-8, "schrodinger": 1e-6}  # acceptance-gate tolerances


def admissible_angle(rng: np.random.Generator, period: float) -> float:
    """Uniform on [0, period) minus the arcs within BOUNDARY_GAP of +-pi (mod period).

    The gap is built into the sampling measure; no drawn point is rejected.
    """
    cuts = sorted({math.pi % period, (-math.pi) % period})
    arcs, start = [], 0.0
    for c in cuts:
        arcs.append((start, c - BOUNDARY_GAP))
        start = c + BOUNDARY_GAP
    arcs.append((start, period))
    u = rng.uniform(0.0, sum(b - a for a, b in arcs))
    for a, b in arcs:
        if u < b - a:
            return a + u
        u -= b - a
    return arcs[-1][1]


def sample_point(rng: np.random.Generator, cfg: ConeConfig, kind: str):
    """(t, p, q) from the admissible set of the acceptance grid.

    t b0 is uniform on [asin 0.2, pi - asin 0.2], so |sin t b0| >= 0.2 as in
    test_grid_is_admissible; radii are uniform on the sweep range
    [r_min, r_max].  The heat closed form needs p.theta - q.theta off the
    image boundaries, the Schrodinger one needs t b0 - (p.theta - q.theta)
    off them; each kind draws its own angle from admissible_angle.
    """
    grids = verify.SweepGrids()
    tb = rng.uniform(math.asin(MIN_SIN), math.pi - math.asin(MIN_SIN))
    r1, r2 = rng.uniform(grids.r_min, grids.r_max, 2)
    theta_q = rng.uniform(0.0, cfg.period)
    angle = admissible_angle(rng, cfg.period)
    dtheta = angle if kind == "heat" else tb - angle
    return tb / cfg.b0, make_point(cfg, r1, theta_q + dtheta), make_point(cfg, r2, theta_q)


def evaluate_both(kind: str, t, p, q, cfg):
    if kind == "heat":
        return kernels.heat_kernel_series(t, p, q, cfg), kernels.heat_kernel_closed(t, p, q, cfg)
    return (kernels.schrodinger_kernel_series(t, p, q, cfg),
            kernels.schrodinger_kernel_closed(t, p, q, cfg))


def heat_kernel_mp(t: float, p, q, cfg: ConeConfig, dps: int = 40) -> complex:
    """The heat angular series summed in dps-digit arithmetic (mpmath)."""
    with mpmath.workdps(dps):
        sg, al = mpmath.mpf(cfg.sigma), mpmath.mpf(cfg.alpha)
        tb = mpmath.mpf(t) * cfg.b0
        x = cfg.b0 * mpmath.mpf(p.r) * q.r / (2 * mpmath.sinh(tb))
        big_q = cfg.b0 * (mpmath.mpf(p.r) ** 2 + mpmath.mpf(q.r) ** 2) / (4 * mpmath.tanh(tb))
        theta = mpmath.mpf(p.theta) - mpmath.mpf(q.theta)

        def term(k):
            return mpmath.exp(1j * (k / sg) * (theta + 1j * tb)) * mpmath.besseli(abs(k / sg + al), x)

        total = term(0)
        peak = abs(total)
        for step in (1, -1):
            k, quiet = step, 0
            while quiet < 3:
                v = term(k)
                total += v
                peak = max(peak, abs(v))
                quiet = quiet + 1 if abs(v) < mpmath.mpf(10) ** (-dps) * peak else 0
                k += step
        pref = cfg.b0 * mpmath.exp(-tb * al) / (4 * mpmath.pi * sg * mpmath.sinh(tb))
        return complex(pref * mpmath.exp(-big_q) * total)


class KernelPoints(Workload):
    """One op = one admissible (t, p, q) in both representations (`--repr both`)."""

    name = "kernel-points"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self._diagnosis: dict[int, str] = {}
        for cfg in CONFIGS:
            for kind in ("heat", "schrodinger"):
                for _ in range(POINTS_PER_STRATUM):
                    t, p, q = sample_point(rng, cfg, kind)
                    self.ops.append(Op(kind, partial(evaluate_both, kind, t, p, q, cfg),
                                       partial(self._check, len(self.ops), kind, t, p, q, cfg)))
        self.warmups = [self.ops[0], self.ops[POINTS_PER_STRATUM]]

    def _check(self, index, kind, t, p, q, cfg, pair) -> str:
        series, closed = pair[0].value, pair[1].value
        rel = abs(series - closed) / abs(series)
        if rel <= TOLERANCE[kind]:
            return OK
        if kind != "heat" or not math.isfinite(rel):
            return FAIL
        if index not in self._diagnosis:
            # the documented defect: the series loses digits to cancellation
            # while the closed form is right; anything else is a new failure
            exact = heat_kernel_mp(t, p, q, cfg)
            closed_ok = abs(closed - exact) <= 1e-10 * abs(exact)
            series_bad = abs(series - exact) > TOLERANCE["heat"] * abs(exact)
            self._diagnosis[index] = KNOWN if closed_ok and series_bad else FAIL
        return self._diagnosis[index]


# ---------------------------------------------------------------------------
# spectral-lp: analysis, synthesis, Besov / Bernstein, half-wave
# ---------------------------------------------------------------------------

FIELD_WINDOW = spectrum.ModeWindow(8, 8)
EXPAND_QUAD = spectrum.QuadratureSpec(n_radial=24, n_theta=48)
QUERIES_PER_CONFIG = 16  # field_on_grid on a seeded 6 x 6 grid
APPLIES_PER_CONFIG = 10  # spectral_apply, heat and Schrodinger alternating
HALFWAVE_J = 1
# sigma = 2, j = 2 needs a 136 x 64 window (about 2.5 s a call): as the one op
# holding 60% of a pass it made wall_s follow that call's noise alone (five-seed
# spread of wall_s 0.21 with it, 0.08 without), so j = 2 runs on sigma = 1, 1.5 only
BERNSTEIN_LEVELS = {1.0: (0, 1, 2), 1.5: (0, 1, 2), 2.0: (0, 1)}


def shell_window(j: int, cfg: ConeConfig, k_floor: int = 0) -> spectrum.ModeWindow:
    """The smallest window covering dyadic shell j (the rule halfwave_decay_fit uses)."""
    lam_hi = 4.0 ** (j + 1)
    m_need = int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1
    k_need = int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8
    return spectrum.ModeWindow(max(k_need, k_floor), m_need)


def field_reference(field, r, theta, cfg: ConeConfig) -> np.ndarray:
    """Synthesis from the closed-form eigenfunctions via scipy's Laguerre polynomials."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = cfg.b0 * r * r / 2.0
    ms = field.window.m_values
    out = np.zeros((r.size, theta.size), dtype=complex)
    for ik, k in enumerate(field.window.k_values):
        a = abs(k / cfg.sigma + cfg.alpha)
        # L_m^a(u) / L_m^a(0) and the squared norm of r^a e^{-u/2} L_m^a(u) / L_m^a(0)
        at_zero = np.exp(_sp.gammaln(ms + a + 1.0) - _sp.gammaln(ms + 1.0) - _sp.gammaln(a + 1.0))
        lag = _sp.eval_genlaguerre(ms[:, None], a, u[None, :]) / at_zero[:, None]
        norm_sq = 0.5 * (2.0 / cfg.b0) ** (a + 1.0) * _sp.gamma(a + 1.0) / at_zero
        radial = r[None, :] ** a * np.exp(-u / 2.0)[None, :] * lag / np.sqrt(cfg.period * norm_sq)[:, None]
        out += np.outer(field.coeffs[ik] @ radial, np.exp(1j * (k / cfg.sigma) * theta))
    return out


def _planted_samples(field, cfg):
    return lambda r, theta: spectrum.field_on_grid(field, np.ravel(r), np.ravel(theta), cfg)


def _check_expand(planted, recovered) -> str:
    return OK if float(np.abs(recovered.coeffs - planted.coeffs).max()) <= 1e-8 else FAIL


def _check_query(expected, values) -> str:
    return OK if float(np.abs(values - expected).max()) <= 1e-8 else FAIL


def _check_apply(field, kind, t, lam_min, result) -> str:
    n0, n1 = field.coefficient_norm(), result.coefficient_norm()
    if kind == "schrodinger":
        return OK if abs(n1 - n0) <= 1e-12 else FAIL
    return OK if n1 <= math.exp(-t * lam_min) * n0 * (1.0 + 1e-12) else FAIL


def _check_besov(sobolev, value) -> str:
    ratio = value / sobolev
    return OK if 1.0 / math.sqrt(2.0) - 1e-6 <= ratio <= math.sqrt(2.0) + 1e-6 else FAIL


def _check_report(report) -> str:
    s, q = report["s"], report["q"]
    rebuilt = sum((2.0 ** (sh["j"] * s) * sh["lp_norm"]) ** q for sh in report["shells"]) ** (1.0 / q)
    value = report["value"]
    ok = math.isfinite(value) and value > 0.0 and abs(value - rebuilt) <= 1e-10 * value
    return OK if ok else FAIL


def _check_positive(value) -> str:
    return OK if math.isfinite(value) and value > 0.0 else FAIL


def _check_halfwave(j, t, r_nodes, dtheta, cfg, window, grid) -> str:
    cutoff = lpbesov.make_cutoff()
    mult = lambda lam: cutoff(np.sqrt(lam) / 2.0 ** j) * np.exp(1j * t * np.sqrt(lam))
    p = make_point(cfg, r_nodes[0], dtheta[0])
    q = make_point(cfg, r_nodes[-1], 0.0)
    expected = kernels.spectral_kernel(mult, p, q, cfg, window)
    scale = float(np.abs(grid).max())
    ok = np.all(np.isfinite(grid)) and abs(grid[0, 0, -1] - expected) <= 1e-8 * scale
    return OK if ok else FAIL


class SpectralLp(Workload):
    """Per config: expand, queries, multipliers, Besov, Bernstein j=0..2, half-wave."""

    name = "spectral-lp"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        grids = verify.SweepGrids()
        ops = self.ops
        for cfg in CONFIGS:
            planted = spectrum.random_field(FIELD_WINDOW, rng)
            second = spectrum.random_field(FIELD_WINDOW, rng)
            ops.append(Op("expand", late(spectrum, "expand", _planted_samples(planted, cfg),
                                         FIELD_WINDOW, cfg, EXPAND_QUAD),
                          partial(_check_expand, planted)))
            for _ in range(QUERIES_PER_CONFIG):
                r = rng.uniform(grids.r_min, grids.r_max, 6)
                theta = rng.uniform(0.0, cfg.period, 6)
                ops.append(Op("field_on_grid", late(spectrum, "field_on_grid", planted, r, theta, cfg),
                              partial(_check_query, field_reference(planted, r, theta, cfg))))
            lam_min = float(spectrum.eigenvalue_table(cfg, FIELD_WINDOW).min())
            for i in range(APPLIES_PER_CONFIG):
                if i % 2 == 0:
                    kind, t = "heat", rng.uniform(0.05, 2.0)
                    mult = spectrum.heat_multiplier(t)
                else:
                    kind, t = "schrodinger", rng.uniform(-6.0, 6.0)
                    mult = spectrum.schrodinger_multiplier(t)
                ops.append(Op("spectral_apply", late(spectrum, "spectral_apply", mult, planted, cfg),
                              partial(_check_apply, planted, kind, t, lam_min)))
            for f in (planted, second):
                ops.append(Op("besov_norm", late(lpbesov, "besov_norm", f, 0.0, 2.0, 2.0, cfg),
                              partial(_check_besov, lpbesov.sobolev_norm(f, 0.0, cfg))))
            ops.append(Op("besov_report", late(lpbesov, "besov_report", planted, 0.5, 4.0, 2.0, cfg),
                          _check_report))
            for j in BERNSTEIN_LEVELS[cfg.sigma]:
                trial_seed = int(rng.integers(2 ** 31))
                ops.append(Op("bernstein_ratio",
                              late(lpbesov, "bernstein_ratio", j, math.inf, 2.0, cfg,
                                   shell_window(j, cfg), trials=2, seed=trial_seed),
                              _check_positive))
            window = shell_window(HALFWAVE_J, cfg, k_floor=40)
            t = rng.uniform(0.2, 2.0)
            r_nodes = np.sort(rng.uniform(0.3, 2.0, 5))
            dtheta = rng.uniform(-0.5 * cfg.period, 0.5 * cfg.period, 6)
            ops.append(Op("halfwave_kernel_grid",
                          late(kernels, "halfwave_kernel_grid", HALFWAVE_J, t, r_nodes, dtheta, cfg, window),
                          partial(_check_halfwave, HALFWAVE_J, t, r_nodes, dtheta, cfg, window)))
        first = {}
        for op in ops:
            first.setdefault(op.kind, op)
        self.warmups = list(first.values())


WORKLOADS = {w.name: w for w in (Certify, KernelPoints, SpectralLp)}
