"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines as
they complete.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy import integrate, special

from magcone.cli import main as cli_main
from magcone.geometry import ConeConfig, flux_distance, make_point
from magcone.kernels import (
    heat_kernel_closed,
    heat_kernel_series,
    schrodinger_kernel_closed,
    schrodinger_kernel_series,
)
from magcone.lpbesov import besov_norm, make_cutoff, sobolev_norm
from magcone.spectrum import (
    ModeWindow,
    QuadratureSpec,
    eigenvalue,
    expand,
    field_on_grid,
    radial_profiles,
    random_field,
    schrodinger_multiplier,
    spectral_apply,
)
from magcone.verify import (
    REFERENCE_CONFIGS,
    SweepGrids,
    angular_tail_l1_scan,
    gaussian_heat_constant,
    halfwave_decay_fit,
    reduced_kernel_bound_scan,
    subordination_identity_check,
    weighted_dispersive_constant,
)

# reference 5 x 5 x 5 grid; the time values keep |sin(t b0)| >= 0.2 and all
# induced angles >= 0.045 from the image-sum boundaries for every reference
# configuration (checked in test_grid_is_admissible)
T_B_GRID = (0.4210, 0.8098, 1.2050, 1.9667, 2.5271)
P_RADII = (0.35, 0.8, 1.3, 1.9, 2.5)
P_FRACS = (0.03, 0.22, 0.41, 0.63, 0.87)
Q_RADII = (0.5, 0.95, 1.45, 2.0, 2.55)
Q_FRACS = (0.11, 0.29, 0.52, 0.71, 0.93)


def _grid_points(cfg):
    ps = [make_point(cfg, r, f * cfg.period) for r, f in zip(P_RADII, P_FRACS)]
    qs = [make_point(cfg, r, f * cfg.period) for r, f in zip(Q_RADII, Q_FRACS)]
    ts = [tb / cfg.b0 for tb in T_B_GRID]
    return ts, ps, qs


def _boundary_distance(theta, period):
    j = np.round((np.array([-math.pi, math.pi]) - theta) / period)
    return float(np.abs(theta + period * j - np.array([-math.pi, math.pi])).min())


def report(num, text):
    print(f"[criterion {num}] PASS - {text}")


def test_grid_is_admissible():
    for cfg in REFERENCE_CONFIGS:
        ts, ps, qs = _grid_points(cfg)
        for t in ts:
            assert abs(math.sin(t * cfg.b0)) >= 0.2
            for p in ps:
                for q in qs:
                    dth = p.theta - q.theta
                    assert _boundary_distance(dth, cfg.period) >= 0.04
                    assert _boundary_distance(t * cfg.b0 - dth, cfg.period) >= 0.04


def test_criterion_1_cross_representation_agreement():
    for cfg in REFERENCE_CONFIGS:
        start = time.perf_counter()
        ts, ps, qs = _grid_points(cfg)
        worst_heat = worst_schrod = 0.0
        for t in ts:
            for p in ps:
                for q in qs:
                    hs = heat_kernel_series(t, p, q, cfg).value
                    hc = heat_kernel_closed(t, p, q, cfg).value
                    worst_heat = max(worst_heat, abs(hs - hc) / abs(hs))
                    ss = schrodinger_kernel_series(t, p, q, cfg).value
                    sc = schrodinger_kernel_closed(t, p, q, cfg).value
                    worst_schrod = max(worst_schrod, abs(ss - sc) / abs(ss))
        elapsed = time.perf_counter() - start
        assert worst_heat < 1e-8, (cfg, worst_heat)
        assert worst_schrod < 1e-6, (cfg, worst_schrod)
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min for sigma={cfg.sigma}"
        report(1, f"sigma={cfg.sigma}: heat rel {worst_heat:.2e} < 1e-8, "
                  f"schrodinger rel {worst_schrod:.2e} < 1e-6, runtime {elapsed:.0f}s < 120s")


def test_criterion_2_euclidean_reduction():
    cfg = ConeConfig(1.0, 1.0, 1e-9)
    p = make_point(cfg, 1.0, 0.0)
    diag = heat_kernel_series(1.0, p, p, cfg).value
    oracle = 1.0 / (4.0 * math.pi * math.sinh(1.0))
    assert abs(diag - oracle) < 1e-6

    worst = 0.0
    for t in (0.45, 0.9, 1.6):
        for r2, th2 in ((1.7, 2.3), (0.6, 4.9), (2.3, 0.8)):
            q = make_point(cfg, r2, th2)
            x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(t))
            qq = cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(t))
            mehler = cfg.b0 / (4.0 * math.pi * math.sinh(t)) * cmath.exp(
                -qq + x * cmath.cosh(complex(t, -(p.theta - q.theta))))
            got = heat_kernel_series(t, p, q, cfg).value
            worst = max(worst, abs(got - mehler) / abs(mehler))
    assert worst < 1e-7
    report(2, f"Mehler reduction: diagonal err {abs(diag - oracle):.2e} < 1e-6, "
              f"off-diagonal rel {worst:.2e} < 1e-7")


def _vectorized_eigenfunction(cfg, k, m):
    def f(r, theta):
        rr, tt = np.broadcast_arrays(np.asarray(r, float), np.asarray(theta, float))
        rad = radial_profiles(cfg, k, m, rr.ravel())[m]
        return (rad * np.exp(1j * (k / cfg.sigma) * tt.ravel())).reshape(rr.shape)

    return f


def test_criterion_3_spectral_correctness():
    start = time.perf_counter()
    cfg = REFERENCE_CONFIGS[1]
    window = ModeWindow(4, 4)
    quad = QuadratureSpec(n_radial=60, n_theta=96)

    # orthonormality: expansion of each eigenfunction is a Kronecker delta
    worst_gram = 0.0
    for k in window.k_values:
        for m in window.m_values:
            fld = expand(_vectorized_eigenfunction(cfg, int(k), int(m)), window, cfg, quad)
            target = np.zeros(window.shape, dtype=complex)
            target[k + window.k_max, m] = 1.0
            worst_gram = max(worst_gram, float(np.abs(fld.coeffs - target).max()))
    assert worst_gram < 1e-8

    # eigen-equation residual by 5-point finite differences
    rng = np.random.default_rng(42)
    h = 1e-3
    r = np.linspace(0.2, 3.0, 30)
    worst_eig = 0.0
    for _ in range(10):
        k = int(rng.integers(-4, 5))
        m = int(rng.integers(0, 5))
        lam = float(eigenvalue(cfg, k, m))
        s = k / cfg.sigma + cfg.alpha
        offs = np.array([-2, -1, 0, 1, 2]) * h
        vals = np.stack([radial_profiles(cfg, k, m, r + o)[m] for o in offs])
        d2 = np.array([-1, 16, -30, 16, -1]) / (12 * h * h) @ vals
        d1 = np.array([1, -8, 0, 8, -1]) / (12 * h) @ vals
        op = -d2 - d1 / r + (s + cfg.b0 * r * r / 2.0) ** 2 / (r * r) * vals[2]
        worst_eig = max(worst_eig, float(np.abs(op - lam * vals[2]).max() / np.abs(lam * vals[2]).max()))
    assert worst_eig < 1e-5

    # expand-then-synthesize round trip
    field = random_field(window, rng)

    def f(r_, th_):
        rr, tt = np.broadcast_arrays(np.asarray(r_, float), np.asarray(th_, float))
        vals = np.zeros(rr.shape, dtype=complex)
        for ik, k in enumerate(window.k_values):
            rad = radial_profiles(cfg, int(k), window.m_max, rr.ravel())
            vals += ((field.coeffs[ik] @ rad) * np.exp(1j * (k / cfg.sigma) * tt.ravel())
                     ).reshape(rr.shape)
        return vals

    recovered = expand(f, window, cfg, quad)
    worst_rt = float(np.abs(recovered.coeffs - field.coeffs).max())
    for _ in range(20):
        p = make_point(cfg, rng.uniform(0.1, 3.0), rng.uniform(0.0, cfg.period))
        worst_rt = max(worst_rt, abs(field_on_grid(recovered, [p.r], [p.theta], cfg)[0, 0]
                                     - complex(f(np.array([p.r]), np.array([p.theta]))[0])))
    assert worst_rt < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"orthonormality {worst_gram:.2e} < 1e-8, eigen-residual {worst_eig:.2e} < 1e-5, "
              f"round-trip {worst_rt:.2e} < 1e-8, runtime {elapsed:.0f}s < 60s")


def _composition_error(cfg, row):
    t1, t2 = 0.5 / cfg.b0, 0.3 / cfg.b0
    p = make_point(cfg, 1.2, 0.5)
    q = make_point(cfg, 0.9, 2.3)
    x_leg, w_leg = np.polynomial.legendre.leggauss(240)
    r = 0.5 * 8.0 * (x_leg + 1.0) / math.sqrt(cfg.b0)
    w_r = 0.5 * 8.0 * w_leg / math.sqrt(cfg.b0) * r
    theta = np.arange(192) * (cfg.period / 192)

    k_p = row(cfg, t1, p.r, p.theta, r, theta)
    k_q = row(cfg, t2, q.r, q.theta, r, theta).conj()
    total = complex(np.sum(k_p * k_q * w_r[None, :]) * (cfg.period / 192))
    direct = heat_kernel_series(t1 + t2, p, q, cfg).value
    return abs(total - direct) / abs(direct)


def test_criterion_4_semigroup_symmetry_unitarity(heat_kernel_row):
    worst_comp = worst_herm = worst_unit = 0.0
    rng = np.random.default_rng(11)
    for cfg in REFERENCE_CONFIGS:
        worst_comp = max(worst_comp, _composition_error(cfg, heat_kernel_row))

        t = 0.8 / cfg.b0
        p = make_point(cfg, 1.1, 0.4)
        q = make_point(cfg, 0.7, 2.9)
        a = heat_kernel_series(t, p, q, cfg).value
        b = heat_kernel_series(t, q, p, cfg).value
        worst_herm = max(worst_herm, abs(a - b.conjugate()) / abs(a))
        sa = schrodinger_kernel_series(-t, p, q, cfg).value
        sb = schrodinger_kernel_series(t, q, p, cfg).value
        worst_herm = max(worst_herm, abs(sa - sb.conjugate()) / abs(sa))

        window = ModeWindow(8, 8)
        for _ in range(10):
            f = random_field(window, rng)
            g = spectral_apply(schrodinger_multiplier(float(rng.uniform(-5, 5))), f, cfg)
            worst_unit = max(worst_unit, abs(g.coefficient_norm() - f.coefficient_norm()))
    assert worst_comp < 1e-6
    assert worst_herm < 1e-12
    assert worst_unit < 1e-12
    report(4, f"composition {worst_comp:.2e} < 1e-6, Hermitian {worst_herm:.2e} < 1e-12, "
              f"unitarity {worst_unit:.2e} < 1e-12")


@pytest.mark.slow
def test_criterion_5_estimate_certification():
    start = time.perf_counter()
    grids = SweepGrids(n_time=5, n_radius=7, n_angle=14)
    lines = []
    for cfg in REFERENCE_CONFIGS:
        kappa = flux_distance(cfg)
        reports = weighted_dispersive_constant(cfg, (0.0, kappa / 2.0, kappa), grids)
        reports += gaussian_heat_constant(cfg, grids)
        reports += reduced_kernel_bound_scan(cfg, grids=grids)
        reports += angular_tail_l1_scan(cfg, grids)
        for rep in reports:
            assert math.isfinite(rep.empirical_constant), rep.name
            assert rep.refinement_ratio <= 1.05, (rep.name, rep.refinement_ratio)
            assert rep.passed, rep.name
        lines.append(f"sigma={cfg.sigma}: {len(reports)} sweeps pass")
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, "; ".join(lines) + f"; runtime {elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_criterion_6_halfwave_decay_rate():
    cfg = REFERENCE_CONFIGS[0]
    slopes = []
    for j in (1, 2, 3):
        rep = halfwave_decay_fit(cfg, j)[0]
        assert -0.75 <= rep.empirical_constant <= -0.35, (j, rep.empirical_constant)
        slopes.append(rep.empirical_constant)
    report(6, "half-wave log-log slopes " + ", ".join(f"j={j}: {s:.3f}" for j, s in
                                                      zip((1, 2, 3), slopes))
           + " all in [-0.75, -0.35]")


def test_criterion_7_identity_checks():
    rep = subordination_identity_check()[0]
    assert rep.empirical_constant < 1e-10

    rng = np.random.default_rng(99)
    worst_prod = 0.0
    for _ in range(20):
        nu = rng.uniform(0.0, 2.0)
        a, b = rng.uniform(0.05, 3.0, size=2)
        lhs, _ = integrate.quad(
            lambda t: math.exp(-t * t) * special.jv(nu, a * t) * special.jv(nu, b * t) * t,
            0.0, 30.0, limit=300)
        rhs = 0.5 * math.exp(-(a * a + b * b) / 4.0) * special.iv(nu, a * b / 2.0)
        worst_prod = max(worst_prod, abs(lhs - rhs))
    assert worst_prod < 1e-8

    cutoff = make_cutoff()
    residual = cutoff.partition_residual(np.geomspace(1e-3, 1e3, 200))
    assert residual < 1e-12

    worst_lo, worst_hi = 2.0, 0.0
    for cfg in REFERENCE_CONFIGS:
        for _ in range(20):
            f = random_field(ModeWindow(4, 4), rng)
            ratio = besov_norm(f, 0.0, 2.0, 2.0, cfg) / sobolev_norm(f, 0.0, cfg)
            worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    assert worst_lo >= 1.0 / math.sqrt(2.0) - 1e-6
    assert worst_hi <= math.sqrt(2.0) + 1e-6
    report(7, f"subordination {rep.empirical_constant:.2e} < 1e-10, product identity "
              f"{worst_prod:.2e} < 1e-8, partition {residual:.2e} < 1e-12, "
              f"equivalence ratio in [{worst_lo:.4f}, {worst_hi:.4f}]")


@pytest.mark.slow
def test_criterion_8_reproducibility(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = cli_main(["--out", str(out), "--seed", "123", "verify", "all"])
        assert code == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and len(files1) > 0
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(8, f"verify all twice: {len(files1)} artifacts bitwise identical")
