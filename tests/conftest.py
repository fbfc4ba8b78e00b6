import contextlib
import io
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from magcone import cli, kernels, lpbesov, spectrum
from magcone.errors import QuadratureError, WindowTooSmallError
from magcone.geometry import ConeConfig, make_point

REFERENCE = (
    ConeConfig(sigma=1.0, b0=1.0, alpha=0.25),
    ConeConfig(sigma=1.5, b0=1.0, alpha=0.4),
    ConeConfig(sigma=2.0, b0=0.5, alpha=0.3),
)


@pytest.fixture(params=REFERENCE, ids=lambda c: f"sigma{c.sigma}")
def cfg(request) -> ConeConfig:
    return request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)


@pytest.fixture(scope="session")
def verify_all_output(tmp_path_factory):
    """cfg -> the directory `magcone verify all` wrote for cfg at the default grids and seed.

    Each configuration runs once per session and its files are shared by
    every test that asks for it, so tests only read them.
    """
    outputs = {}

    def output(cone: ConeConfig) -> Path:
        if cone not in outputs:
            root = tmp_path_factory.mktemp(f"verify-all-sigma{cone.sigma:g}")
            config = root / "cone.cfg"
            config.write_text(f"sigma = {cone.sigma!r}\nalpha = {cone.alpha!r}\nb0 = {cone.b0!r}\n",
                              encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["--config", str(config), "--out", str(root / "out"), "verify", "all"])
            assert code == cli.EXIT_OK
            outputs[cone] = root / "out"
        return outputs[cone]

    return output


def _synthesis_bound(field, r, cfg) -> np.ndarray:
    """4 (K + M + 1) 2^-52 sum_{k,m} |c_{k,m}| |R_{k,m}(r)| per radius, over the K nonzero ks and M + 1 levels.

    At every theta it bounds how far two summation orders of the terms
    c_{k,m} R_{k,m}(r) e^{i k theta / sigma} may lie apart: an a-priori bound
    from the terms the term-by-term oracles add, not from the code under test.
    """
    live = np.any(field.coeffs, axis=1)
    rows = spectrum.radial_profiles(cfg, field.window.k_values[live], field.window.m_max, r)  # (K, M + 1, R)
    total = np.einsum("km,kmr->r", np.abs(field.coeffs[live]), np.abs(rows))
    return 4 * (np.count_nonzero(live) + field.window.m_max + 1) * 2.0 ** -52 * total


def _norm_bound(field, p, cfg, grid) -> float:
    """The synthesis bound's L^p norm on the grid (its maximum for p = inf).

    By the triangle inequality it bounds how far the L^p norms of two
    syntheses of the field within that bound lie apart.
    """
    bound = _synthesis_bound(field, grid.r, cfg)
    return grid.lp_norm(np.broadcast_to(bound[:, None], (grid.r.size, grid.theta.size)), p)


@pytest.fixture(scope="session")
def synthesis_bound():
    """field, r, cfg -> the per-radius rounding bound of a synthesis against the term-by-term sum."""
    return _synthesis_bound


@pytest.fixture(scope="session")
def norm_bound():
    """field, p, cfg, grid -> the bound on how far two L^p norms of syntheses of the field lie apart."""
    return _norm_bound


def _shell_modes(j, cfg, window):
    """Brute force: dyadic shell j's modes on the window, each eigenvalue checked against [4^(j-1), 4^(j+1)].

    Returns [(k, m_array)] for the k >= 0 rows holding a shell mode and the
    m_array of the degenerate ladder (row k = -1, which every k <= -1 row
    repeats, even when the window has no such row).  Raises
    WindowTooSmallError when a shell mode lies past k_max on the k >= 0 side
    or past m_max in a row the window's k range reaches (the ladder counts
    always); a shell may hold 2^20 modes, so the work cap is checked first.
    Every mode with eigenvalue <= 4^(j+1) lies in the box searched.
    """
    lpbesov._require_shell_bounded(j, cfg)
    lo, hi = 4.0 ** (j - 1), 4.0 ** (j + 1)
    k_box = max(window.k_max, math.ceil(hi / cfg.b0 * cfg.sigma / 2.0)) + 1
    m_box = max(window.m_max, math.ceil(hi / cfg.b0 / 2.0)) + 1
    inside = {}  # k -> which of the levels m = 0..m_box of row k lie in the shell
    for k in range(-1, k_box + 1):
        lam = spectrum.eigenvalue(cfg, k, np.arange(m_box + 1))
        inside[k] = (lo <= lam) & (lam <= hi)
    if any(inside[k].any() for k in range(window.k_max + 1, k_box + 1)):
        raise WindowTooSmallError(f"shell j={j} extends past k_max={window.k_max} on the k >= 0 side")
    if any(inside[k][window.m_max + 1:].any() for k in range(-1, window.k_max + 1)):
        raise WindowTooSmallError(f"shell j={j} needs m past m_max={window.m_max}")
    pos = [(k, np.flatnonzero(inside[k][:window.m_max + 1])) for k in range(window.k_max + 1)]
    return [(k, ms) for k, ms in pos if ms.size], np.flatnonzero(inside[-1][:window.m_max + 1])


@pytest.fixture(scope="session")
def shell_modes():
    """j, cfg, window -> the brute-force mode lists of dyadic shell j on the window, or WindowTooSmallError."""
    return _shell_modes


def _grid_refuses(dtheta: float, cfg: ConeConfig) -> bool:
    try:
        kernels.image_angles(dtheta, cfg, kernels._GRID_BOUNDARY_GAP)
    except QuadratureError:
        return True
    return False


def _heat_kernel_row(cfg, t, p_r, p_theta, r, theta) -> np.ndarray:
    """K_t((p_r, p_theta), (r_i, theta_j)) as a (n_theta, n_r) matrix.

    heat_closed_bracket_grid gives every angle it accepts; the ones it
    refuses, within 0.01 of an image boundary, take heat_kernel_closed
    point by point.
    """
    x = cfg.b0 * p_r * r / (2.0 * np.sinh(t * cfg.b0))
    qq = cfg.b0 * (p_r ** 2 + r ** 2) / (4.0 * np.tanh(t * cfg.b0))
    dtheta = p_theta - theta
    near = np.array([_grid_refuses(float(d), cfg) for d in dtheta])
    bracket = np.empty((theta.size, r.size), dtype=complex)
    bracket[~near] = kernels.heat_closed_bracket_grid(x, dtheta[~near], t, cfg)
    row = cfg.b0 / (4.0 * np.pi * np.sinh(t * cfg.b0)) * np.exp(-qq)[None, :] * bracket
    p = make_point(cfg, p_r, p_theta)
    for i in np.flatnonzero(near):
        row[i] = [kernels.heat_kernel_closed(t, p, make_point(cfg, r_i, theta[i]), cfg).value for r_i in r]
    return row


@pytest.fixture(scope="session")
def heat_kernel_row():
    """cfg, t, p_r, p_theta, r, theta -> the heat kernel from one point to a (theta, r) product grid."""
    return _heat_kernel_row


def _heat_kernel_mp(t, p, q, cfg, dps=60) -> complex:
    """The heat angular series in dps-digit arithmetic, both k-directions summed until 3 terms in a row are negligible.

    It runs under mpmath.workdps, so the precision of later mpmath calls is untouched.
    """
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


@pytest.fixture(scope="session")
def heat_kernel_mp():
    """t, p, q, cfg, dps=60 -> the heat kernel from its angular series summed in mpmath."""
    return _heat_kernel_mp
