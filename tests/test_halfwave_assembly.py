"""The half-wave shell assembly that halfwave_kernel_grid and the verify sup curve share.

Holds a statement-for-statement oracle of the earlier per-k einsum grid
assembly, the degenerate-branch tail check, the shell windows against the
window cap, the shell weights at extreme dyadic levels, and the rejection of
non-finite times.
"""

import math
import warnings

import numpy as np
import pytest

from magcone import kernels, lpbesov, verify
from magcone.errors import DomainError, WindowTooSmallError
from magcone.geometry import ConeConfig, make_point
from magcone.lpbesov import make_cutoff
from magcone.spectrum import ModeWindow, eigenvalue, eigenvalue_table, radial_profiles


def oracle_halfwave_kernel_grid(j, t, r_nodes, dtheta_nodes, cfg, window):
    """The per-k einsum assembly with its own degenerate-branch rule, as it stood before the merge."""
    cutoff = make_cutoff()
    r_nodes = np.asarray(r_nodes, dtype=float)
    dtheta_nodes = np.asarray(dtheta_nodes, dtype=float)
    pos, neg_ms = lpbesov._shell_mode_lists(j, cfg, window)

    def k_block(k, ms):
        lam = np.asarray(eigenvalue(cfg, k, ms), dtype=float)
        w = cutoff(np.sqrt(lam) / 2.0 ** j) * np.exp(1j * t * np.sqrt(lam))
        rad_full = radial_profiles(cfg, k, int(ms.max()), r_nodes)[ms, :]
        return np.einsum("m,mi,mj->ij", w, rad_full, rad_full)

    out = np.zeros((dtheta_nodes.size, r_nodes.size, r_nodes.size), dtype=complex)

    def accumulate(k, block):
        phases = np.exp(1j * (k / cfg.sigma) * dtheta_nodes)
        out_view = out.reshape(dtheta_nodes.size, -1)
        out_view += np.outer(phases, block.ravel())

    scale = 0.0
    for k, ms in pos:
        block = k_block(k, ms)
        scale = max(scale, float(np.abs(block).max()))
        accumulate(k, block)

    if neg_ms.size:
        k = -1
        stall = 0
        while True:
            block = k_block(k, neg_ms)
            mag = float(np.abs(block).max())
            scale = max(scale, mag)
            if mag <= 1e-13 * max(scale, 1e-300):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
                accumulate(k, block)
            k -= 1
            if -k > window.k_max:
                if mag > 1e-10 * max(scale, 1e-300):
                    raise WindowTooSmallError(
                        f"degenerate-branch tail still {mag:.2e} at k={k + 1}; enlarge k_max"
                    )
                break
    return out


def _window(j, cfg):
    """The covering window of shell j with at least 40 angular indices a side."""
    shell = lpbesov.shell_window(j, cfg)
    return ModeWindow(max(shell.k_max, 40), shell.m_max)


R_NODES = np.array([0.3, 0.8, 1.4, 2.0])


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("t", [0.0, 0.7, -1.3])
def test_grid_matches_einsum_oracle(cfg, j, t):
    dth = np.linspace(-0.5 * cfg.period, 0.5 * cfg.period, 5, endpoint=False) + 0.013
    window = _window(j, cfg)
    grid = kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)
    old = oracle_halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)
    assert np.abs(grid - old).max() <= 1e-12 * np.abs(old).max()
    assert np.array_equal(grid, grid.transpose(0, 2, 1))


def test_grid_and_sup_curve_share_one_assembly(cfg):
    j, t = 2, 0.6
    dth = np.linspace(-0.5 * cfg.period, 0.5 * cfg.period, 7, endpoint=False) + 0.013
    window = _window(j, cfg)
    grid = kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)
    sup = verify._halfwave_sup_curve(cfg, j, np.array([t]), R_NODES, dth, window)
    assert sup[0] == np.abs(grid).max()


def test_grid_raises_on_degenerate_tail(cfg):
    """On the sweep's window and its 41 radii, the k <= -1 branch is cut by the window edge."""
    j = 2
    r_max = min(2.5 + 2.0 ** j * math.pi / (2.0 * cfg.b0), 10.0)
    window = lpbesov.shell_window(j, cfg)
    with pytest.raises(WindowTooSmallError, match="degenerate-branch tail"):
        kernels.halfwave_kernel_grid(j, 0.5, np.linspace(0.25, r_max, 41), np.array([0.1]), cfg, window)


@pytest.mark.xfail(strict=True, reason="the sweep cuts the k <= -1 branch at the window edge (ROADMAP.md, "
                                        "degenerate Landau branch)")
def test_sweep_degenerate_branch_tail_is_below_1e_10(cfg):
    """The tail _shell_blocks reports on the sweep's j = 2 window and 41 fine radii is at most 1e-10.

    It reads 0.114, 0.0762 and 0.0448 (sigma = 1, 1.5, 2) while the branch
    stops at the window edge.  Once it runs under its own rule this passes,
    and the strict xfail fails the suite until the marker goes.
    """
    j = 2
    r_max = min(2.5 + 2.0 ** j * math.pi / (2.0 * cfg.b0), 10.0)
    r_nodes = np.linspace(0.25, r_max, 6 * verify.SweepGrids().n_radius - 1)
    _, tail = kernels._shell_blocks(j, cfg, lpbesov.shell_window(j, cfg), r_nodes)
    assert tail <= 1e-10


def test_shell_window_is_the_sweep_window(cfg):
    lam_hi = 4.0 ** 3
    assert lpbesov.shell_window(2, cfg) == ModeWindow(
        k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
        m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
    with pytest.raises(WindowTooSmallError, match="above the cap"):
        lpbesov.shell_window(30, cfg)


@pytest.mark.parametrize("b0,j_lowest", [(1.0, 0), (0.5, -1), (16.0, 2)])
def test_shell_window_refuses_a_shell_without_modes(b0, j_lowest):
    """The lowest eigenvalue is b0: a shell j with 4^(j+1) <= b0 holds no mode, and the next one does."""
    cfg = ConeConfig(sigma=1.0, b0=b0, alpha=0.25)
    with pytest.raises(DomainError, match="holds no mode"):
        lpbesov.shell_window(j_lowest - 1, cfg)
    window = lpbesov.shell_window(j_lowest, cfg)
    pos, neg_ms = lpbesov._shell_mode_lists(j_lowest, cfg, window)
    assert sum(ms.size for _, ms in pos) + neg_ms.size > 0


def test_every_bounded_shell_window_clears_the_window_cap():
    """Each shell_window under the shell mode cap is a valid ModeWindow; the largest is sigma = 1.5, j = 4."""
    largest = {}
    for cfg in verify.REFERENCE_CONFIGS:
        for j in range(-3, 10):
            try:
                window = lpbesov.shell_window(j, cfg)
            except WindowTooSmallError:
                break
            except DomainError:  # a shell ending at or below b0 holds no mode
                continue
            largest[cfg.sigma] = (j, window.shape[0] * window.shape[1])
    assert largest == {1.0: (4, 534033), 1.5: (4, 796689), 2.0: (3, 267537)}
    with pytest.raises(DomainError, match="above the cap"):
        ModeWindow(1500, 1500)


def test_shell_weights_scale_exactly(cfg):
    cutoff = make_cutoff()
    lam = eigenvalue_table(cfg, ModeWindow(12, 12))
    for j in range(-3, 6):
        assert np.array_equal(cutoff.shell_weights(j, lam), cutoff(np.sqrt(lam) / 2.0 ** j))


@pytest.mark.parametrize("j", [1100, -1100, 10 ** 30, -(10 ** 30)])
def test_shell_weights_vanish_past_the_float_range(cfg, j):
    lam = eigenvalue_table(cfg, ModeWindow(6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = make_cutoff().shell_weights(j, lam)
    assert np.array_equal(weights, np.zeros_like(lam))


def test_cutoff_vanishes_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = make_cutoff()(np.array([np.inf, 1.0, 0.0]))
    assert values[0] == 0.0 and values[1] > 0.0 and values[2] == 0.0


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_kernels_reject_non_finite_time(cfg, t):
    p, q = make_point(cfg, 1.0, 0.3), make_point(cfg, 0.8, 2.1)
    for fn in (kernels.heat_kernel_series, kernels.heat_kernel_closed,
               kernels.schrodinger_kernel_series, kernels.schrodinger_kernel_closed):
        with pytest.raises(DomainError, match="finite t"):
            fn(t, p, q, cfg)
    with pytest.raises(DomainError, match="finite t"):
        kernels.halfwave_kernel_truncated(1, t, p, q, cfg, _window(1, cfg))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_make_point_rejects_non_finite_angle(cfg, theta):
    with pytest.raises(DomainError, match="theta must be finite"):
        make_point(cfg, 1.0, theta)
