"""Refinement sweeps read their coarse sup from the fine grid's nodes at even indices.

SweepGrids.refined() has 2n - 1 nodes per axis, the half-wave sweep 6n - 1
radii against 3n, and the tail-L1 and reduced-kernel scans 16 n_angle - 1
angles against 8 n_angle and 2 n_rho - 1 radii against n_rho, so each coarse
grid is its fine grid at even indices.  The tests check that nesting bit for
bit on every input the coarse pass used to build, that each coarse sup read
from the fine values agrees with a direct evaluation on the coarse grid to
1e-14 relative, that each sup sweep's ratio, a max over a set divided by the
max over a subset of it, is at least 1, and that a maximum planted off the
coarse grid is skipped by the coarse sup.
"""

import math

import numpy as np
import pytest

from magcone import kernels, verify
from magcone.geometry import flux_distance
from magcone.lpbesov import shell_window
from magcone.verify import SweepGrids

GRIDS = [SweepGrids(), SweepGrids(3, 4, 6), SweepGrids(1, 1, 1)]
GRID_IDS = ["default", "3x4x6", "1x1x1"]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _close(sub: float, direct: float) -> bool:
    return abs(sub - direct) <= 1e-14 * abs(direct)


@pytest.mark.parametrize("grids", GRIDS, ids=GRID_IDS)
def test_coarse_inputs_are_the_fine_inputs_at_even_indices(cfg, grids):
    fine = grids.refined()
    assert _same_bits(verify._time_grid(fine, cfg)[::2], verify._time_grid(grids, cfg))
    assert _same_bits(verify._heat_time_grid(fine, cfg)[::2], verify._heat_time_grid(grids, cfg))
    (rr, base), (rr_f, base_f) = verify._pair_grid(cfg, grids), verify._pair_grid(cfg, fine)
    assert _same_bits(rr_f[verify._coarse_pairs(grids)], rr)
    assert _same_bits(base_f[::2], base)
    angles = verify._heat_angles(cfg, base)  # base and near-pi cluster angles
    assert _same_bits(verify._heat_angles(cfg, base_f[::2]), angles)
    assert np.isin(angles, verify._heat_angles(cfg, base_f)).all()
    for j in (1, 2, 3):  # the half-wave radii at every r_max the sweep's formula gives here
        r_max = min(2.5 + 2.0 ** j * math.pi / (2.0 * cfg.b0), 10.0)
        assert _same_bits(np.linspace(0.25, r_max, 6 * grids.n_radius - 1)[::2],
                          np.linspace(0.25, r_max, 3 * grids.n_radius))
    n_angle = 8 * grids.n_angle  # the tail-L1 angles and the reduced-kernel scan's deltas
    assert _same_bits(np.linspace(-0.5 * cfg.period + 0.03, 0.5 * cfg.period, 2 * n_angle - 1)[::2],
                      np.linspace(-0.5 * cfg.period + 0.03, 0.5 * cfg.period, n_angle))
    assert _same_bits(np.linspace(-verify._SCAN_DELTA, verify._SCAN_DELTA, 2 * n_angle - 1)[::2],
                      np.linspace(-verify._SCAN_DELTA, verify._SCAN_DELTA, n_angle))
    for i in range(1, verify._SCAN_DOUBLINGS + 1):  # the scan's radii at every rho_max a doubling reaches
        n_rho = 40 * grids.n_radius * 2 ** i
        assert _same_bits(np.linspace(0.0, 12.5 * 2 ** i, 2 * n_rho - 1)[::2], np.linspace(0.0, 12.5 * 2 ** i, n_rho))


@pytest.mark.parametrize("grids", GRIDS, ids=GRID_IDS)
def test_dispersive_family_reads_its_coarse_sups_from_the_fine_table(cfg, grids):
    kappa = flux_distance(cfg)
    gammas = (0.0, kappa / 2.0, kappa)
    reports = verify.weighted_dispersive_constant(cfg, gammas, grids)
    fine = grids.refined()
    n_pairs = fine.n_radius * (fine.n_radius + 1) // 2
    table = reports[0].csv_rows.reshape(fine.n_time, fine.n_angle, n_pairs, -1)
    sub = table[::2, ::2][:, :, verify._coarse_pairs(grids)].reshape(-1, table.shape[-1])
    direct = verify._dispersive_grid(cfg, grids)
    rho = sub[:, 1]
    columns = [(3, 0.0, ("",))] + [(4 + i, g, ("", "/omega1", "/omega2")) for i, g in enumerate(gammas)]
    checked = iter(reports)
    for column, gamma, suffixes in columns:
        for suffix, part, c_direct in zip(suffixes, (rho >= 0.0, rho >= 1.0, rho < 1.0),
                                          verify._split_sups(direct, gamma)):
            rep = next(checked)
            assert rep.name.endswith(suffix) if suffix else "/" not in rep.name
            c_sub = float(sub[part, column].max()) if part.any() else 0.0
            assert _close(c_sub, c_direct), (rep.name, c_sub, c_direct)
            assert rep.refinement_ratio == (rep.empirical_constant / c_sub if c_sub > 0 else 1.0)
            assert rep.refinement_ratio >= 1.0, rep.name
    assert next(checked, None) is None


def _direct_heat_sup(cfg, grids) -> float:
    """The Gaussian-heat distance-envelope sup evaluated on grids itself, as a separate coarse pass would."""
    rr, base = verify._pair_grid(cfg, grids)
    dth = verify._heat_angles(cfg, base)
    red = np.abs(np.remainder(dth + cfg.period / 2.0, cfg.period) - cfg.period / 2.0)
    cosfac = np.where(red < math.pi, np.cos(red), -1.0)
    sup = 0.0
    for t in verify._heat_time_grid(grids, cfg):
        tb = t * cfg.b0
        x = cfg.b0 * rr / (2.0 * math.sinh(tb))
        raw = cfg.b0 / (4.0 * math.pi) * np.abs(kernels.heat_closed_bracket_grid(x, dth, t, cfg))
        sup = max(sup, float((raw * np.exp(-x[None, :] * math.cosh(tb) * cosfac[:, None])).max()))
    return sup


@pytest.mark.parametrize("grids", GRIDS, ids=GRID_IDS)
def test_gaussian_heat_reads_its_coarse_sup_from_the_fine_table(cfg, grids):
    (rep,) = verify.gaussian_heat_constant(cfg, grids)
    fine = grids.refined()
    rr_f, base_f = verify._pair_grid(cfg, fine)
    angles_f = verify._heat_angles(cfg, base_f)
    dist = rep.csv_rows[:, 4].reshape(fine.n_time, angles_f.size, rr_f.size)
    coarse_angles = np.isin(angles_f, verify._heat_angles(cfg, verify._pair_grid(cfg, grids)[1]))
    c_sub = float(dist[::2][:, coarse_angles][:, :, verify._coarse_pairs(grids)].max())
    assert _close(c_sub, _direct_heat_sup(cfg, grids))
    assert rep.refinement_ratio == rep.empirical_constant / c_sub
    assert rep.refinement_ratio >= 1.0


@pytest.mark.parametrize("grids", GRIDS, ids=GRID_IDS)
def test_halfwave_sweep_reads_its_coarse_curve_from_one_sup_table(cfg, grids, monkeypatch):
    calls = []

    def spy(j, ts, r_nodes, dtheta0, n_angle, cone, window):
        calls.append((j, ts, r_nodes, (dtheta0, n_angle), window,
                      kernels.halfwave_sup_curve(j, ts, r_nodes, dtheta0, n_angle, cone, window)))
        return calls[-1][-1]

    monkeypatch.setattr(verify, "halfwave_sup_curve", spy)
    (rep,) = verify.halfwave_decay_fit(cfg, verify._HALFWAVE_J, grids)
    ((j, ts, r_nodes, circle, window, by_pair),) = calls
    assert window == shell_window(j, cfg)
    assert r_nodes.size == 6 * grids.n_radius - 1
    assert _same_bits(r_nodes[::2], np.linspace(0.25, r_nodes[-1], 3 * grids.n_radius))
    assert np.array_equal(by_pair, by_pair.transpose(0, 2, 1))
    assert _same_bits(rep.csv_rows[:, 2], by_pair.max(axis=(1, 2)))
    sub = by_pair[:, ::2, ::2].max(axis=(1, 2))
    direct = kernels.halfwave_sup_curve(j, ts, r_nodes[::2], *circle, cfg, window).max(axis=(1, 2))
    assert np.all(np.abs(sub - direct) <= 1e-14 * direct), np.abs(sub / direct - 1.0).max()
    onset = 2.0 ** j * ts <= verify._ONSET_TAU + 1e-12
    slope = lambda curve: np.polyfit(np.log(1.0 + 2.0 ** j * ts[onset]), np.log(curve[onset]), 1)[0]
    assert rep.refinement_ratio == pytest.approx(slope(by_pair.max(axis=(1, 2))) / slope(direct), rel=1e-12)


def _odd_on(axis: str, i_t: int, n_angle: int, n_radius: int, coarse_angle=None) -> np.ndarray:
    """(angle, pair) mask of the fine nodes at time index i_t that lie off the coarse grid along one axis."""
    iu, ju = np.triu_indices(n_radius)
    angle_off = (np.arange(n_angle) % 2 == 1) if coarse_angle is None else ~coarse_angle
    off = {"time": np.full((n_angle, iu.size), i_t % 2 == 1),
           "angle": np.broadcast_to(angle_off[:, None], (n_angle, iu.size)),
           "pair": np.broadcast_to(((iu % 2 == 1) | (ju % 2 == 1))[None, :], (n_angle, iu.size))}
    return off[axis]


@pytest.mark.parametrize("axis", ["time", "angle", "pair"])
def test_dispersive_coarse_sup_skips_the_nodes_off_the_coarse_grid(cfg, axis, monkeypatch):
    """|K| planted as 2 off the coarse grid along one axis and 1 on it: the ratio reads 2."""
    grids = SweepGrids(3, 4, 6)
    fine = grids.refined()
    calls = []

    def planted(rho, delta, cone):
        calls.append(rho.size)
        return 1.0 + _odd_on(axis, len(calls) - 1, fine.n_angle, fine.n_radius).astype(complex)

    monkeypatch.setattr(verify, "reduced_kernel_matrix", planted)
    (rep,) = verify.weighted_dispersive_constant(cfg, (), grids)
    assert len(calls) == fine.n_time
    assert (rep.empirical_constant, rep.refinement_ratio) == (2.0, 2.0)


@pytest.mark.parametrize("axis", ["time", "angle", "pair"])
def test_gaussian_heat_coarse_sup_skips_the_nodes_off_the_coarse_grid(cfg, axis, monkeypatch):
    """The distance-envelope constant planted as 2 off the coarse grid along one axis and 1 on it."""
    grids = SweepGrids(3, 4, 6)
    fine = grids.refined()
    coarse_angles = verify._heat_angles(cfg, verify._pair_grid(cfg, grids)[1])
    calls = []

    def planted(x, dth, t, cone):
        calls.append(t)
        target = 1.0 + _odd_on(axis, len(calls) - 1, dth.size, fine.n_radius, np.isin(dth, coarse_angles))
        red = np.abs(np.remainder(dth + cfg.period / 2.0, cfg.period) - cfg.period / 2.0)
        cosfac = np.where(red < math.pi, np.cos(red), -1.0)
        envelope = np.exp(-x[None, :] * math.cosh(t * cfg.b0) * cosfac[:, None])
        return target / (cfg.b0 / (4.0 * math.pi) * envelope)

    monkeypatch.setattr(verify, "heat_closed_bracket_grid", planted)
    (rep,) = verify.gaussian_heat_constant(cfg, grids)
    assert len(calls) == fine.n_time
    assert rep.empirical_constant == pytest.approx(2.0, rel=1e-12)
    assert rep.refinement_ratio == pytest.approx(2.0, rel=1e-12)


def _spy(monkeypatch, name: str, calls: list):
    """Record each call of verify.<name> with its arguments and result."""
    fn = getattr(verify, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, name, spy)


@pytest.mark.parametrize("grids", GRIDS, ids=GRID_IDS)
def test_tail_l1_reads_its_coarse_sup_from_the_one_walk(cfg, grids, monkeypatch):
    """The walk's rows at even indices are, bit for bit, a walk over the coarse angles alone."""
    calls = []
    _spy(monkeypatch, "adaptive_panel", calls)
    (rep,) = verify.angular_tail_l1_scan(cfg, grids)
    (((f, lo, hi, tol), _),) = calls
    assert (lo.shape[0], tol) == (16 * grids.n_angle - 1, 1e-10)
    thetas, l1 = rep.csv_rows.T
    n_panels = lo.shape[1]
    coarse = thetas[::2]
    direct = verify.adaptive_panel(
        lambda s, panel: np.abs(kernels.schrodinger_angular_tail(s, coarse[panel // n_panels], cfg)),
        lo[::2], hi[::2], 1e-10)
    assert _same_bits(l1[::2], [float(np.real(sum(row))) for row in direct])
    assert rep.refinement_ratio == rep.empirical_constant / l1[::2].max()
    assert rep.refinement_ratio >= 1.0


def test_reduced_kernel_scan_reads_its_coarse_sup_from_the_fine_matrix(cfg, monkeypatch):
    """Two kernel calls on a reference config: the coarse baseline at rho_max = 12.5 and the fine grid at 25."""
    grids = SweepGrids()
    calls = []
    _spy(monkeypatch, "reduced_kernel_matrix", calls)
    (rep,) = verify.reduced_kernel_bound_scan(cfg, grids)
    assert [args[0].size for args, _ in calls] == [40 * grids.n_radius, 160 * grids.n_radius - 1]
    assert [args[0][-1] for args, _ in calls] == [12.5, 25.0]
    (rho, delta, _), mat = calls[-1]
    sub = float(np.abs(mat[::2, ::2]).max())
    assert _close(sub, float(np.abs(kernels.reduced_kernel_matrix(rho[::2], delta[::2], cfg)).max()))
    assert rep.empirical_constant == float(np.abs(mat).max())
    assert rep.refinement_ratio == rep.empirical_constant / sub
    assert rep.refinement_ratio >= 1.0


def test_tail_l1_coarse_sup_skips_the_angles_off_the_coarse_grid(cfg, monkeypatch):
    """Each angle's integral planted as 2 at odd indices and 1 at even ones: the ratio reads 2."""
    calls = []

    def planted(f, lo, hi, tol):
        calls.append(tol)
        values = np.zeros(lo.shape)
        values[:, 0] = 1.0 + np.arange(lo.shape[0]) % 2
        return values

    monkeypatch.setattr(verify, "adaptive_panel", planted)
    (rep,) = verify.angular_tail_l1_scan(cfg, SweepGrids(3, 4, 6))
    assert calls == [1e-10]
    assert (rep.empirical_constant, rep.refinement_ratio) == (2.0, 2.0)


@pytest.mark.parametrize("axis", ["rho", "delta"])
def test_reduced_kernel_coarse_sup_skips_the_cells_off_the_coarse_grid(cfg, axis, monkeypatch):
    """|K| planted as 2 at odd indices along one axis of the fine grid and 1 elsewhere: the ratio reads 2."""
    calls = []

    def planted(rho, delta, cone):
        calls.append(rho[-1])
        mat = np.ones((delta.size, rho.size), dtype=complex)
        if len(calls) > 1:  # the fine grids; the coarse baseline holds 1 only
            mat[(slice(None), slice(1, None, 2)) if axis == "rho" else slice(1, None, 2)] = 2.0
        return mat

    monkeypatch.setattr(verify, "reduced_kernel_matrix", planted)
    (rep,) = verify.reduced_kernel_bound_scan(cfg, SweepGrids(3, 4, 6))
    assert calls == [12.5, 25.0]
    assert (rep.empirical_constant, rep.refinement_ratio) == (2.0, 2.0)
