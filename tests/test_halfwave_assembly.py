"""The half-wave shell assembly that halfwave_kernel_grid and the verify sup curve share.

Holds a statement-for-statement oracle of the earlier per-k einsum grid
assembly, the degenerate branch run past the window edge, the subordination
identity against the heat closed form, the shell windows against the window
cap, the shell table against the brute-force shell_modes oracle, the shell
weights at extreme dyadic levels, and the rejection of non-finite times and
of grids synthesis refuses.
"""

import math
import warnings

import numpy as np
import pytest

from magcone import kernels, lpbesov, spectrum, verify
from magcone.errors import DomainError, NonconvergenceError, WindowTooSmallError
from magcone.geometry import ConeConfig, make_point
from magcone.lpbesov import make_cutoff
from magcone.quadrature import gauss_legendre_rule
from magcone.spectrum import ModeWindow, eigenvalue, eigenvalue_table, radial_profiles


def oracle_halfwave_kernel_grid(j, t, r_nodes, dtheta_nodes, cfg, window, shell_modes):
    """The per-k einsum assembly with its own degenerate-branch rule, as it stood before the merge."""
    cutoff = make_cutoff()
    r_nodes = np.asarray(r_nodes, dtype=float)
    dtheta_nodes = np.asarray(dtheta_nodes, dtype=float)
    pos, neg_ms = shell_modes(j, cfg, window)

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


def _reach(window):
    """window widened to k_max = 2000, past every k the k <= -1 branch reaches here, for the oracles' own edge rule."""
    return ModeWindow(2000, window.m_max)


R_NODES = np.array([0.3, 0.8, 1.4, 2.0])


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("t", [0.0, 0.7, -1.3])
def test_grid_matches_einsum_oracle(cfg, j, t, shell_modes):
    dth = np.linspace(-0.5 * cfg.period, 0.5 * cfg.period, 5, endpoint=False) + 0.013
    window = _window(j, cfg)
    grid = kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)
    old = oracle_halfwave_kernel_grid(j, t, R_NODES, dth, cfg, _reach(window), shell_modes)
    assert np.abs(grid - old).max() <= 1e-12 * np.abs(old).max()
    assert np.array_equal(grid, grid.transpose(0, 2, 1))


def _circle(cfg, n_angle):
    """The sweep's uniform circle of n_angle angle gaps, as (dtheta0, n_angle) and as the gaps themselves."""
    dtheta0 = -0.5 * cfg.period + 0.013
    return dtheta0, n_angle, dtheta0 + np.arange(n_angle) * (cfg.period / n_angle)


def test_grid_and_sup_curve_share_one_assembly(cfg, monkeypatch):
    """Both entry points draw their block products from _halfwave_products; they differ in how they read angles."""
    j, t = 2, 0.6
    dtheta0, n_angle, dth = _circle(cfg, 7)
    window = _window(j, cfg)
    calls = []
    products = kernels._halfwave_products

    def spy(blocks, ts, *rest):
        calls.append(ts.size)
        return products(blocks, ts, *rest)

    monkeypatch.setattr(kernels, "_halfwave_products", spy)
    grid = kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)
    sup = kernels.halfwave_sup_curve(j, np.array([t]), R_NODES, dtheta0, n_angle, cfg, window)
    assert calls == [1, 1]
    want = np.abs(grid).max(axis=0)
    assert np.abs(sup[0] - want).max() <= 1e-13 * want.max()
    assert abs(sup[0].max() - want.max()) <= 1e-13 * want.max()


@pytest.mark.parametrize("n_angle", [1, 5, 7, 32, 48, 200])
def test_sup_curve_fft_matches_direct_phases(cfg, n_angle):
    """The residue table's FFT gives max_n |K| of halfwave_kernel_grid on the same uniform gaps, cell by cell.

    The shell's blocks span 64, 96 and 187 values of k (sigma = 1, 1.5, 2),
    so n_angle up to 48 aliases residues and 200 does not; the times include
    a negative one and complex ones with Im t > 0, where e^{i t sqrt(lam)}
    is damped.  Each cell is held to 1e-13
    of its time's sup (7.1e-15 the worst seen, sigma = 1.5, n_angle = 1): at
    one angle a cell can be a cancelled sum of the blocks, which the two
    summation orders round apart by up to 7.6e-13 of the cell itself.
    """
    j = 2
    dtheta0, _, dth = _circle(cfg, n_angle)
    window = _window(j, cfg)
    ts = np.array([0.6, -1.3, 0.4 + 0.3j, -2.0 + 1.0j])
    sup = kernels.halfwave_sup_curve(j, ts, R_NODES, dtheta0, n_angle, cfg, window)
    for t, sup_t in zip(ts, sup):
        want = np.abs(kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)).max(axis=0)
        assert np.abs(sup_t - want).max() <= 1e-13 * want.max()
        assert abs(sup_t.max() - want.max()) <= 1e-13 * want.max()


def test_sup_curve_over_40_times_matches_the_grid_at_each_time(cfg):
    """One residue table holds every time; each time's sup is the one halfwave_kernel_grid gives at that time alone."""
    j = 1
    ts = np.linspace(-3.0, 3.0, 40)
    dtheta0, n_angle, dth = _circle(cfg, 7)
    window = _window(j, cfg)
    sup = kernels.halfwave_sup_curve(j, ts, R_NODES, dtheta0, n_angle, cfg, window).max(axis=(1, 2))
    want = [np.abs(kernels.halfwave_kernel_grid(j, t, R_NODES, dth, cfg, window)).max() for t in ts]
    np.testing.assert_allclose(sup, want, rtol=1e-13, atol=0.0)


def _sweep_radii(j, cfg):
    """The half-wave sweep's 6 n_radius - 1 radii at level j."""
    r_max = min(2.5 + 2.0 ** j * math.pi / (2.0 * cfg.b0), 10.0)
    return np.linspace(0.25, r_max, 6 * verify.SweepGrids().n_radius - 1)


def test_grid_runs_the_degenerate_branch_past_the_window_edge(cfg, shell_modes):
    """On the sweep's j = 2 window and 41 radii the branch outruns k_max; the grid still matches the oracle."""
    j = 2
    window = lpbesov.shell_window(j, cfg)
    r_nodes = _sweep_radii(j, cfg)
    assert min(k for k, *_ in kernels._shell_blocks(j, cfg, window, r_nodes)) < -window.k_max
    grid = kernels.halfwave_kernel_grid(j, 0.5, r_nodes, np.array([0.1]), cfg, window)
    old = oracle_halfwave_kernel_grid(j, 0.5, r_nodes, np.array([0.1]), cfg, _reach(window), shell_modes)
    assert np.abs(grid - old).max() <= 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("j", [1, 2, 3])
def test_sweep_degenerate_branch_tail_is_below_1e_10(cfg, j):
    """On the sweep's window and 41 fine radii the k <= -1 branch ends at most 1e-10 of its peak, past k_max or not.

    The magnitude is _shell_blocks' own, (max_m phi |V_k|)^2 over the radii:
    the three rows past the last block kept are each at most 1e-10 of the
    largest kept row.  At the window edge, before the branch ran past it,
    the j = 2 tail was 0.114, 0.0762 and 0.0448 of the peak (sigma = 1, 1.5, 2).
    """
    window = lpbesov.shell_window(j, cfg)
    r_nodes = _sweep_radii(j, cfg)
    branch = [(k, w, rad) for k, _, w, rad in kernels._shell_blocks(j, cfg, window, r_nodes) if k < 0]
    mags = [float((w[:, None] * np.abs(rad)).max()) ** 2 for _, w, rad in branch]
    k_end, w, ms = branch[-1][0], branch[-1][1], lpbesov._shell_table(j, cfg, window)[3][0]
    past = radial_profiles(cfg, np.arange(k_end - 1, k_end - 4, -1), int(ms.max()), r_nodes)[:, ms, :]
    assert (w[:, None] * np.abs(past)).max() ** 2 <= 1e-10 * max(mags)


_SIGMA1 = ConeConfig(1.0, 1.0, 0.25)


@pytest.mark.parametrize("r", [0.0, 1e-300, 1.0, 55.0, 60.0])
def test_grid_matches_a_wide_window_spectral_kernel_at_any_radius(r):
    """From r = 54 on the first branch rows underflow to 0; the branch is still summed where it lives, |k| ~ r^2 / 2.

    The oracle synthesizes the shell's multiplier on ModeWindow(2600, 32),
    whose k range covers the branch at r = 60 (it ends at k = -2421).  At
    gap 0.1 and r = 55 the kernel is 1/670 of its value at gap 0, the
    shell's scale there, and the branch's end at 1e-13 of its squared peak
    sets the error it is held to, 1e-12 of that scale: 8e-15 seen, 5e-12
    of the value at gap 0.1 itself.
    """
    j, t, gaps = 2, 0.7, np.array([0.0, 0.1])
    grid = kernels.halfwave_kernel_grid(j, t, np.array([r]), gaps, _SIGMA1, lpbesov.shell_window(j, _SIGMA1))[:, 0, 0]
    weights = make_cutoff().shell_weights
    want = np.array([kernels.spectral_kernel(lambda lam: weights(j, lam) * np.exp(1j * t * np.sqrt(lam)),
                                             make_point(_SIGMA1, r, gap), make_point(_SIGMA1, r, 0.0), _SIGMA1,
                                             ModeWindow(2600, 32)) for gap in gaps])
    if r == 0.0:
        assert np.array_equal(grid, np.zeros(2))
    assert np.abs(grid - want).max() <= 1e-12 * np.abs(want).max()


def test_a_branch_that_outruns_the_cap_raises_nonconvergence(monkeypatch):
    """At r = 120 the branch runs to k = -8192 and raises; at r = 150 its peak lies past the cap and no row is built."""
    window = lpbesov.shell_window(2, _SIGMA1)
    with pytest.raises(NonconvergenceError, match="has not ended by k = -8192"):
        kernels.halfwave_kernel_grid(2, 0.7, np.array([120.0]), np.array([0.1]), _SIGMA1, window)
    monkeypatch.setattr(kernels, "_radial_rows", None)  # a call would fail with TypeError
    for run in (lambda: kernels.halfwave_kernel_grid(2, 0.7, np.array([150.0]), np.array([0.1]), _SIGMA1, window),
                lambda: kernels.halfwave_sup_curve(2, np.array([0.7]), np.array([150.0]), 0.1, 4, _SIGMA1, window)):
        with pytest.raises(NonconvergenceError, match="peaks at .k. = 11250.2, past the cap of 8192"):
            run()


def test_branch_reads_the_ladder_at_k_max_0():
    """A window without k <= -1 rows gives the branch the ladder (2m + 1) b0, as a wider one does."""
    cfg = ConeConfig(1.0, 2.0, 0.25)
    r_nodes, gaps = np.linspace(0.2, 2.5, 6), np.array([0.3])
    narrow = kernels.halfwave_kernel_grid(0, 0.4, r_nodes, gaps, cfg, ModeWindow(0, 1))
    assert np.array_equal(narrow, kernels.halfwave_kernel_grid(0, 0.4, r_nodes, gaps, cfg, ModeWindow(3, 1)))


def test_a_gap_whose_phase_loses_its_digits_past_the_window_is_refused(monkeypatch):
    """The window's k_max = 40 leaves k dtheta below 2^52 at dtheta = 5e13; the branch reaches k = -126 there."""
    j, window, r_nodes = 2, lpbesov.shell_window(2, _SIGMA1), np.array([6.0, 8.0])
    assert window.k_max * 5e13 < 2.0 ** 52 <= 126 * 5e13
    monkeypatch.setattr(kernels, "_halfwave_products", None)  # a call would fail with TypeError
    with pytest.raises(DomainError, match="phase up to 6.3e[+]15 has no significant digit"):
        kernels.halfwave_kernel_grid(j, 0.7, r_nodes, np.array([5e13]), _SIGMA1, window)
    with pytest.raises(DomainError, match="phase up to 6.3e[+]15 has no significant digit"):
        kernels.halfwave_sup_curve(j, np.array([0.7]), r_nodes, 5e13, 1, _SIGMA1, window)


_POISSON_POINTS = ((0.7, 1.1, 0.9), (1.5, 1.5, 0.2), (3.0, 2.5, 1.3))  # (r1, r2, dtheta)


def test_shells_at_imaginary_time_sum_to_the_subordinated_heat_kernel(cfg):
    """Sum_j phi(2^-j sqrt(H)) e^{-z sqrt(H)} against z/(2 sqrt(pi)) int s^{-3/2} e^{-z^2/4s} K_heat(s) ds, z = 4.

    The shells sum to 1 on the spectrum, so at t = i z they give the Poisson
    kernel, which subordination writes through the heat closed form (image
    sum plus tail integral), a representation sharing no code with the
    eigenbasis.  Each shell runs on its own shell_window, from the lowest
    holding a mode up to j = 3: past it sqrt(lam) >= 8 and e^{-32} is below
    the bound (sigma = 2's j = 4 passes the shell mode cap).  The s integral
    takes 120 Gauss-Legendre nodes in log s on [z^2/240, 70/b0] (400 agree
    to 3.5e-14).  3.1e-14 the worst seen; with the branch cut at the window
    edge the miss reached 8.7e-5.
    """
    z = 4.0
    radii = np.unique([r for point in _POISSON_POINTS for r in point[:2]])
    gaps = np.array([gap for *_, gap in _POISSON_POINTS])
    poisson = 0.0
    for j in range(-3, 4):
        try:
            window = lpbesov.shell_window(j, cfg)
        except DomainError:  # the shell holds no mode
            continue
        poisson = poisson + kernels.halfwave_kernel_grid(j, 1j * z, radii, gaps, cfg, window)
    x, w = gauss_legendre_rule(120)
    lo, hi = math.log(z * z / 240.0), math.log(70.0 / cfg.b0)
    s = np.exp(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
    ds = 0.5 * (hi - lo) * w * s
    for i, (r1, r2, gap) in enumerate(_POISSON_POINTS):
        p, q = make_point(cfg, r1, gap), make_point(cfg, r2, 0.0)
        heat = np.array([kernels.heat_kernel_closed(s_n, p, q, cfg).value for s_n in s])
        want = np.sum(ds * z / (2.0 * math.sqrt(math.pi)) * s ** -1.5 * np.exp(-z * z / (4.0 * s)) * heat)
        got = poisson[i, np.searchsorted(radii, r1), np.searchsorted(radii, r2)]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_shell_window_is_the_sweep_window(cfg):
    lam_hi = 4.0 ** 3
    assert lpbesov.shell_window(2, cfg) == ModeWindow(
        k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
        m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
    with pytest.raises(WindowTooSmallError, match="above the cap"):
        lpbesov.shell_window(30, cfg)


@pytest.mark.parametrize("b0,j_lowest", [(1.0, 0), (0.5, -1), (16.0, 2)])
def test_shell_window_refuses_a_shell_without_modes(b0, j_lowest, shell_modes):
    """The lowest eigenvalue is b0: a shell j with 4^(j+1) <= b0 holds no mode, and the next one does."""
    cfg = ConeConfig(sigma=1.0, b0=b0, alpha=0.25)
    with pytest.raises(DomainError, match="holds no mode"):
        lpbesov.shell_window(j_lowest - 1, cfg)
    window = lpbesov.shell_window(j_lowest, cfg)
    pos, neg_ms = shell_modes(j_lowest, cfg, window)
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
        kernels.halfwave_kernel_grid(1, t, np.array([p.r, q.r]), np.array([p.theta - q.theta]), cfg, _window(1, cfg))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_make_point_rejects_non_finite_angle(cfg, theta):
    with pytest.raises(DomainError, match="theta must be finite"):
        make_point(cfg, 1.0, theta)


# ---------------------------------------------------------------------------
# the shell table against the brute-force oracle
# ---------------------------------------------------------------------------

def _seeded_cones(n):
    rng = np.random.default_rng(20251021)
    cones = []
    for _ in range(n):
        sigma = float(rng.uniform(1.0, 3.0))
        cones.append(ConeConfig(sigma, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.02, 0.98)) / sigma))
    return cones


def _windows_around(j, cfg):
    """Windows at, inside and past shell_window(j, cfg) in each direction, k_max = 0 and 1 among them."""
    try:
        shell = lpbesov.shell_window(j, cfg)
    except DomainError:  # no mode in the shell: any window covers it
        shell = ModeWindow(3, 3)
    return sorted({ModeWindow(max(0, shell.k_max + dk), max(0, shell.m_max + dm))
                   for dk in (-shell.k_max, 1 - shell.k_max, -9, -8, -1, 0, 3)
                   for dm in (-shell.m_max, -2, -1, 0, 2)}, key=lambda w: (w.k_max, w.m_max))


@pytest.mark.parametrize("cone", list(verify.REFERENCE_CONFIGS) + _seeded_cones(5), ids=lambda c: f"s{c.sigma:.3g}-b{c.b0:.3g}")
def test_shell_table_holds_the_modes_the_oracle_finds(cone, shell_modes):
    """Mode sets, the degenerate ladder at any k_max, and refusals match a mode-by-mode check of the interval."""
    refused = 0
    for j in range(-2, 4):
        for window in _windows_around(j, cone):
            try:
                pos, neg_ms = shell_modes(j, cone, window)
            except WindowTooSmallError:
                refused += 1
                with pytest.raises(WindowTooSmallError):
                    lpbesov._shell_table(j, cone, window)
                continue
            lam, weights, mask, (ladder_ms, ladder, ladder_weights) = lpbesov._shell_table(j, cone, window)
            assert np.array_equal(lam, eigenvalue_table(cone, window))
            (shared,) = lpbesov._shell_weights([j], cone, window)
            assert np.array_equal(weights.view(np.int64), shared.view(np.int64))
            rows = [(k, np.flatnonzero(mask[window.k_max + k])) for k in range(window.k_max + 1)]
            assert [(k, ms.tolist()) for k, ms in rows if ms.size] == [(k, ms.tolist()) for k, ms in pos]
            assert ladder_ms.tolist() == neg_ms.tolist()
            assert np.array_equal(ladder, (2.0 * neg_ms + 1.0) * cone.b0)
            assert np.array_equal(ladder_weights, make_cutoff().shell_weights(j, ladder))
            for k in range(1, window.k_max + 1):  # every k <= -1 row holds the ladder
                assert np.flatnonzero(mask[window.k_max - k]).tolist() == neg_ms.tolist()
                assert np.array_equal(lam[window.k_max - k, neg_ms], ladder)
                assert np.array_equal(weights[window.k_max - k, neg_ms], ladder_weights)
    assert refused > 0


def test_a_window_short_in_m_is_refused_on_the_degenerate_branch():
    """Short in m on a k >= 0 row and on the ladder below it: the refusal names the degenerate branch."""
    cfg = ConeConfig(1.0, 1.0, 0.25)
    window = ModeWindow(16, 2)
    assert lpbesov._shell_table(1, cfg, lpbesov.shell_window(1, cfg))[2][16, 3]  # mode (0, 3) is in shell 1
    with pytest.raises(WindowTooSmallError, match="needs m up to 7 on the degenerate branch, window has m_max=2"):
        lpbesov._shell_table(1, cfg, window)


def _eigenvalue_calls(monkeypatch) -> list:
    """Record (shape of k, shape of m, k, m) for each eigenvalue call, through spectrum or lpbesov."""
    calls = []
    original = spectrum.eigenvalue

    def spy(cfg, k, m):
        calls.append((np.shape(k), np.shape(m), k, m))
        return original(cfg, k, m)

    monkeypatch.setattr(spectrum, "eigenvalue", spy)
    monkeypatch.setattr(lpbesov, "eigenvalue", spy)
    return calls


@pytest.mark.parametrize("k_extra", [0, 60])
def test_shell_blocks_and_bernstein_make_no_per_mode_eigenvalue_call(cfg, monkeypatch, k_extra):
    """One table, the ladder and one window edge, however wide the window: no walk of scalar eigenvalues."""
    j = 1
    shell = lpbesov.shell_window(j, cfg)
    window = ModeWindow(shell.k_max + k_extra, shell.m_max)
    calls = _eigenvalue_calls(monkeypatch)
    kernels._shell_blocks(j, cfg, window, np.array([0.5, 1.0]))
    blocks_calls, calls[:] = list(calls), []
    lpbesov.bernstein_ratio(j, math.inf, 2.0, cfg, window, trials=1)
    for made in (blocks_calls, calls):
        assert sorted((ks, ms) for ks, ms, _, _ in made) == [((), ()), ((), (window.m_max + 2,)),
                                                             ((2 * window.k_max + 1, 1), (1, window.m_max + 1))]
        (edge,) = [(k, m) for ks, ms, k, m in made if ks == ms == ()]
        assert edge == (window.k_max + 1, 0)  # the one scalar call: the first mode past k_max


# ---------------------------------------------------------------------------
# grids synthesis refuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r_nodes,dtheta_nodes,circle,why", [
    ([math.nan, 1.0], [0.1], (0.1, 1), "each radius finite and >= 0"),
    ([1.0, -0.5], [0.1], (0.1, 1), "each radius finite and >= 0"),
    ([1e200], [0.1], (0.1, 1), "u = b0 r.2 / 2 finite"),
    ([1.0], [math.nan], (math.nan, 1), "each angle finite"),
    ([1.0], [math.inf, 0.1], (math.inf, 2), "each angle finite"),
    ([1.0], [1e17], (1e17, 1), "no significant digit"),
    ([], [0.1], (0.1, 1), "needs a grid, got 0 radii"),
    ([1.0], [], (0.1, 0), "needs a grid, got 1 radii and 0 angle gaps"),
], ids=["nan-r", "negative-r", "huge-r", "nan-gap", "inf-gap", "phase-2^52", "no-radius", "no-gap"])
def test_halfwave_refuses_a_grid_synthesis_refuses(monkeypatch, r_nodes, dtheta_nodes, circle, why):
    """halfwave_kernel_grid and halfwave_sup_curve (on the circle (dtheta0, n_angle)) raise DomainError before any shell work."""
    window = lpbesov.shell_window(1, _SIGMA1)
    monkeypatch.setattr(kernels, "_shell_blocks", None)  # a call would fail with TypeError
    r, dth = np.array(r_nodes, dtype=float), np.array(dtheta_nodes, dtype=float)
    with pytest.raises(DomainError, match=why):
        kernels.halfwave_kernel_grid(1, 0.5, r, dth, _SIGMA1, window)
    with pytest.raises(DomainError, match=why):
        kernels.halfwave_sup_curve(1, np.array([0.5, 1.0]), r, *circle, _SIGMA1, window)


@pytest.mark.parametrize("n_angle", [-1, 2.0, 2.5, None])
def test_sup_curve_refuses_a_circle_without_a_whole_number_of_gaps(monkeypatch, n_angle):
    window = lpbesov.shell_window(1, _SIGMA1)
    monkeypatch.setattr(kernels, "_shell_blocks", None)
    with pytest.raises(DomainError, match="whole number of angle gaps"):
        kernels.halfwave_sup_curve(1, np.array([0.5]), np.array([1.0]), 0.1, n_angle, _SIGMA1, window)
