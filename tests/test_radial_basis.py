"""One-pass synthesis (``fields_on_grid``) behind Besov norms and Bernstein ratios, against verbatim oracles.

The oracles below are the earlier implementations kept word for word (module
prefixes added where they call into the package): ``field_on_grid``, which
rebuilt the radial rows of every k on every call and added the terms
``v_k[r] e^{i k theta / sigma}`` one outer product at a time, ``lpbesov``'s
``_lp_norm``/``_shell_norms`` pair and ``bernstein_ratio``, which
synthesized each of its trial fields and their shell pieces through it.
``fields_on_grid`` builds each k's rows once for all its fields and sums
the same terms as one matrix product per field, so it regroups their
rounding: every grid cell must lie within ``4 (K + M + 1) 2^-52 sum_{k,m}
|c_{k,m}| |R_{k,m}(r)|`` of the oracle (the ``synthesis_bound`` fixture,
from the oracle's own terms), every L^p norm within that bound's L^p norm,
and Besov values and Bernstein ratios within what those norm bounds allow.
The scalar ``radial_profiles`` is kept bitwise: the broadcast over an array
of k must reproduce it row for row, bit for bit.
"""

import ast
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import magcone
from magcone import lpbesov, spectrum
from magcone.errors import DomainError
from magcone.geometry import ConePoint
from magcone.lpbesov import besov_report, bernstein_ratio, shell_project, shell_window
from magcone.quadrature import evaluation_grid
from magcone.spectrum import (ModeWindow, SpectralField, field_on_grid, fields_on_grid, radial_profiles,
                              random_field)
from magcone.verify import REFERENCE_CONFIGS

PACKAGE = Path(magcone.__file__).resolve().parent

# the Bernstein levels the spectral-lp benchmark workload runs, per sigma
BERNSTEIN_LEVELS = {1.0: (0, 1, 2), 1.5: (0, 1, 2), 2.0: (0, 1)}


# ---------------------------------------------------------------------------
# oracles: the earlier implementations, verbatim
# ---------------------------------------------------------------------------

def oracle_field_on_grid(field, r, theta, cfg) -> np.ndarray:
    r = np.atleast_1d(np.asarray(r, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.zeros((r.size, theta.size), dtype=complex)
    for ik, k in enumerate(field.window.k_values):
        ck = field.coeffs[ik]
        if not np.any(ck):
            continue
        rad = spectrum.radial_profiles(cfg, int(k), field.window.m_max, r)  # (m, r)
        v = ck @ rad  # (r,)
        out += np.outer(v, np.exp(1j * (k / cfg.sigma) * theta))
    return out


def oracle_radial_profiles(cfg, k: int, m_max: int, r) -> np.ndarray:
    r = np.atleast_1d(np.asarray(r, dtype=float))
    a = float(spectrum.angular_order(cfg, k))
    u = cfg.b0 * r * r / 2.0
    polys = spectrum.normalized_laguerre_rows(a, m_max, u)

    with np.errstate(divide="ignore"):
        log_radial = np.where(r > 0.0, a * np.log(np.where(r > 0.0, r, 1.0)), -np.inf if a > 0 else 0.0)
    log_radial = log_radial - u / 2.0 - 0.5 * math.log(cfg.period)
    log_norm = spectrum.log_norm_sq(cfg, k, np.arange(m_max + 1))
    scale = np.exp(log_radial[None, :] - 0.5 * log_norm[:, None])
    return polys * scale


def oracle_lp_norm(field, p, cfg, grid) -> float:
    if p == 2.0:
        return field.coefficient_norm()
    values = oracle_field_on_grid(field, grid.r, grid.theta, cfg)
    return grid.lp_norm(values, p)


def oracle_shell_norms(field, p, cfg, grid):
    if grid is None and p != 2.0:
        grid = evaluation_grid(cfg)
    return [(j, oracle_lp_norm(lpbesov.shell_project(field, j, cfg), p, cfg, grid))
            for j in lpbesov.shell_range(cfg, field.window)]


def oracle_bernstein_ratio(j, p, q_exp, cfg, window, shell_modes, trials=8, seed=0, grid=None) -> float:
    if not (1.0 <= q_exp <= p):
        raise DomainError("bernstein_ratio needs 1 <= q_exp <= p")
    shell_modes(j, cfg, window)  # raises unless the window covers the shell

    if grid is None:
        grid = evaluation_grid(cfg)
    rng = np.random.default_rng(seed)
    fields = [random_field(window, rng) for _ in range(trials)]
    for r0 in (0.35, 0.9, 1.7):
        point = spectrum.point_field(ConePoint(r0, 0.0), cfg, window)
        fields.append(point)
        # shell-localized variant: the L1-side extremizer shape
        fields.append(shell_project(point, j, cfg))
    inv_q = 0.0 if math.isinf(q_exp) else 1.0 / q_exp
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 2.0 ** (2 * j * (inv_q - inv_p))
    best = 0.0
    for f in fields:
        piece = shell_project(f, j, cfg)
        num = grid.lp_norm(oracle_field_on_grid(piece, grid.r, grid.theta, cfg), p)
        den = grid.lp_norm(oracle_field_on_grid(f, grid.r, grid.theta, cfg), q_exp)
        if den > 0.0:
            best = max(best, num / (scale * den))
    if best == 0.0:
        raise DomainError(f"no spectral mass in shell {j} for the given window")
    return best


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _count_grid_calls(monkeypatch, n_r: int) -> list[int]:
    """Record the k of every radial_profiles call on n_r radii (a grid, not a point); an array k adds each of its ks."""
    calls = []

    def spy(cfg, k, m_max, r):
        if np.atleast_1d(r).size == n_r:
            calls.extend(np.ravel(k).tolist())
        return radial_profiles(cfg, k, m_max, r)

    monkeypatch.setattr(spectrum, "radial_profiles", spy)
    return calls


# ---------------------------------------------------------------------------
# agreement with the oracles on the reference configs, within the rounding bound
# ---------------------------------------------------------------------------

_BERNSTEIN_CASES = [(i, j) for i, cfg in enumerate(REFERENCE_CONFIGS) for j in BERNSTEIN_LEVELS[cfg.sigma]]


def _bernstein_interval(j, p, q_exp, cfg, window, trials, seed, norm_bound) -> tuple[float, float]:
    """[lo, hi] holding the Bernstein ratio of every synthesis within the rounding bound of the oracle's terms.

    Builds the oracle's trial fields in its order; each trial's ratio moves
    with its numerator and denominator by at most their norm bounds.
    """
    grid = evaluation_grid(cfg)
    rng = np.random.default_rng(seed)
    fields = [random_field(window, rng) for _ in range(trials)]
    for r0 in (0.35, 0.9, 1.7):
        point = spectrum.point_field(ConePoint(r0, 0.0), cfg, window)
        fields += [point, shell_project(point, j, cfg)]
    inv_q = 0.0 if math.isinf(q_exp) else 1.0 / q_exp
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    scale = 2.0 ** (2 * j * (inv_q - inv_p))
    lo = hi = 0.0
    for f in fields:
        piece = shell_project(f, j, cfg)
        num = grid.lp_norm(oracle_field_on_grid(piece, grid.r, grid.theta, cfg), p)
        den = grid.lp_norm(oracle_field_on_grid(f, grid.r, grid.theta, cfg), q_exp)
        d_num, d_den = norm_bound(piece, p, cfg, grid), norm_bound(f, q_exp, cfg, grid)
        assert den > d_den
        lo = max(lo, (num - d_num) / (scale * (den + d_den)))
        hi = max(hi, (num + d_num) / (scale * (den - d_den)))
    return lo, hi


@pytest.mark.parametrize("i_cfg,j", _BERNSTEIN_CASES)
def test_bernstein_ratio_matches_oracle_within_rounding(i_cfg, j, norm_bound, shell_modes):
    cfg = REFERENCE_CONFIGS[i_cfg]
    window = shell_window(j, cfg)
    for p, q_exp, seed in ((math.inf, 2.0, 5 + j), (4.0, 1.0, 17)):
        new = bernstein_ratio(j, p, q_exp, cfg, window, trials=2, seed=seed)
        old = oracle_bernstein_ratio(j, p, q_exp, cfg, window, shell_modes, trials=2, seed=seed)
        lo, hi = _bernstein_interval(j, p, q_exp, cfg, window, 2, seed, norm_bound)
        assert lo <= old <= hi and lo <= new <= hi, (p, q_exp, new, old, lo, hi)


@pytest.mark.parametrize("i_cfg", range(3))
def test_besov_report_matches_oracle_within_rounding(i_cfg, norm_bound):
    cfg = REFERENCE_CONFIGS[i_cfg]
    field = random_field(ModeWindow(8, 8), np.random.default_rng(40 + i_cfg))
    report = besov_report(field, 0.5, 4.0, 2.0, cfg)
    pieces = oracle_shell_norms(field, 4.0, cfg, None)
    assert [sh["j"] for sh in report["shells"]] == [j for j, _ in pieces]
    grid = evaluation_grid(cfg)
    slack = [norm_bound(shell_project(field, j, cfg), 4.0, cfg, grid) for j, _ in pieces]
    for sh, (_, n), d in zip(report["shells"], pieces, slack):
        assert abs(sh["lp_norm"] - n) <= d, (sh, n, d)
    value = float(sum((2.0 ** (j * 0.5) * n) ** 2.0 for j, n in pieces) ** 0.5)
    value_slack = float(sum((2.0 ** (j * 0.5) * d) ** 2.0 for (j, _), d in zip(pieces, slack)) ** 0.5)
    assert abs(report["value"] - value) <= value_slack


def _assert_within_bound(values, field, r, theta, cfg, synthesis_bound):
    old = oracle_field_on_grid(field, r, theta, cfg)
    assert values.shape == old.shape and values.dtype == old.dtype
    assert (np.abs(values - old) <= synthesis_bound(field, r, cfg)[:, None]).all()


@pytest.mark.parametrize("i_cfg", range(3))
def test_field_on_grid_of_a_sparse_shell_piece_matches_oracle_within_rounding(i_cfg, synthesis_bound):
    cfg = REFERENCE_CONFIGS[i_cfg]
    rng = np.random.default_rng(70 + i_cfg)
    field = shell_project(random_field(ModeWindow(12, 10), rng), 0, cfg)
    assert 0 < np.count_nonzero(np.any(field.coeffs, axis=1)) < field.window.shape[0]
    grid = evaluation_grid(cfg)
    r = np.concatenate([[0.0], grid.r, rng.uniform(0.1, 4.0, 5)])
    theta = np.concatenate([grid.theta[::7], rng.uniform(-cfg.period, cfg.period, 3)])
    _assert_within_bound(field_on_grid(field, r, theta, cfg), field, r, theta, cfg, synthesis_bound)
    fields = (field, shell_project(field, 1, cfg), field)
    for f, values in zip(fields, fields_on_grid(fields, r, theta, cfg), strict=True):
        _assert_within_bound(values, f, r, theta, cfg, synthesis_bound)


def _mixed_fields(window, rng):
    """A sparse field, a dense one and an all-zero one on the window."""
    sparse = random_field(window, rng).coeffs.copy()
    sparse[::3] = 0.0
    return [SpectralField(window, sparse), random_field(window, rng),
            SpectralField(window, np.zeros(window.shape, dtype=complex))]


@pytest.mark.parametrize("i_cfg", range(3))
def test_fields_on_grid_of_mixed_fields_matches_oracle_within_rounding(i_cfg, synthesis_bound):
    cfg = REFERENCE_CONFIGS[i_cfg]
    rng = np.random.default_rng(90 + i_cfg)
    fields = _mixed_fields(ModeWindow(9, 7), rng)
    grid = evaluation_grid(cfg)
    r = np.concatenate([[0.0], grid.r[::3]])
    theta = np.concatenate([grid.theta[::5], rng.uniform(-cfg.period, cfg.period, 3)])
    values = list(fields_on_grid(fields, r, theta, cfg))
    assert len(values) == len(fields)
    for f, v in zip(fields, values):
        _assert_within_bound(v, f, r, theta, cfg, synthesis_bound)
    assert not np.any(values[2])  # the all-zero field's grid is zero (a cell may carry the sign -0.0)


@st.composite
def _synthesis_case(draw):
    """(cfg, window, seed, n_fields, r, theta, dead): random radii and non-uniform angles, negative or past the period.

    dead holds (field, lo, hi) triples: that field's k rows lo:hi are zero.
    """
    cfg = REFERENCE_CONFIGS[draw(st.integers(0, 2))]
    window = ModeWindow(draw(st.integers(0, 6)), draw(st.integers(0, 5)))
    r = draw(st.lists(st.floats(0.0, 6.0), max_size=5))
    theta = draw(st.lists(st.floats(-3.0 * cfg.period, 3.0 * cfg.period), max_size=6))
    return cfg, window, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 3)), r, theta, ()


@settings(max_examples=60, deadline=None)
@given(case=_synthesis_case())
@example(case=(REFERENCE_CONFIGS[0], ModeWindow(5, 4), 1, 2, [0.8], [-1.3], ()))  # one point: spectral_kernel
@example(case=(REFERENCE_CONFIGS[1], ModeWindow(4, 3), 2, 3, [], [0.1, 7.0, -2.0], ()))
@example(case=(REFERENCE_CONFIGS[2], ModeWindow(4, 3), 3, 3, [0.0, 1.2], [], ()))
# live ks spanning 3 or more _radial_blocks blocks, with fields zero on whole blocks the others fill
@example(case=(REFERENCE_CONFIGS[1], ModeWindow(6, 40), 4, 3, list(np.linspace(0.0, 9.0, 200)),
               [0.3, -2.0, 11.0], ((0, 0, 6), (2, 7, 13))))
@example(case=(REFERENCE_CONFIGS[2], ModeWindow(40, 30), 5, 2, list(np.linspace(0.05, 7.0, 60)),
               [0.0, 1.1, -5.0, 20.0], ((0, 0, 40), (1, 50, 81))))
def test_fields_on_grid_of_any_grid_matches_oracle_within_rounding(case, synthesis_bound):
    cfg, window, seed, n_fields, r, theta, dead = case
    r, theta = np.array(r, dtype=float), np.array(theta, dtype=float)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_fields):
        coeffs = random_field(window, rng).coeffs.copy()
        coeffs[rng.uniform(size=window.shape[0]) < 0.4] = 0.0  # some all-zero k rows, at times all of them
        fields.append(SpectralField(window, coeffs))
    for f, lo, hi in dead:
        fields[f].coeffs[lo:hi] = 0.0
    if dead:
        live = np.array([np.any(f.coeffs, axis=1) for f in fields])  # [field, k]
        iks = np.flatnonzero(live.any(axis=0))
        step = spectrum._ROW_BLOCK // ((window.m_max + 1) * r.size)
        blocks = [iks[lo:lo + step] for lo in range(0, iks.size, step)]
        assert len(blocks) >= 3 and all(any(not live[f, b].any() for b in blocks) for f, _, _ in dead)
    values = list(fields_on_grid(fields, r, theta, cfg))
    assert [v.shape for v in values] == [(r.size, theta.size)] * n_fields
    for f, v in zip(fields, values):
        _assert_within_bound(v, f, r, theta, cfg, synthesis_bound)


# ---------------------------------------------------------------------------
# one pass builds each row once and keeps none
# ---------------------------------------------------------------------------

def test_fields_on_grid_builds_one_row_per_nonzero_k(monkeypatch):
    cfg = REFERENCE_CONFIGS[0]
    window = ModeWindow(6, 5)
    sparse, dense, zero = _mixed_fields(window, np.random.default_rng(3))
    sparse.coeffs[[0, 4, 5, 11]] = 0.0
    dense.coeffs[[0, 1, 5, 11]] = 0.0  # k = -2 (row 4) stays live through the dense field
    r = np.linspace(0.1, 3.0, 9)
    calls = _count_grid_calls(monkeypatch, r.size)
    for _ in fields_on_grid([sparse, dense, zero], r, np.linspace(0.0, 6.0, 4), cfg):
        pass
    assert calls == [int(k) for ik, k in enumerate(window.k_values) if ik not in (0, 5, 11)]


def test_bernstein_ratio_builds_each_grid_row_once(monkeypatch):
    cfg = REFERENCE_CONFIGS[0]
    window = shell_window(2, cfg)
    grid = evaluation_grid(cfg)
    calls = _count_grid_calls(monkeypatch, grid.r.size)
    bernstein_ratio(2, math.inf, 2.0, cfg, window)
    assert sorted(calls) == [int(k) for k in window.k_values]  # K calls, not up to 16 K


def test_besov_norm_builds_each_grid_row_once(monkeypatch):
    cfg = REFERENCE_CONFIGS[1]
    field = random_field(ModeWindow(8, 8), np.random.default_rng(9))
    grid = evaluation_grid(cfg)
    calls = _count_grid_calls(monkeypatch, grid.r.size)
    lpbesov.besov_norm(field, 0.0, 4.0, 2.0, cfg)
    assert len(lpbesov.shell_range(cfg, field.window)) > 1
    assert sorted(calls) == [int(k) for k in field.window.k_values]


def test_fields_on_grid_rejects_fields_on_two_windows():
    cfg = REFERENCE_CONFIGS[0]
    rng = np.random.default_rng(0)
    fields = [random_field(ModeWindow(4, 4), rng), random_field(ModeWindow(4, 5), rng)]
    with pytest.raises(DomainError):
        fields_on_grid(fields, [0.5, 1.0], [0.0, 1.0], cfg)


def test_field_on_grid_peak_memory_stays_below_one_window_of_rows():
    # the window's rows on the 80 grid radii alone are 401 x 101 x 80 float64 = 26 MB
    cfg = REFERENCE_CONFIGS[0]
    field = random_field(ModeWindow(200, 100), np.random.default_rng(12))
    grid = evaluation_grid(cfg)
    tracemalloc.start()
    try:
        field_on_grid(field, grid.r, grid.theta, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_fields_on_grid_peak_memory_is_the_radial_parts_one_block_the_phases_and_two_grids():
    # 16 fields on the evaluation grid at sigma = 1.5 and j = 2, the shape of a Bernstein op
    cfg = REFERENCE_CONFIGS[1]
    window = shell_window(2, cfg)
    grid = evaluation_grid(cfg)
    rng = np.random.default_rng(6)
    fields = [random_field(window, rng) for _ in range(16)]
    (n_k, n_levels), n_r, n_theta = window.shape, grid.r.size, grid.theta.size
    block = min(n_k, max(1, spectrum._ROW_BLOCK // (n_levels * n_r))) * n_levels * n_r * 8
    budget = 16 * (len(fields) * n_k * n_r + n_k * n_theta + 2 * n_r * n_theta) + block
    tracemalloc.start()
    try:
        for values in fields_on_grid(fields, grid.r, grid.theta, cfg):  # the last grid and the next one
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * budget, (peak, budget)


def test_field_on_grid_of_an_empty_grid_keeps_its_shape():
    cfg = REFERENCE_CONFIGS[2]
    field = random_field(ModeWindow(5, 4), np.random.default_rng(4))
    r, theta = np.linspace(0.2, 2.0, 3), np.linspace(0.0, 4.0, 5)
    assert field_on_grid(field, [], theta, cfg).shape == (0, 5)
    assert field_on_grid(field, r, [], cfg).shape == (3, 0)
    assert field_on_grid(field, [], [], cfg).shape == (0, 0)


# ---------------------------------------------------------------------------
# one radial evaluation for a block of k
# ---------------------------------------------------------------------------

_RADII = np.array([0.0, 0.05, 0.7, 1.3, 2.9, 6.0])


@pytest.mark.parametrize("m_max", (0, 1, 40))
@pytest.mark.parametrize("i_cfg", range(3))
def test_radial_profiles_over_an_array_of_k_matches_the_scalar_oracle_bitwise(i_cfg, m_max):
    cfg = REFERENCE_CONFIGS[i_cfg]
    for ks in (np.arange(-9, 10), np.array([3, -3, 0, 40, -41]), np.arange(0), np.arange(-6, 6).reshape(3, 4)):
        rows = radial_profiles(cfg, ks, m_max, _RADII)
        assert rows.shape == ks.shape + (m_max + 1, _RADII.size) and rows.flags.c_contiguous
        for index, k in np.ndenumerate(ks):
            assert _same_bits(rows[index], oracle_radial_profiles(cfg, int(k), m_max, _RADII)), (k, m_max)
    for k in (-2, 0, 5):
        assert _same_bits(radial_profiles(cfg, k, m_max, _RADII), oracle_radial_profiles(cfg, k, m_max, _RADII))


def _spy_calls(monkeypatch) -> list[tuple]:
    """Record (k, m_max, len(r)) of every radial_profiles call."""
    calls = []

    def spy(cfg, k, m_max, r):
        calls.append((k, m_max, np.atleast_1d(r).size))
        return radial_profiles(cfg, k, m_max, r)

    monkeypatch.setattr(spectrum, "radial_profiles", spy)
    return calls


def test_radial_rows_yields_every_k_in_order_a_block_at_a_time(monkeypatch):
    cfg = REFERENCE_CONFIGS[1]
    calls = _spy_calls(monkeypatch)
    r = np.linspace(0.0, 3.0, 7)
    ks = range(5, -300, -1)
    got = list(spectrum._radial_rows(cfg, ks, 11, r))
    assert [k for k, _ in got] == list(ks)
    for k, rows in got[::37]:
        assert _same_bits(rows, oracle_radial_profiles(cfg, k, 11, r))
    per_k = 12 * r.size
    assert len(calls) == math.ceil(len(ks) / (spectrum._ROW_BLOCK // per_k))
    assert all(np.size(k) * per_k <= spectrum._ROW_BLOCK for k, _, _ in calls)
    calls.clear()
    wide = np.linspace(0.0, 1.0, spectrum._ROW_BLOCK + 1)  # one k alone is more than a block
    assert [k for k, _ in spectrum._radial_rows(cfg, [1, 2], 0, wide)] == [1, 2]
    assert [np.size(k) for k, _, _ in calls] == [1, 1]


def test_point_field_makes_one_radial_call(monkeypatch):
    calls = _spy_calls(monkeypatch)
    spectrum.point_field(ConePoint(0.8, 1.1), REFERENCE_CONFIGS[0], ModeWindow(30, 12))
    assert [(np.shape(k), m, n) for k, m, n in calls] == [((61,), 12, 1)]


@pytest.mark.parametrize("window,n_r", [(ModeWindow(300, 7), 16), (ModeWindow(40, 30), 23)])
def test_fields_on_grid_calls_are_bounded_by_the_block(monkeypatch, window, n_r):
    cfg = REFERENCE_CONFIGS[2]
    field = random_field(window, np.random.default_rng(8))
    calls = _spy_calls(monkeypatch)
    field_on_grid(field, np.linspace(0.1, 5.0, n_r), np.linspace(0.0, 1.0, 3), cfg)
    n_k, per_k = window.shape[0], window.shape[1] * n_r
    assert sorted(np.concatenate([np.ravel(k) for k, _, _ in calls]).tolist()) == window.k_values.tolist()
    assert len(calls) == math.ceil(n_k / (spectrum._ROW_BLOCK // per_k))
    if spectrum._ROW_BLOCK % per_k == 0:
        assert len(calls) <= math.ceil(n_k * per_k / spectrum._ROW_BLOCK)


def test_shell_blocks_peak_memory_stays_near_the_blocks_it_returns():
    # sigma = 2, j = 3 on the sweep's 41 radii: the blocks returned hold 51.5 MB, and the peak
    # RSS rises 3 MB above them; building each branch's k range in one call made that 45 MB
    probe = (
        "import resource\n"
        "import numpy as np\n"
        "from magcone import kernels, lpbesov, verify\n"
        "cfg = verify.REFERENCE_CONFIGS[2]\n"
        "window = lpbesov.shell_window(3, cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "blocks = kernels._shell_blocks(3, cfg, window, np.linspace(0.25, 10.0, 41))\n"
        "peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024\n"
        "print(peak, sum(b[3].nbytes for b in blocks))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=PACKAGE.parent, timeout=300)
    assert res.returncode == 0, res.stderr
    peak, held = map(int, res.stdout.split())
    assert held > 40 * 2 ** 20  # the probe built the sweep's whole shell
    assert peak - held < 16 * 2 ** 20, (peak, held)


# ---------------------------------------------------------------------------
# structure: the radial formula has one caller module, the shell rule one home
# ---------------------------------------------------------------------------

def _radial_calls(path: Path) -> list[int]:
    """Line numbers of the radial_profiles( calls in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "radial_profiles"]


def test_radial_profiles_is_called_only_inside_spectrum():
    callers = {path.stem: _radial_calls(path) for path in PACKAGE.glob("*.py")}
    assert callers.pop("spectrum")
    assert {stem: lines for stem, lines in callers.items() if lines} == {}


def test_kernels_reads_its_shells_from_the_shell_table():
    """kernels computes no eigenvalue or shell weight itself: from lpbesov it imports the shell table alone."""
    tree = ast.parse((PACKAGE / "kernels.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", getattr(node.func, "attr", None)) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert called.isdisjoint({"eigenvalue", "shell_weights", "make_cutoff"}), called
    from_lpbesov = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module == "lpbesov" for alias in node.names]
    assert from_lpbesov == ["_shell_table"]
