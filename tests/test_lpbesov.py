import math

import numpy as np
import pytest

from magcone import lpbesov
from magcone.errors import DomainError
from magcone.geometry import ConeConfig
from magcone.lpbesov import (
    bernstein_ratio,
    besov_norm,
    besov_report,
    make_cutoff,
    shell_project,
    shell_range,
    sobolev_norm,
    square_function_l2,
)
from magcone.quadrature import evaluation_grid
from magcone.spectrum import (
    ModeWindow,
    SpectralField,
    eigenvalue_table,
    field_on_grid,
    random_field,
    spectral_apply,
)


def test_partition_of_unity_residual():
    cutoff = make_cutoff()
    lam = np.geomspace(1e-3, 1e3, 200)
    assert cutoff.partition_residual(lam) < 1e-12


def test_cutoff_support_and_range():
    cutoff = make_cutoff()
    lam = np.geomspace(1e-3, 1e3, 500)
    vals = cutoff(lam)
    assert (vals >= 0.0).all() and (vals <= 1.0).all()
    assert cutoff(np.array([0.4, 0.49, 2.01, 4.0])).max() == 0.0
    assert cutoff(np.array([0.75]))[0] > 0.0


def test_cutoff_two_shell_overlap():
    cutoff = make_cutoff()
    lam = np.geomspace(0.05, 50.0, 400)
    count = np.zeros_like(lam)
    for j in range(-10, 11):
        count += (cutoff(lam / 2.0 ** j) > 0.0).astype(float)
    assert count.max() <= 2.0
    assert count.min() >= 1.0


def _single_mode_field(window, k, m):
    coeffs = np.zeros(window.shape, dtype=complex)
    coeffs[k + window.k_max, m] = 1.0
    return SpectralField(window, coeffs)


def test_single_mode_besov_l2(cfg):
    window = ModeWindow(3, 3)
    f = _single_mode_field(window, 1, 2)
    val = besov_norm(f, 0.0, 2.0, 2.0, cfg)
    assert 1.0 / math.sqrt(2.0) - 1e-9 <= val <= 1.0 + 1e-9


def test_besov_s_scaling(cfg):
    window = ModeWindow(2, 2)
    f = random_field(window, np.random.default_rng(7))
    cutoff = make_cutoff()
    # adding 1 to s multiplies each shell term by 2^j
    manual = 0.0
    for j in shell_range(cfg, window):
        piece = shell_project(f, j, cfg).coefficient_norm()
        manual += (2.0 ** (j * 1.5) * 2.0 ** j * piece) ** 2
    assert besov_norm(f, 2.5, 2.0, 2.0, cfg) == pytest.approx(math.sqrt(manual), rel=1e-12)


def test_norm_equivalence_sharp_at_s0(cfg, rng):
    window = ModeWindow(4, 4)
    for _ in range(20):
        f = random_field(window, rng)
        ratio = besov_norm(f, 0.0, 2.0, 2.0, cfg) / sobolev_norm(f, 0.0, cfg)
        assert 1.0 / math.sqrt(2.0) - 1e-6 <= ratio <= math.sqrt(2.0) + 1e-6


def test_norm_equivalence_general_s(cfg, rng):
    # provable widened band: [2^{-1/2} min(1, 2^s), max(1, 2^s)]
    window = ModeWindow(4, 4)
    for s in (1.0, -0.5):
        lo = 2.0 ** -0.5 * min(1.0, 2.0 ** s) - 1e-9
        hi = max(1.0, 2.0 ** s) + 1e-9
        for _ in range(10):
            f = random_field(window, rng)
            ratio = besov_norm(f, s, 2.0, 2.0, cfg) / sobolev_norm(f, s, cfg)
            assert lo <= ratio <= hi


def test_sobolev_norm(cfg, rng):
    window = ModeWindow(3, 3)
    f = random_field(window, rng)
    assert sobolev_norm(f, 0.0, cfg) == pytest.approx(f.coefficient_norm(), rel=1e-14)

    single = _single_mode_field(window, 2, 1)
    lam = float(eigenvalue_table(cfg, window)[2 + window.k_max, 1])
    assert sobolev_norm(single, 1.4, cfg) == pytest.approx(lam ** 0.7, rel=1e-13)


def test_sobolev_vs_quadrature_oracle(cfg, rng):
    # coefficient-space H^{s/2} norm == radial quadrature of the synthesized
    # field, mode order by mode order (the angular integral is exact and
    # kills cross-k terms; each k gets its matched Gauss-Laguerre rule)
    from magcone.quadrature import genlaguerre_rule
    from magcone.spectrum import angular_order, radial_profiles

    window = ModeWindow(3, 3)
    f = random_field(window, rng)
    s = 0.8
    lam = eigenvalue_table(cfg, window)
    g = SpectralField(window, f.coeffs * lam ** (s / 2.0))
    total = 0.0
    for ik, k in enumerate(window.k_values):
        a = float(angular_order(cfg, int(k)))
        u, w = genlaguerre_rule(60, a)
        r = np.sqrt(2.0 * u / cfg.b0)
        rad = radial_profiles(cfg, int(k), window.m_max, r)
        g_k = g.coeffs[ik] @ rad
        flat = np.exp(np.log(w) + u - a * np.log(u))
        total += cfg.period / cfg.b0 * float(np.sum(flat * np.abs(g_k) ** 2))
    assert math.sqrt(total) == pytest.approx(sobolev_norm(f, s, cfg), rel=1e-8)


def test_square_function_identity(cfg, rng):
    window = ModeWindow(4, 4)
    for _ in range(10):
        f = random_field(window, rng)
        sq = square_function_l2(f, cfg)
        n2 = f.coefficient_norm() ** 2
        assert 0.5 * n2 - 1e-12 <= sq <= n2 + 1e-12


def test_besov_report_shape(cfg, rng):
    f = random_field(ModeWindow(2, 2), rng)
    rep = besov_report(f, 0.5, 2.0, 2.0, cfg)
    assert set(rep) == {"s", "p", "q", "window", "value", "shells"}
    assert rep["value"] > 0.0
    assert all("lp_norm" in s for s in rep["shells"])


def test_besov_invalid_exponents(cfg, rng):
    f = random_field(ModeWindow(2, 2), rng)
    with pytest.raises(DomainError):
        besov_norm(f, 0.0, 0.5, 2.0, cfg)


@pytest.mark.parametrize("s,p,q", [(math.nan, 2.0, 2.0), (0.0, math.nan, 2.0), (0.0, 2.0, math.nan),
                                   (0.5, math.nan, math.nan), (math.inf, 4.0, 2.0), (-math.inf, 2.0, 2.0)])
def test_besov_and_sobolev_refuse_a_nan_or_infinite_exponent(cfg, s, p, q):
    f = random_field(ModeWindow(3, 3), np.random.default_rng(8))
    for call in (lambda: besov_norm(f, s, p, q, cfg), lambda: besov_report(f, s, p, q, cfg)):
        with pytest.raises(DomainError, match="besov_norm needs p, q >= 1 and a finite s"):
            call()
    if not math.isfinite(s):
        with pytest.raises(DomainError, match="sobolev_norm needs a finite s"):
            sobolev_norm(f, s, cfg)


def _spy_fields_on_grid(monkeypatch) -> list:
    """Record the list of fields each lpbesov fields_on_grid call synthesizes."""
    seen = []
    original = lpbesov.fields_on_grid

    def spy(fields, *args):
        seen.append(list(fields))
        return original(seen[-1], *args)

    monkeypatch.setattr(lpbesov, "fields_on_grid", spy)
    return seen


def _shell_apply(f, j, cfg):
    """phi(2^-j sqrt(H)) f as a plain spectral multiplier."""
    return spectral_apply(lambda lam: make_cutoff().shell_weights(j, lam), f, cfg).coeffs


def test_shell_pieces_of_bernstein_and_besov_have_the_bits_of_shell_project(cfg, monkeypatch):
    seen = _spy_fields_on_grid(monkeypatch)
    j, trials = 1, 3
    bernstein_ratio(j, 4.0, 2.0, cfg, _shell_window(cfg, j), trials=trials, seed=2)
    (pairs,) = seen
    pieces, fields = pairs[0::2], pairs[1::2]
    # each field comes after its shell piece; after the random trials, each point field is followed by
    # its shell-localized variant
    for f, piece in zip(fields, pieces):
        assert piece.coeffs.tobytes() == shell_project(f, j, cfg).coeffs.tobytes() == _shell_apply(f, j, cfg).tobytes()
    for point, local in zip(fields[trials::2], fields[trials + 1::2]):
        assert local.coeffs.tobytes() == shell_project(point, j, cfg).coeffs.tobytes()
    seen.clear()
    field = random_field(ModeWindow(8, 8), np.random.default_rng(11))
    shells = shell_range(cfg, field.window)
    besov_report(field, 0.5, 4.0, 2.0, cfg)
    (pieces,) = seen
    assert len(pieces) == len(shells) > 1
    for jj, piece in zip(shells, pieces):
        assert piece.coeffs.tobytes() == shell_project(field, jj, cfg).coeffs.tobytes()
        assert piece.coeffs.tobytes() == _shell_apply(field, jj, cfg).tobytes()
    # p = 2 reads the coefficients: each shell norm is its shell_project piece's, bit for bit
    assert [n for _, n in lpbesov._shell_norms(field, 2.0, cfg)] == [
        shell_project(field, jj, cfg).coefficient_norm() for jj in shells]


def _shell_window(cfg, j):
    lam_hi = 4.0 ** (j + 1)
    return ModeWindow(int(lam_hi / cfg.b0 * cfg.sigma / 2) + 8,
                      int((lam_hi / cfg.b0 - 1) / 2) + 1)


def test_bernstein_scale_free_case(cfg):
    r = bernstein_ratio(2, 2.0, 2.0, cfg, _shell_window(cfg, 2), trials=4, seed=3)
    assert 0.0 < r <= 1.0 + 1e-12  # projector contracts L2


def test_bernstein_uniform_over_j():
    cfg = ConeConfig(1.0, 1.0, 0.25)
    grid = evaluation_grid(cfg, n_theta=512)
    ratios = []
    for j in (0, 1, 2, 3):
        ratios.append(bernstein_ratio(j, math.inf, 2.0, cfg, _shell_window(cfg, j),
                                      trials=6, seed=11, grid=grid))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 3.0


def test_bernstein_infty_one_uniformity():
    cfg = ConeConfig(2.0, 0.5, 0.3)  # b0 < 1 so the j = -1 shell has spectrum
    # resolve the top shell's angular bandwidth (~ lam_hi sigma / b0), else the
    # grid max misses the point-kernel peak and the ratio decays spuriously
    grid = evaluation_grid(cfg, n_theta=1024)
    ratios = []
    for j in (-1, 0, 1, 2):
        ratios.append(bernstein_ratio(j, math.inf, 1.0, cfg, _shell_window(cfg, j),
                                      trials=6, seed=11, grid=grid))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 4.0


def test_bernstein_preconditions(cfg):
    window = ModeWindow(10, 10)
    with pytest.raises(DomainError):
        bernstein_ratio(1, 1.0, 2.0, cfg, window)  # p < q


def test_single_mode_shell_ratio_closed_form(cfg):
    # a single mode inside shell j: the ratio reduces to
    # phi_j(sqrt(lam)) ||V||_p / (2^{2j(1/q-1/p)} ||V||_q) from grid norms
    j = 1
    window = _shell_window(cfg, j)
    lam = eigenvalue_table(cfg, window)
    cutoff = make_cutoff()
    weights = cutoff(np.sqrt(lam) / 2.0 ** j)
    ik, im = np.unravel_index(int(np.argmax(weights)), weights.shape)
    f = _single_mode_field(window, int(ik) - window.k_max, int(im))
    grid = evaluation_grid(cfg)
    p_exp, q_exp = math.inf, 2.0
    vals = np.abs(field_on_grid(f, grid.r, grid.theta, cfg))
    expected = (weights[ik, im] * grid.lp_norm(vals, p_exp)
                / (2.0 ** (2 * j * 0.5) * grid.lp_norm(vals, q_exp)))
    piece = shell_project(f, j, cfg)
    got = (grid.lp_norm(field_on_grid(piece, grid.r, grid.theta, cfg), p_exp)
           / (2.0 ** (2 * j * 0.5) * grid.lp_norm(vals, q_exp)))
    assert got == pytest.approx(expected, rel=1e-12)


def test_besov_infinity_exponents(cfg, rng):
    f = random_field(ModeWindow(2, 2), rng)
    v_inf_p = besov_norm(f, 0.0, math.inf, 2.0, cfg)
    assert v_inf_p > 0.0
    v_inf_q = besov_norm(f, 0.0, 2.0, math.inf, cfg)
    # ell^inf over shells <= ell^2 over shells
    assert v_inf_q <= besov_norm(f, 0.0, 2.0, 2.0, cfg) + 1e-12
