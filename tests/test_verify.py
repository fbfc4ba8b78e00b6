import json
import math

import numpy as np
import pytest

from magcone import cli, verify
from magcone.errors import DomainError, GammaOutOfRangeError, WindowTooSmallError
from magcone.geometry import ConeConfig, flux_distance, make_point
from magcone.kernels import schrodinger_kernel_series
from magcone.verify import (
    REFERENCE_CONFIGS,
    SweepGrids,
    angular_tail_l1_scan,
    energy_conservation_check,
    gaussian_heat_constant,
    halfwave_decay_fit,
    reduced_kernel_bound_scan,
    run_suite,
    subordination_identity_check,
    weighted_dispersive_constant,
    write_report,
)

SMALL = SweepGrids(n_time=3, n_radius=4, n_angle=6)


def test_dispersive_sweep_passes(cfg):
    rep = weighted_dispersive_constant(cfg, (), SMALL)[0]
    assert rep.passed
    assert math.isfinite(rep.empirical_constant)
    assert rep.refinement_ratio <= 1.05


def test_weighted_matches_dispersive_at_gamma_zero(cfg):
    a = weighted_dispersive_constant(cfg, (), SMALL)[0].empirical_constant
    b = weighted_dispersive_constant(cfg, (0.0,), SMALL)[1].empirical_constant
    assert abs(a - b) <= 1e-12 * abs(a)


def test_weighted_gamma_range(cfg):
    kappa = flux_distance(cfg)
    reports = weighted_dispersive_constant(cfg, (kappa,), SMALL)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert any(n.endswith("/omega1") for n in names)
    assert any(n.endswith("/omega2") for n in names)
    with pytest.raises(GammaOutOfRangeError):
        weighted_dispersive_constant(cfg, (0.0, kappa + 0.05), SMALL)


def _patch_out_sweeps(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before the argument checks")

    for name in ("reduced_kernel_matrix", "heat_closed_bracket_grid", "halfwave_sup_curve", "adaptive_panel",
                 "spectral_apply"):
        monkeypatch.setattr(verify, name, no_sweep)


@pytest.mark.parametrize("suite", ["weighted", "all"])
@pytest.mark.parametrize("gamma", [-0.1, 0.9])
def test_run_suite_checks_gamma_before_any_sweep(monkeypatch, suite, gamma):
    _patch_out_sweeps(monkeypatch)
    with pytest.raises(GammaOutOfRangeError, match="outside"):
        run_suite(suite, REFERENCE_CONFIGS[0], SMALL, gamma=gamma)


@pytest.mark.parametrize("suite", ["halfwave", "all"])
@pytest.mark.parametrize("j,error,match", [(-3, DomainError, "holds no mode"),
                                           (30, WindowTooSmallError, "above the cap"),
                                           (600, WindowTooSmallError, "above the cap")])
def test_run_suite_checks_the_halfwave_shell_before_any_sweep(monkeypatch, suite, j, error, match):
    _patch_out_sweeps(monkeypatch)
    with pytest.raises(error, match=match):
        run_suite(suite, REFERENCE_CONFIGS[0], SMALL, halfwave_j=j)


def test_dispersive_kernel_sanity_inversion(cfg):
    # the raw (unnormalized) kernel sup grows as the singular time approaches
    p = make_point(cfg, 1.0, 0.3)
    q = make_point(cfg, 0.9, 1.1)
    t_far = (math.pi - math.asin(0.2)) / cfg.b0  # |sin| = 0.2
    t_near = (math.pi - math.asin(0.01)) / cfg.b0  # |sin| = 0.01
    v_far = abs(schrodinger_kernel_series(t_far, p, q, cfg).value)
    v_near = abs(schrodinger_kernel_series(t_near, p, q, cfg).value)
    assert v_near > v_far


def test_gaussian_heat_sweep(cfg):
    # needs enough angles for the coarse pass to already resolve the theta peak
    rep = gaussian_heat_constant(cfg, SweepGrids(n_time=3, n_radius=5, n_angle=12))[0]
    assert rep.passed
    # Mehler-style lower bound: the diagonal saturates b0 / (4 pi sigma)
    assert rep.empirical_constant >= cfg.b0 / (4.0 * math.pi * cfg.sigma) * 0.9


def test_reduced_kernel_scan(cfg):
    rep = reduced_kernel_bound_scan(cfg, grids=SMALL)[0]
    assert rep.passed


def test_tail_l1_scan(cfg):
    rep = angular_tail_l1_scan(cfg, SMALL)[0]
    assert rep.passed


def test_tail_l1_scan_at_a_wide_cone_bisects_until_it_converges():
    """At sigma = 50, alpha = 0.01 a panel needs more than 28 bisections; with no fixed depth the scan passes."""
    rep = angular_tail_l1_scan(ConeConfig(sigma=50.0, b0=1.0, alpha=0.01))[0]
    assert rep.passed
    assert rep.empirical_constant == pytest.approx(157.08, abs=0.01)
    assert rep.refinement_ratio == pytest.approx(1.0, abs=1e-4)


def test_subordination_check():
    rep = subordination_identity_check()[0]
    assert rep.passed
    assert rep.empirical_constant < 1e-10


def test_energy_conservation(cfg):
    rep = energy_conservation_check(cfg)[0]
    assert rep.passed
    assert rep.empirical_constant < 1e-12


def test_halfwave_fit_small():
    cfg = REFERENCE_CONFIGS[0]
    rep = halfwave_decay_fit(cfg, 1, SMALL)[0]
    assert rep.passed
    assert -0.75 <= rep.empirical_constant <= -0.35


def test_run_suite_returns_suite_names_order_though_the_family_runs_last(monkeypatch):
    """The dispersive family's reports lead, in SUITE_NAMES order, while its call is the last sweep."""
    order = []

    def logged(name, sweep):
        def call(*args, **kwargs):
            order.append(name)
            return sweep(*args, **kwargs)
        return call

    for name in ("weighted_dispersive_constant", "gaussian_heat_constant", "reduced_kernel_bound_scan",
                 "angular_tail_l1_scan", "subordination_identity_check", "halfwave_decay_fit",
                 "energy_conservation_check"):
        monkeypatch.setattr(verify, name, logged(name, getattr(verify, name)))
    reports = run_suite("all", REFERENCE_CONFIGS[0], SweepGrids(n_time=2, n_radius=2, n_angle=2), halfwave_j=1)
    assert order[-1] == "weighted_dispersive_constant" and order.count("weighted_dispersive_constant") == 1
    suites = ["weighted" if rep.name.startswith("weighted-g") else rep.name for rep in reports]
    assert list(dict.fromkeys(suites)) == list(verify.SUITE_NAMES)


def test_no_report_writes_a_csv_without_rows(tmp_path):
    """Every report of a `run_suite('all')` either has no CSV or writes rows under its header."""
    for rep in run_suite("all", REFERENCE_CONFIGS[1], SweepGrids(n_time=2, n_radius=2, n_angle=2), halfwave_j=1):
        _, csv_path = write_report(rep, tmp_path)
        assert (csv_path is None) == (rep.csv_header == ()), rep.name
        if csv_path is not None:
            assert len(csv_path.read_text(encoding="utf-8").splitlines()) > 1, rep.name
    assert not list(tmp_path.glob("*_omega*.csv"))


def test_run_suite_unknown_name(cfg):
    with pytest.raises(DomainError, match=r"^unknown suite 'nonsense'; choose from \('dispersive', "):
        run_suite("nonsense", cfg)


def test_cli_unknown_suite_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["--out", str(out), "verify", "nonsense"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: unknown suite 'nonsense'")
    assert not out.exists()


def test_reports_deterministic_and_serializable(tmp_path, cfg):
    rep1 = weighted_dispersive_constant(cfg, (), SMALL)[0]
    rep2 = weighted_dispersive_constant(cfg, (), SMALL)[0]
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    j1, c1 = write_report(rep1, d1)
    j2, c2 = write_report(rep2, d2)
    assert j1.read_bytes() == j2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()
    payload = json.loads(j1.read_text())
    assert payload["pass"] is True
    assert "runtime" not in json.dumps(payload)  # console-only diagnostics


def test_reference_configs_are_the_published_triple():
    got = [(c.sigma, c.alpha, c.b0) for c in REFERENCE_CONFIGS]
    assert got == [(1.0, 0.25, 1.0), (1.5, 0.4, 1.0), (2.0, 0.3, 0.5)]


def test_gaussian_heat_sweep_keeps_its_angles_off_the_image_boundaries(monkeypatch):
    """At sigma = 1.5 and n_angle = 20 a base angle sits 0.0011 from pi, inside the grid kernel's blind zone."""
    cfg = REFERENCE_CONFIGS[1]
    grids = SweepGrids(n_time=1, n_radius=1, n_angle=20)
    base = verify._pair_grid(cfg, grids)[1]
    assert np.abs(np.abs(base) - math.pi).min() < 0.02
    seen = []
    grid_kernel = verify.heat_closed_bracket_grid

    def spy(x, theta, t, cone):
        seen.append(np.array(theta))
        return grid_kernel(x, theta, t, cone)

    monkeypatch.setattr(verify, "heat_closed_bracket_grid", spy)
    gaussian_heat_constant(cfg, grids)
    angles = np.concatenate(seen)
    assert len(seen) == 1  # the one time of the fine grid, the only one evaluated
    # the image boundaries |dtheta + 2 pi sigma j| = pi within the angle range |dtheta| <= sigma pi are +-pi
    assert np.abs(np.abs(angles) - math.pi).min() >= 0.02
