import json
import math
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from magcone.cli import (_DEFAULTS, EXIT_CONFIG, EXIT_FAILED_SWEEP, EXIT_OK, EXIT_SINGULAR, main,
                         parse_config_file)
from magcone.errors import ConfigError
from magcone.spectrum import load_field


def run_cli(*args):
    return main(list(args))


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sigma = 1.5\nb0 = 1.0\nalpha = 0.4  # flux\n\nn_theta = 128\n")
    values = parse_config_file(str(path))
    assert values["sigma"] == 1.5
    assert values["alpha"] == 0.4
    assert values["n_theta"] == 128
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma: 1.5\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("flux = 0.3\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(unknown))


def test_kernel_both_representation(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("--json", "--out", str(out), "kernel", "heat",
                   "--repr", "both", "--t", "1.0", "--p", "1.0,0.0", "--q", "1.0,0.5")
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_difference"] < 1e-8
    csv_lines = (out / "kernel.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("t,r1,th1")
    assert len(csv_lines) == 3  # header + two representations


def test_kernel_mehler_value(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("sigma = 1.0\nb0 = 1.0\nalpha = 1e-9\n")
    code = run_cli("--config", str(cfgfile), "--json", "--out", str(tmp_path / "o"),
                   "kernel", "heat", "--repr", "series", "--t", "1.0",
                   "--p", "1.0,0.0", "--q", "1.0,0.0")
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    val = payload["values"]["series"]["re"]
    assert val == pytest.approx(1.0 / (4.0 * math.pi * math.sinh(1.0)), abs=1e-6)


def test_kernel_singular_time_exit(tmp_path):
    code = run_cli("--out", str(tmp_path / "o"), "kernel", "schrodinger",
                   "--repr", "series", "--t", str(math.pi), "--p", "1.0,0.0", "--q", "1.0,0.5")
    assert code == EXIT_SINGULAR


def test_spectrum_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("--json", "--out", str(out), "spectrum", "table")
    assert code == EXIT_OK
    lines = (out / "spectrum_table.csv").read_text().strip().splitlines()
    assert lines[0] == "k,m,lambda,norm_sq"
    # sigma=1, b0=1, alpha=0.25 default: mode (0,0) has lambda = 1.5
    row00 = [ln for ln in lines if ln.startswith("0,0,")][0]
    assert float(row00.split(",")[2]) == pytest.approx(1.5)


def test_spectrum_evolve_semigroup(tmp_path):
    out = tmp_path / "out"
    # build a field by expanding a Gaussian sample file
    samples = tmp_path / "samples.csv"
    rows = ["r,theta,re,im"]
    rng = np.random.default_rng(5)
    for _ in range(400):
        r = rng.uniform(0.05, 3.5)
        th = rng.uniform(0.0, 2 * math.pi)
        rows.append(f"{r},{th},{math.exp(-r * r):.12g},0.0")
    samples.write_text("\n".join(rows) + "\n")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("window_k = 3\nwindow_m = 6\nn_radial = 40\nn_theta = 64\n")

    assert run_cli("--config", str(cfgfile), "--out", str(out), "spectrum", "expand",
                   "--input", str(samples)) == EXIT_OK
    field_csv = out / "field.csv"

    out_a = tmp_path / "a"
    assert run_cli("--config", str(cfgfile), "--out", str(out_a), "spectrum", "evolve",
                   "--input", str(field_csv), "--mult", "heat", "--t", "0.5") == EXIT_OK
    once = tmp_path / "a" / "field_evolved.csv"
    out_b = tmp_path / "b"
    assert run_cli("--config", str(cfgfile), "--out", str(out_b), "spectrum", "evolve",
                   "--input", str(once), "--mult", "heat", "--t", "0.5") == EXIT_OK
    out_c = tmp_path / "c"
    assert run_cli("--config", str(cfgfile), "--out", str(out_c), "spectrum", "evolve",
                   "--input", str(field_csv), "--mult", "heat", "--t", "1.0") == EXIT_OK

    twice = load_field(tmp_path / "b" / "field_evolved.csv")
    direct = load_field(tmp_path / "c" / "field_evolved.csv")
    assert np.abs(twice.coeffs - direct.coeffs).max() < 1e-14


def test_spectrum_expand_eigenfunction_dominant(tmp_path):
    # sampling a pure mode: the expansion has one dominant coefficient
    from magcone.geometry import ConeConfig
    from magcone.spectrum import radial_profiles

    cfg = ConeConfig(1.0, 1.0, 0.25)
    rng = np.random.default_rng(9)
    rows = ["r,theta,re,im"]
    for _ in range(3000):
        r = float(rng.uniform(0.02, 4.5))
        th = float(rng.uniform(0.0, cfg.period))
        val = radial_profiles(cfg, 1, 0, np.array([r]))[0, 0] * np.exp(1j * th / cfg.sigma)
        rows.append(f"{r},{th},{val.real:.12g},{val.imag:.12g}")
    samples = tmp_path / "mode.csv"
    samples.write_text("\n".join(rows) + "\n")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("window_k = 3\nwindow_m = 3\nn_radial = 40\nn_theta = 64\n")
    out = tmp_path / "out"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "spectrum", "expand",
                   "--input", str(samples)) == EXIT_OK
    field = load_field(out / "field.csv")
    mags = np.abs(field.coeffs)
    ik, im = np.unravel_index(int(np.argmax(mags)), mags.shape)
    assert (ik - field.window.k_max, im) == (1, 0)
    rest = mags.copy()
    rest[ik, im] = 0.0
    assert mags[ik, im] > 5.0 * rest.max()


def test_verify_subordination_cli(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("--json", "--out", str(out), "verify", "subordination")
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["pass"] is True
    assert payload[0]["empirical_constant"] < 1e-10
    assert (out / "subordination.json").exists()
    assert (out / "subordination.csv").exists()


_SMALL_GRIDS = "n_time = 3\nn_radius = 4\nn_angle = 6\n"


def _header(path: Path) -> list:
    return path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")


def test_verify_dispersive_alone_writes_its_table(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(_SMALL_GRIDS)
    out = tmp_path / "o"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "verify", "dispersive") == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["dispersive.csv", "dispersive.json"]
    assert _header(out / "dispersive.csv") == ["t", "rho", "delta", "abs_series"]
    assert len((out / "dispersive.csv").read_text(encoding="utf-8").splitlines()) == 1 + 5 * (7 * 8 // 2) * 11


def test_verify_weighted_alone_writes_one_table_with_its_gamma_column(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(_SMALL_GRIDS)
    out = tmp_path / "o"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "verify", "weighted", "--gamma", "0.1") == EXIT_OK
    capsys.readouterr()
    reports = ("weighted-g0.1", "weighted-g0.1_omega1", "weighted-g0.1_omega2")
    assert sorted(p.name for p in out.glob("*.json")) == [f"{name}.json" for name in reports]
    assert [p.name for p in out.glob("*.csv")] == ["weighted-g0.1.csv"]
    assert _header(out / "weighted-g0.1.csv") == ["t", "rho", "delta", "abs_series", "weighted-g0.1"]
    for omega in reports[1:]:  # the split reports write no CSV
        assert not (out / f"{omega}.csv").exists()


def test_verify_gamma_precondition(tmp_path):
    code = run_cli("--out", str(tmp_path / "o"), "verify", "weighted", "--gamma", "0.9")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("gamma", ["-0.1", "0.9"])
def test_verify_all_rejects_gamma_before_any_sweep(tmp_path, capsys, gamma):
    out = tmp_path / "o"
    code = run_cli("--out", str(out), "verify", "all", "--gamma", gamma)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: gamma={float(gamma)} outside [0, kappa=")
    assert not out.exists()


def test_bad_config_exit(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma = 0.2\n")
    code = run_cli("--config", str(bad), "--out", str(tmp_path / "o"), "spectrum", "table")
    assert code == EXIT_CONFIG


def test_verify_reproducible_outputs(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n_time = 3\nn_radius = 4\nn_angle = 6\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("--config", str(cfgfile), "--out", str(out1), "--seed", "7",
                   "verify", "dispersive") == EXIT_OK
    assert run_cli("--config", str(cfgfile), "--out", str(out2), "--seed", "7",
                   "verify", "dispersive") == EXIT_OK
    for name in ("dispersive.json", "dispersive.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("line", ["window_k = 40.7", "window_k = inf", "window_k = nan",
                                  "b0 = inf", "sigma = nan"])
def test_config_rejects_non_finite_and_fractional_values(tmp_path, capsys, line):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(line + "\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfgfile))
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "table")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.split()[0] in err


def test_config_accepts_integral_float_for_integer_key(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("window_k = 40.0\nn_time = 3e0\n")
    values = parse_config_file(str(cfgfile))
    assert values["window_k"] == 40 and isinstance(values["window_k"], int)
    assert values["n_time"] == 3 and isinstance(values["n_time"], int)


@pytest.mark.parametrize("line", ["k_max = 40", "quad_nodes = 16", "s_max = 30.0"])
def test_config_rejects_retired_kernel_truncation_keys(tmp_path, capsys, line):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(line + "\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "kernel", "heat",
                   "--t", "1.0", "--p", "1.0,0.0", "--q", "1.0,0.5")
    err = _assert_one_line_error(capsys, code)
    assert f"unknown key {line.split()[0]!r}" in err
    assert not (tmp_path / "o" / "kernel.csv").exists()


def test_readme_config_block_matches_parser_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Keys and\s+defaults:\s*```\n(.*?)```", readme, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        for key, text in re.findall(r"(\w+)\s*=\s*(\S+)", line.split("#", 1)[0]):
            documented[key] = text
    assert list(documented) == list(_DEFAULTS)
    for key, text in documented.items():
        default = _DEFAULTS[key]
        assert float(text) == default, key
        assert isinstance(default, int) == ("." not in text), key


def test_verify_empty_sweep_grid_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("n_time = 0\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "verify", "dispersive")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_time=0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _assert_one_line_error(capsys, code, elapsed=None):
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if elapsed is not None:
        assert elapsed < 5.0
    return err


@pytest.mark.parametrize("grid", ["n_radius = 3000", "n_radius = 18", "n_angle = 200000"])
def test_verify_refuses_sweep_grids_past_the_cell_cap(tmp_path, capsys, grid):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(grid + "\n")
    start = time.perf_counter()
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "verify", "all")
    err = _assert_one_line_error(capsys, code, time.perf_counter() - start)
    assert "above the cap" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,extra", [
    ("heat", ["--repr", "both", "--t", "1.0", "--p", "inf,0", "--q", "1.0,0.5"]),
    ("heat", ["--t", "1.0", "--p", "1.0,nan", "--q", "1.0,0.5"]),
    ("schrodinger", ["--t", "inf", "--p", "1.0,0.3", "--q", "0.8,2.1"]),
    ("halfwave", ["--t", "inf", "--p", "1.0,0.3", "--q", "0.8,2.1"]),
    ("heat", ["--t", "nan", "--p", "1.0,0.3", "--q", "0.8,2.1"]),
])
def test_kernel_rejects_non_finite_input(tmp_path, capsys, kind, extra):
    code = run_cli("--out", str(tmp_path / "o"), "kernel", kind, *extra)
    _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o" / "kernel.csv").exists()


@pytest.mark.parametrize("extra", [["--mult", "heat", "--t", "nan"],
                                   ["--mult", "schrodinger", "--t", "inf"],
                                   ["--mult", "fractional", "--nu", "nan"]])
def test_spectrum_evolve_rejects_non_finite_input(tmp_path, capsys, extra):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("k,m,re_c,im_c\n0,0,1.0,0.0\n")
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv), *extra)
    _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o" / "field_evolved.csv").exists()


@pytest.mark.parametrize("row,why", [("0,1,abc,0", "expected integer"),
                                     ("0,1,0.5", "expected integer"),
                                     ("0,1,nan,0", "finite coefficient"),
                                     ("0,-1,0.5,0", "m >= 0"),
                                     ("0,0,0.5,0", "appears twice")])
def test_spectrum_evolve_rejects_bad_coefficient_rows(tmp_path, capsys, row, why):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text(f"k,m,re_c,im_c\n0,0,1.0,0.0\n{row}\n")
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv),
                   "--mult", "heat", "--t", "0.5")
    err = _assert_one_line_error(capsys, code)
    assert f"{field_csv}:3:" in err and why in err
    assert not (tmp_path / "o" / "field_evolved.csv").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "halfwave", "--j", "30", "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"],
    ["kernel", "halfwave", "--j", "600", "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"],
    ["verify", "halfwave", "--j", "30"],
    ["verify", "halfwave", "--j", "600"],
])
def test_halfwave_shell_work_bound(tmp_path, capsys, argv):
    start = time.perf_counter()
    code = run_cli("--out", str(tmp_path / "o"), *argv)
    err = _assert_one_line_error(capsys, code, time.perf_counter() - start)
    assert "modes, above the cap" in err


DEFAULT_PERIOD = 2.0 * math.pi  # the default cone has sigma = 1


def _captured_sample_function(monkeypatch, samples):
    """The sample lookup that _expand_samples hands to expand, on the default cone."""
    from magcone import cli

    rc = cli.build_run_config(cli.build_parser().parse_args(["spectrum", "expand"]))
    captured = {}
    monkeypatch.setattr(cli, "expand", lambda f, *args: captured.setdefault("f", f))
    cli._expand_samples(np.asarray(samples, dtype=float), rc)
    assert rc.cone.period == DEFAULT_PERIOD
    return captured["f"]


def test_expand_samples_wraps_theta(monkeypatch):
    """A sample just below the period is the nearest one to the node at theta = 0."""
    f = _captured_sample_function(monkeypatch, [[1.0, DEFAULT_PERIOD - 1e-6, 1.0, 0.0],
                                                [1.0, 0.5, 2.0, 0.0],
                                                [2.0, DEFAULT_PERIOD + 1.0, 4.0, 0.0]])
    # without the wrap the sample at theta = 0.5 would be nearest to theta = 0
    got = f(np.array([[1.0], [2.0]]), np.array([[0.0, 1.0]]))
    assert got.shape == (2, 2)
    assert got[0, 0] == 1.0
    assert got[1, 1] == 4.0  # theta = period + 1 is canonicalized to 1
    assert f(np.array([1.0]), np.array([0.3]))[0] == 2.0


def test_expand_samples_canonicalize_negative_zero_side(monkeypatch):
    # np.mod(-1e-20, period) rounds to the period itself, outside the tree's box
    f = _captured_sample_function(monkeypatch, [[1.0, -1e-20, 3.0, 0.0],
                                                [1.0, 3.0, 5.0, 0.0]])
    assert f(np.array([1.0]), np.array([0.0]))[0] == 3.0
    assert f(np.array([1.0]), np.array([DEFAULT_PERIOD - 0.1]))[0] == 3.0


def test_expand_rejects_non_finite_samples(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("r,theta,re,im\n1.0,0.5,1.0,0.0\nnan,0.1,1.0,0.0\n")
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "expand", "--input", str(samples))
    _assert_one_line_error(capsys, code)


@pytest.mark.parametrize("cone,k_used", [("", 40), ("sigma = 1.5\nalpha = 0.4\n", 56),
                                         ("sigma = 2.0\nb0 = 0.5\nalpha = 0.3\n", 136)])
def test_halfwave_csv_records_the_shell_window(tmp_path, cone, k_used):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(cone)
    out = tmp_path / "o"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "kernel", "halfwave", "--j", "2",
                   "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1") == EXIT_OK
    header, row = (out / "kernel.csv").read_text().splitlines()
    assert header.endswith(",k_max_used") and row.split(",")[-1] == str(k_used)


@pytest.mark.parametrize("kind", ["heat", "schrodinger"])
@pytest.mark.parametrize("rep,window_k,k_used", [("spectral", None, 24), ("spectral", 7, 7), ("series", 7, 40)])
def test_kernel_csv_records_the_k_range_it_summed(tmp_path, kind, rep, window_k, k_used):
    # the spectral kernel sums the config window; the series starts from |k| <= 40 and extends from there
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("" if window_k is None else f"window_k = {window_k}\nwindow_m = 5\n")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "kernel", kind, "--repr", rep,
                   "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1") == EXIT_OK
    header, row = (out / "kernel.csv").read_text().splitlines()
    assert header.endswith(",k_max_used") and row.split(",")[-1] == str(k_used)


@pytest.mark.parametrize("j", ["1100", "-1100"])
def test_spectrum_evolve_halfwave_at_extreme_shell(tmp_path, j):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("k,m,re_c,im_c\n0,0,1.0,0.0\n1,2,0.5,-0.25\n-3,1,0.2,0.1\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("--out", str(out), "spectrum", "evolve", "--input", str(field_csv),
                       "--mult", "halfwave", f"--j={j}", "--t", "0.7")
    assert code == EXIT_OK
    assert np.array_equal(load_field(out / "field_evolved.csv").coeffs, np.zeros((7, 3)))


@pytest.mark.parametrize("sizes,why", [("n_radial = 0", "n_radial=0"), ("n_radial = -3", "n_radial=-3"),
                                       ("n_theta = 0", "n_theta=0"),
                                       ("n_radial = 4096\nn_theta = 2048", "n_radial * n_theta <= 4194304")])
def test_spectrum_expand_rejects_bad_quadrature_sizes(tmp_path, capsys, sizes, why):
    samples = tmp_path / "s.csv"
    samples.write_text("r,theta,re,im\n1.0,0.5,1.0,0.0\n")
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(sizes + "\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "expand",
                   "--input", str(samples))
    assert why in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cone,j", [("", "-3"), ("", "-1"), ("b0 = 16.0", "0")])
def test_verify_halfwave_rejects_a_shell_without_modes(tmp_path, capsys, cone, j):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(cone + "\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "verify", "halfwave", f"--j={j}")
    assert "holds no mode" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cone,j", [("", "-3"), ("b0 = 16.0", "0")])
def test_kernel_halfwave_rejects_a_shell_without_modes(tmp_path, capsys, cone, j):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(cone + "\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "kernel", "halfwave", f"--j={j}",
                   "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1")
    assert "holds no mode" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def test_verify_halfwave_runs_the_lowest_shell_with_modes(tmp_path):
    # b0 = 1: shell j = 0 reaches eigenvalue 4 and holds the levels 1 and 3
    code = run_cli("--out", str(tmp_path / "o"), "verify", "halfwave", "--j=0")
    assert code in (EXIT_OK, EXIT_FAILED_SWEEP)
    assert math.isfinite(json.loads((tmp_path / "o" / "halfwave.json").read_text())["empirical_constant"])


def test_spectrum_evolve_rejects_a_field_file_past_the_window_cap(tmp_path, capsys):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("k,m,re_c,im_c\n0,0,1.0,0.0\n1500,1500,0.5,0.0\n")
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv),
                   "--mult", "heat", "--t", "0.5")
    assert "4504501 modes, above the cap of 4194304" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def test_config_window_past_the_cap_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("window_k = 1500\nwindow_m = 1500\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "table")
    assert "above the cap" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def _two_gb_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))


def test_closed_form_near_an_image_boundary_exits_4_within_2_gb(tmp_path):
    """The angle sits 0.0053 from an image boundary, so the contour walk keeps splitting; the node cap ends it.

    It runs in a child under a 2 GB address-space limit, which a walk without
    a bound on its integrand calls would exhaust.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 2.0\nb0 = 0.5\nalpha = 0.3\n")
    out = tmp_path / "out"
    res = subprocess.run(
        [sys.executable, "-m", "magcone.cli", "--config", str(cfg), "--out", str(out), "kernel", "schrodinger",
         "--repr", "closed", "--t", "1.0312671706753567", "--p", "1.4461387716534395,8.651054454871568",
         "--q", "0.981527638804235,11.271676479409948"],
        capture_output=True, text=True, timeout=300, preexec_fn=_two_gb_address_space)
    assert res.returncode == 4, res.stderr
    assert res.stderr.count("\n") == 1 and "nodes" in res.stderr
    assert not out.exists()
