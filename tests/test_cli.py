import csv
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
from magcone.geometry import ConeConfig
from magcone.spectrum import ModeWindow, QuadratureSpec, load_field, random_field, save_field


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
    """`--repr both` writes a series row, then a closed row, under the one 9-column header.

    The relative difference goes to stdout and to the JSON payload, not to the CSV.
    """
    out = tmp_path / "out"
    argv = ["--out", str(out), "kernel", "heat", "--repr", "both", "--t", "1.0", "--p", "1.0,0.0", "--q", "1.0,0.5"]
    assert run_cli("--json", *argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_difference"] < 1e-8
    header, *rows = (out / "kernel.csv").read_text().splitlines()
    assert header == "t,r1,th1,r2,th2,re,im,largest_term,k_max_used"
    assert len(rows) == 2
    for row, name in zip(rows, ("series", "closed")):
        cells = [float(cell) for cell in row.split(",")]
        value = payload["values"][name]
        k_used = 40.0 if name == "series" else 0.0  # the series' range here; the closed form sums no mode
        assert cells == [1.0, 1.0, 0.0, 1.0, 0.5, value["re"], value["im"], value["largest_term"], k_used], name
    assert run_cli(*argv) == EXIT_OK
    text = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in text] == ["heat series", "heat closed", "series/closed relative difference"]
    assert text[2].split(": ")[1] == f"{payload['relative_difference']:.3e}"


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


@pytest.mark.parametrize("gamma", [None, "0.1"])
def test_verify_weighted_alone_writes_the_family_table(tmp_path, capsys, gamma):
    """`verify weighted` reports dispersive first and writes the family's one table as dispersive.csv.

    It runs at the default grids, where every report saturates (on the small
    test grids weighted-g0/omega2 does not).
    """
    out = tmp_path / "o"
    code = run_cli("--json", "--out", str(out), "verify", "weighted", *(("--gamma", gamma) if gamma else ()))
    summary = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and all(rep["pass"] for rep in summary)
    names = ["weighted-g0.1"] if gamma else ["weighted-g0", "weighted-g0.125", "weighted-g0.25"]
    reports = ["dispersive", *(name + suffix for name in names for suffix in ("", "/omega1", "/omega2"))]
    assert [rep["name"] for rep in summary] == reports
    assert sorted(p.name for p in out.glob("*.json")) == sorted(f"{n.replace('/', '_')}.json" for n in reports)
    assert [p.name for p in out.glob("*.csv")] == ["dispersive.csv"]
    assert _header(out / "dispersive.csv") == ["t", "rho", "delta", "abs_series", *names]
    assert not list(out.glob("weighted-g*.csv"))


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
                                  "b0 = inf", "sigma = nan", "alpha = abc"])
def test_config_rejects_non_finite_and_fractional_values(tmp_path, capsys, line):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(line + "\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfgfile))
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "table")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.split()[0] in err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("argv", [
    ["kernel", "halfwave", "--j", "600", "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"],
    ["verify", "halfwave", "--j", "600"],
])
def test_halfwave_shell_past_the_float_range_exits_2(tmp_path, capsys, argv):
    """At b0 = 1e308 shell 600 passes the mode cap, but its edge 4^601 is past the float range."""
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("b0 = 1e308\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), *argv)
    assert "2^1202, past the float range" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


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
@pytest.mark.parametrize("rep,window_k,k_used", [("spectral", None, 24), ("spectral", 7, 7), ("series", 7, 40),
                                                 ("closed", None, 0)])
def test_kernel_csv_records_the_k_range_it_summed(tmp_path, kind, rep, window_k, k_used):
    # the spectral kernel sums the config window, the series the largest |k| of its adaptive range (here
    # its starting range |k| <= 40, whatever the window) and the closed form no angular mode
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("" if window_k is None else f"window_k = {window_k}\nwindow_m = 5\n")
    out = tmp_path / "o"
    assert run_cli("--config", str(cfgfile), "--out", str(out), "kernel", kind, "--repr", rep,
                   "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1") == EXIT_OK
    header, row = (out / "kernel.csv").read_text().splitlines()
    assert header.endswith(",k_max_used") and row.split(",")[-1] == str(k_used)


@pytest.mark.parametrize("kind,k_used", [("heat", 72), ("schrodinger", 88)])
def test_kernel_csv_records_a_series_range_past_its_start(tmp_path, kind, k_used):
    """Here the series extends past |k| <= 40 (heat to k in [-72, 56], Schrodinger to [-88, 88]); the closed form sums none."""
    out = tmp_path / "o"
    assert run_cli("--out", str(out), "kernel", kind, "--repr", "both",
                   "--t", "0.1", "--p", "3.0,0.3", "--q", "3.0,1.0") == EXIT_OK
    rows = (out / "kernel.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [str(k_used), "0"]


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


def _kernel_in_a_2_gb_child(tmp_path, config: str, *args):
    """`magcone kernel ...` in a child process under a 2 GB address-space limit, writing to tmp_path/out."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    return subprocess.run(
        [sys.executable, "-m", "magcone.cli", "--config", str(cfg), "--out", str(tmp_path / "out"), "kernel", *args],
        capture_output=True, text=True, timeout=300, preexec_fn=_two_gb_address_space)


def test_schrodinger_closed_form_near_an_image_boundary_matches_the_series_within_2_gb(tmp_path):
    """The angle sits 0.0053 from an image boundary: the closed form converges, under a 2 GB limit, to the series."""
    point = ("--t", "1.0312671706753567", "--p", "1.4461387716534395,8.651054454871568",
             "--q", "0.981527638804235,11.271676479409948")
    for rep in ("closed", "series"):
        res = _kernel_in_a_2_gb_child(tmp_path, "sigma = 2.0\nb0 = 0.5\nalpha = 0.3\n",
                                      "schrodinger", "--repr", rep, *point)
        assert res.returncode == 0, res.stderr
    closed, series = [complex(float(row["re"]), float(row["im"]))
                      for row in csv.DictReader((tmp_path / "out" / "kernel.csv").open())]
    assert abs(closed - series) <= 1e-6 * abs(series)


def test_contour_that_keeps_splitting_exits_4_within_2_gb(tmp_path):
    """A heat angle 1e-6 from an image boundary: the walk keeps splitting until the node cap ends it.

    It runs in a child under a 2 GB address-space limit, which a walk without
    a bound on its integrand calls would exhaust.
    """
    res = _kernel_in_a_2_gb_child(tmp_path, "sigma = 1.0\nb0 = 1.0\nalpha = 0.25\n", "heat", "--repr", "closed",
                                  "--t", "0.5", "--p", "1.0,3.1415916535897933", "--q", "1.2,0.0")
    assert res.returncode == 4, res.stderr
    assert res.stderr.count("\n") == 1 and "nodes" in res.stderr
    assert not (tmp_path / "out").exists()


def _readme_commands() -> list:
    """The `magcone ...` lines of README's "Command line" block, the synopsis line excepted."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("magcone ") and "<command>" not in line]


def test_readme_command_block_is_read():
    commands = _readme_commands()
    assert len(commands) >= 8
    assert {line.split()[1] for line in commands} == {"kernel", "spectrum", "verify"}


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_exits_0(tmp_path, monkeypatch, capsys, line):
    """Each documented command runs at the default config in a directory holding its input files."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    samples = np.column_stack([rng.uniform(0.1, 3.0, 30), rng.uniform(0.0, 6.0, 30), rng.normal(size=(30, 2))])
    Path("samples.csv").write_text("r,theta,re,im\n" + "".join(",".join(map(repr, row)) + "\n"
                                                               for row in samples.tolist()))
    cone = ConeConfig(_DEFAULTS["sigma"], _DEFAULTS["b0"], _DEFAULTS["alpha"])
    save_field(random_field(ModeWindow(4, 4), rng), cone, QuadratureSpec(), "field.csv")
    assert main(line.split()[1:]) == EXIT_OK, capsys.readouterr().err
    assert capsys.readouterr().out


def test_negative_seed_flag_exits_2_and_writes_nothing(tmp_path, capsys):
    code = run_cli("--seed", "-1", "--out", str(tmp_path / "o"), "verify", "energy")
    assert "--seed must be >= 0" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def test_negative_seed_in_config_exits_2_and_writes_nothing(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("seed = -3\n")
    code = run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "verify", "all")
    assert f"{cfgfile}:1: seed must be >= 0" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def _saved_field(tmp_path, cone: ConeConfig) -> Path:
    field_csv = tmp_path / "saved" / "field.csv"
    field_csv.parent.mkdir()
    save_field(random_field(ModeWindow(3, 3), np.random.default_rng(4)), cone, QuadratureSpec(), field_csv)
    return field_csv


def test_spectrum_evolve_refuses_a_field_saved_on_another_cone(tmp_path, capsys):
    field_csv = _saved_field(tmp_path, ConeConfig(2.0, 0.5, 0.3))
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv), "--t", "0.5")
    assert "was saved on the cone sigma=2.0, b0=0.5, alpha=0.3" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("sigma = 2.0\nb0 = 0.5\nalpha = 0.3\n")
    assert run_cli("--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "evolve",
                   "--input", str(field_csv), "--t", "0.5") == EXIT_OK
    sidecar = json.loads((tmp_path / "o" / "field_evolved.json").read_text())
    assert sidecar["cone"] == {"sigma": 2.0, "b0": 0.5, "alpha": 0.3}


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"window": {}}', '{"cone": {"sigma": 1.0}}', '{"cone": 3}'])
def test_spectrum_evolve_refuses_a_malformed_sidecar(tmp_path, capsys, text):
    field_csv = _saved_field(tmp_path, ConeConfig(1.0, 1.0, 0.25))
    field_csv.with_suffix(".json").write_text(text)
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv), "--t", "0.5")
    assert "not a field sidecar with a cone" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def test_spectrum_evolve_takes_a_field_without_sidecar_on_the_config_cone(tmp_path):
    field_csv = _saved_field(tmp_path, ConeConfig(2.0, 0.5, 0.3))
    field_csv.with_suffix(".json").unlink()
    assert run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv),
                   "--t", "0.5") == EXIT_OK
    assert json.loads((tmp_path / "o" / "field_evolved.json").read_text())["cone"]["sigma"] == 1.0


@pytest.mark.parametrize("rep", ["series", "closed", "both"])
def test_kernel_halfwave_refuses_a_non_spectral_repr(tmp_path, capsys, rep):
    code = run_cli("--out", str(tmp_path / "o"), "kernel", "halfwave", "--repr", rep,
                   "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1")
    assert f"kernel halfwave has no --repr {rep}" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,rep,default", [("halfwave", "spectral", "spectral"), ("heat", "series", "series"),
                                              ("schrodinger", "series", "series")])
def test_kernel_repr_default_depends_on_the_kind(tmp_path, capsys, kind, rep, default):
    point = ["--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"]
    assert run_cli("--json", "--out", str(tmp_path / "a"), "kernel", kind, *point) == EXIT_OK
    unset = json.loads(capsys.readouterr().out)
    assert run_cli("--json", "--out", str(tmp_path / "b"), "kernel", kind, "--repr", rep, *point) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == unset and list(unset["values"]) == [default]
    assert (tmp_path / "a" / "kernel.csv").read_bytes() == (tmp_path / "b" / "kernel.csv").read_bytes()


@pytest.mark.parametrize("action", ["expand", "evolve"])
def test_spectrum_expand_and_evolve_need_an_input(tmp_path, capsys, action):
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", action, "--t", "0.5")
    assert f"spectrum {action} needs --input" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,why", [("r,theta,re,im\n1.0,0.5,1.0\n", ":2: expected r,theta,re,im"),
                                      ("r,theta,re,im\n1.0,abc,1.0,0.0\n", ":2: bad number"),
                                      ("", ": empty sample file")],
                         ids=["three-cells", "non-numeric", "empty"])
def test_expand_refuses_a_malformed_samples_file(tmp_path, capsys, text, why):
    samples = tmp_path / "s.csv"
    samples.write_text(text)
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "expand", "--input", str(samples))
    assert f"{samples}{why}" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,why", [("k,m,re,im\n0,0,1.0,0.0\n", "not a spectral-field CSV (bad header)"),
                                      ("", "not a spectral-field CSV (bad header)"),
                                      ("k,m,re_c,im_c\n", "empty coefficient table")],
                         ids=["bad-header", "empty", "no-rows"])
def test_spectrum_evolve_refuses_a_field_file_without_a_table(tmp_path, capsys, text, why):
    field_csv = tmp_path / "field.csv"
    field_csv.write_text(text)
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(field_csv), "--t", "0.5")
    assert f"{field_csv}: {why}" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()


def test_expand_refuses_a_negative_sample_radius(tmp_path, capsys):
    samples = tmp_path / "s.csv"
    samples.write_text("r,theta,re,im\n1.0,0.5,1.0,0.0\n-0.2,0.1,1.0,0.0\n")
    code = run_cli("--out", str(tmp_path / "o"), "spectrum", "expand", "--input", str(samples))
    assert f"{samples}:3: sample radius r must be >= 0" in _assert_one_line_error(capsys, code)
    assert not (tmp_path / "o").exists()
