"""spectrum.write_csv, the one writer of every table magcone writes.

The oracles below are the per-row writers it replaced, statement for
statement: ``save_field``, the ``spectrum table`` loop and the ``kernel``
row (``tests/test_verify_columnar.py`` keeps the sweep reports' oracle).
Every table the writer produces must agree with them byte for byte; a
non-finite cell exits 4 and creates or appends nothing; the writer's memory
does not grow with the table; and ``%.17g`` formatting lives in one function
of the package.
"""

import ast
import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import magcone
from magcone import cli, lpbesov, spectrum
from magcone.errors import DomainError, NonconvergenceError
from magcone.geometry import ConeConfig
from magcone.spectrum import (
    ModeWindow,
    QuadratureSpec,
    SpectralField,
    eigenvalue_table,
    heat_multiplier,
    load_field,
    log_norm_sq,
    mode_rows,
    random_field,
    save_field,
    write_csv,
)

PACKAGE = Path(magcone.__file__).resolve().parent
CFG = ConeConfig(1.0, 1.0, 0.25)


# ---------------------------------------------------------------------------
# oracles: the earlier per-row writers, verbatim
# ---------------------------------------------------------------------------

_CSV_HEADER = "k,m,re_c,im_c"


def oracle_save_field(field: SpectralField, cfg: ConeConfig, quad: QuadratureSpec, csv_path) -> None:
    csv_path = Path(csv_path)
    lines = [_CSV_HEADER]
    for ik, k in enumerate(field.window.k_values):
        for im, m in enumerate(field.window.m_values):
            c = field.coeffs[ik, im]
            lines.append(f"{int(k)},{int(m)},{c.real:.17g},{c.imag:.17g}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    header = {
        "window": {"k_max": field.window.k_max, "m_max": field.window.m_max},
        "cone": {"sigma": cfg.sigma, "b0": cfg.b0, "alpha": cfg.alpha},
        "quadrature": {"n_radial": quad.n_radial, "n_theta": quad.n_theta},
    }
    csv_path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True, indent=2) + "\n",
                                             encoding="utf-8")


def oracle_table_lines(window: ModeWindow, lam: np.ndarray, nsq_of_k) -> list[str]:
    """The ``spectrum table`` loop; nsq_of_k(ik, k) stands for its per-k norm row."""
    lines = ["k,m,lambda,norm_sq"]
    for ik, k in enumerate(window.k_values):
        nsq = nsq_of_k(ik, k)
        for im, m in enumerate(window.m_values):
            lines.append(f"{int(k)},{int(m)},{lam[ik, im]:.17g},{nsq[im]:.17g}")
    return lines


def oracle_spectrum_table(cfg: ConeConfig, window: ModeWindow) -> str:
    lam = eigenvalue_table(cfg, window)
    lines = oracle_table_lines(window, lam, lambda ik, k: np.exp(log_norm_sq(cfg, int(k), window.m_values)))
    return "\n".join(lines) + "\n"


_KERNEL_CSV_HEADER = "t,r1,th1,r2,th2,re,im,largest_term,k_max_used"


def oracle_kernel_rows(csv_path: Path, t, p, q, results: dict, k_used: list) -> None:
    """The kernel command's rows, one per result, with the k_max_used of each."""
    new_file = not csv_path.exists()
    with csv_path.open("a", encoding="utf-8") as fh:
        if new_file:
            fh.write(_KERNEL_CSV_HEADER + "\n")
        for (val, largest), k in zip(results.values(), k_used):
            fh.write(f"{t:.17g},{p.r:.17g},{p.theta:.17g},{q.r:.17g},{q.theta:.17g},"
                     f"{val.real:.17g},{val.imag:.17g},{largest:.17g},{k}\n")


# ---------------------------------------------------------------------------
# bytes: equal to the oracles
# ---------------------------------------------------------------------------

def _float_bits(sign: int, exponent: int, mantissa: int) -> float:
    return float(np.array([sign << 63 | exponent << 52 | mantissa], dtype=np.uint64).view(float)[0])


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(_float_bits, st.integers(0, 1), st.just(0), st.integers(1, (1 << 52) - 1)),  # subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, 3.0]),
)
_WINDOWS = st.builds(ModeWindow, st.integers(0, 4), st.integers(0, 5))


def _table(data, window: ModeWindow) -> np.ndarray:
    n = math.prod(window.shape)
    return np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)), dtype=float).reshape(window.shape)


@settings(max_examples=60, deadline=None)
@given(window=_WINDOWS, data=st.data())
def test_save_field_matches_the_per_row_writer(tmp_path_factory, window, data):
    field = SpectralField(window, _table(data, window) + 1j * _table(data, window))
    out = tmp_path_factory.mktemp("f")
    oracle_save_field(field, CFG, QuadratureSpec(), out / "old.csv")
    save_field(field, CFG, QuadratureSpec(), out / "new.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
    assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()


@settings(max_examples=60, deadline=None)
@given(window=_WINDOWS, data=st.data())
def test_mode_table_matches_the_table_loop(tmp_path_factory, window, data):
    lam, nsq = _table(data, window), _table(data, window)
    path = write_csv(tmp_path_factory.mktemp("t") / "t.csv", ("k", "m", "lambda", "norm_sq"),
                     mode_rows(window, lam, nsq), "table")
    lines = oracle_table_lines(window, lam, lambda ik, k: nsq[ik])
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.lists(_FINITE, min_size=9, max_size=9), min_size=1, max_size=2),
       k_used=st.integers(0, 1 << 22))
def test_kernel_rows_match_the_per_row_writer(tmp_path_factory, cells, k_used):
    out = tmp_path_factory.mktemp("k")
    t, r1, th1, r2, th2 = cells[0][:5]
    p, q = SimpleNamespace(r=r1, theta=th1), SimpleNamespace(r=r2, theta=th2)
    results = {i: (complex(row[5], row[6]), row[7]) for i, row in enumerate(cells)}
    rows = [(t, p.r, p.theta, q.r, q.theta, val.real, val.imag, largest, k_used)
            for val, largest in results.values()]
    for _ in range(2):  # a new file, then rows appended under its header
        oracle_kernel_rows(out / "old.csv", t, p, q, results, [k_used] * len(results))
        write_csv(out / "new.csv", cli._KERNEL_CSV_HEADER, rows, "kernel", append=True)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@pytest.mark.parametrize("cone", ["", "sigma = 1.5\nalpha = 0.4\n", "sigma = 2.0\nb0 = 0.5\nalpha = 0.3\n"])
def test_spectrum_table_matches_the_table_loop(tmp_path, cone):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(cone + "window_k = 30\nwindow_m = 20\n")
    assert cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "table"]) == 0
    cfg = cli.build_run_config(cli.build_parser().parse_args(["--config", str(cfgfile), "spectrum", "table"]))
    expected = oracle_spectrum_table(cfg.cone, cfg.window)
    assert (tmp_path / "o" / "spectrum_table.csv").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("argv", [
    ["heat", "--repr", "both", "--t", "0.7"],
    ["schrodinger", "--repr", "series", "--t", "0.7"],
    ["halfwave", "--j", "2", "--t", "0.5"],
])
def test_kernel_rows_match_the_printed_values(tmp_path, capsys, argv):
    out = tmp_path / "o"
    for _ in range(2):
        assert cli.main(["--json", "--out", str(out), "kernel", *argv, "--p", "1.0,0.3", "--q", "0.8,2.1"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    p, q = (SimpleNamespace(r=r, theta=theta) for r, theta in (payload["p"], payload["q"]))
    names = ["series", "closed"] if "both" in argv else list(payload["values"])  # the rows' order
    results = {name: (complex(payload["values"][name]["re"], payload["values"][name]["im"]),
                      payload["values"][name]["largest_term"]) for name in names}
    k_used = [int(row.split(",")[-1]) for row in (out / "kernel.csv").read_text().splitlines()[-len(names):]]
    for _ in range(2):
        oracle_kernel_rows(tmp_path / "old.csv", payload["t"], p, q, results, k_used)
    assert (out / "kernel.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_blocks_join_to_one_body(tmp_path, monkeypatch):
    rows = np.random.default_rng(3).normal(size=(51, 3))
    rows[::7] = 0.25  # values repeated across blocks
    whole = write_csv(tmp_path / "whole.csv", ("a", "b", "c"), rows, "t").read_bytes()
    monkeypatch.setattr(spectrum, "_CSV_BLOCK_CELLS", 7)  # two rows a block, one trailing
    assert write_csv(tmp_path / "blocks.csv", ("a", "b", "c"), rows, "t").read_bytes() == whole
    assert whole == ("a,b,c\n" + spectrum._csv_body(rows)).encode()


# ---------------------------------------------------------------------------
# refusal: a non-finite cell exits 4 and writes nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("append", [False, True])
def test_write_csv_refuses_a_non_finite_cell_before_creating_anything(tmp_path, bad, append):
    rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, bad]])
    with pytest.raises(NonconvergenceError, match=r"^table x: non-finite value in CSV column 'c'$"):
        write_csv(tmp_path / "d" / "t.csv", ("a", "b", "c"), rows, "table x", append=append)
    assert not (tmp_path / "d").exists()


def test_write_csv_refusal_leaves_an_existing_file_alone(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0, 2.0)], "t")
    before = path.read_bytes()
    for append in (False, True):
        with pytest.raises(NonconvergenceError, match="'a'"):
            write_csv(path, ("a", "b"), [(math.nan, 2.0)], "t", append=append)
    assert path.read_bytes() == before == b"a,b\n1,2\n"


def _exit_4_naming(capsys, code, column):
    assert code == cli.EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"non-finite value in CSV column {column!r}" in err


def _two_mode_field(tmp_path):
    field_csv = tmp_path / "f.csv"
    field_csv.write_text("k,m,re_c,im_c\n0,0,1.0,0.0\n2,3,0.5,-0.25\n")
    return field_csv


def _exit_2_naming(capsys, code, what):
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and what in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evolve_to_nan_coefficients_exits_4(tmp_path, capsys):
    # the Schrodinger phase t lam overflows, so the multiplier refuses it before the writer sees a NaN
    code = cli.main(["--out", str(tmp_path / "o"), "spectrum", "evolve", "--input", str(_two_mode_field(tmp_path)),
                     "--mult", "schrodinger", "--t", "1e308"])
    _exit_2_naming(capsys, code, "spectral multiplier schrodinger_multiplier: phase up to inf is not below its limit")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["spectrum", "evolve", "--mult", "heat", "--t", "-800"],
                                  ["kernel", "heat", "--repr", "spectral", "--p", "1,0.3", "--q", "0.8,2.1",
                                   "--t", "-200"]])
def test_negative_heat_time_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, argv):
    if argv[0] == "spectrum":
        argv = argv + ["--input", str(_two_mode_field(tmp_path))]
    assert cli.main(["--out", str(tmp_path / "o"), *argv]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "heat multiplier needs t >= 0" in err
    assert not (tmp_path / "o").exists()


def test_heat_multiplier_at_t_zero_is_the_identity():
    lam = np.array([1.5, 700.0, 1e300])
    assert np.array_equal(heat_multiplier(0.0)(lam), np.ones(3))
    with pytest.raises(DomainError, match="t >= 0"):
        heat_multiplier(-1e-300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_table_with_overflowing_norms_exits_4(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("window_k = 300\nwindow_m = 2\n")
    code = cli.main(["--config", str(cfgfile), "--out", str(tmp_path / "o"), "spectrum", "table"])
    _exit_4_naming(capsys, code, "norm_sq")
    assert not (tmp_path / "o").exists()
    window = ModeWindow(300, 2)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(log_norm_sq(CFG, window.k_values[:, None], window.m_values))).sum() == 897


_INF_PHASE = "schrodinger_multiplier: phase up to inf is not below its limit 2^29"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_kernel_row_exits_4_and_appends_nothing(tmp_path, capsys):
    # the overflowing Schrodinger phase is refused (exit 2) before a NaN row reaches the writer
    out = tmp_path / "o"
    argv = ["kernel", "schrodinger", "--repr", "spectral", "--p", "1,0.3", "--q", "0.8,2.1"]
    _exit_2_naming(capsys, cli.main(["--out", str(out), *argv, "--t", "1e308"]), _INF_PHASE)
    assert not out.exists()
    assert cli.main(["--out", str(out), *argv, "--t", "0.5"]) == cli.EXIT_OK
    before = (out / "kernel.csv").read_bytes()
    capsys.readouterr()
    _exit_2_naming(capsys, cli.main(["--out", str(out), *argv, "--t", "1e308"]), _INF_PHASE)
    assert (out / "kernel.csv").read_bytes() == before


_POINTS = ["--p", "1,0.3", "--q", "0.8,2.1"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,what", [
    (["spectrum", "evolve", "--mult", "fractional", "--nu", "1000", "--t", "1"],
     "fractional_flow_multiplier: phase up to inf"),
    (["spectrum", "evolve", "--mult", "halfwave", "--j", "1", "--t", "1e308"], "_halfwave_multiplier: phase up to inf"),
    (["kernel", "halfwave", "--j", "1", *_POINTS, "--t", "1e308"], "halfwave_kernel_grid: phase up to inf"),
], ids=["evolve-fractional", "evolve-halfwave", "kernel-halfwave"])
def test_overflowing_phase_exits_2_with_one_line_and_writes_nothing(tmp_path, capsys, argv, what):
    """Each phase overflows the float range, and numpy's warning is an error here, so none may be raised.

    The Schrodinger phase is the case of test_evolve_to_nan_coefficients_exits_4
    and test_nan_kernel_row_exits_4_and_appends_nothing.
    """
    out = tmp_path / "o"
    if argv[0] == "spectrum":
        argv = argv + ["--input", str(_two_mode_field(tmp_path))]
    _exit_2_naming(capsys, cli.main(["--out", str(out), *argv]), what)
    assert not out.exists()
    if argv[0] == "kernel":  # an existing kernel.csv is left as it was
        assert cli.main(["--out", str(out), *argv[:-1], "0.5"]) == cli.EXIT_OK
        before = (out / "kernel.csv").read_bytes()
        capsys.readouterr()
        _exit_2_naming(capsys, cli.main(["--out", str(out), *argv]), what)
        assert (out / "kernel.csv").read_bytes() == before


def test_halfwave_evolve_forms_no_phase_off_its_shell(tmp_path):
    """Shell j = 5 holds no mode of the two-mode field's window, so no phase is formed and t = 1e308 gives zeros."""
    out = tmp_path / "o"
    assert cli.main(["--out", str(out), "spectrum", "evolve", "--input", str(_two_mode_field(tmp_path)),
                     "--mult", "halfwave", "--j", "5", "--t", "1e308"]) == cli.EXIT_OK
    assert not load_field(out / "field_evolved.csv").coeffs.any()


_PAST_LIMIT = "is not below its limit 2^29"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,what", [
    (["kernel", "schrodinger", "--repr", "spectral", *_POINTS, "--t", "1e300"], "schrodinger_multiplier"),
    (["kernel", "schrodinger", "--repr", "series", *_POINTS, "--t", "1e300"], "Schrodinger kernel"),
    (["kernel", "schrodinger", "--repr", "closed", *_POINTS, "--t", "1e300"], "Schrodinger kernel"),
    (["spectrum", "evolve", "--mult", "schrodinger", "--t", "1e300"], "schrodinger_multiplier"),
    (["spectrum", "evolve", "--mult", "fractional", "--nu", "2", "--t", "1e300"], "fractional_flow_multiplier"),
    (["spectrum", "evolve", "--mult", "halfwave", "--j", "2", "--t", "1e300"], "_halfwave_multiplier"),
    (["kernel", "halfwave", "--j", "1", *_POINTS, "--t", "1e300"], "halfwave_kernel_grid"),
], ids=["kernel-schrodinger", "kernel-schrodinger-series", "kernel-schrodinger-closed", "evolve-schrodinger",
        "evolve-fractional", "evolve-halfwave", "kernel-halfwave"])
def test_phase_without_a_significant_digit_exits_2_and_writes_nothing(tmp_path, capsys, argv, what):
    """Every phase is finite at t = 1e300 and past its limit: exit 2, one line, nothing written."""
    out = tmp_path / "o"
    if argv[0] == "spectrum":
        argv = argv + ["--input", str(_two_mode_field(tmp_path))]
    _exit_2_naming(capsys, cli.main(["--out", str(out), *argv]), f"{what}: phase up to")
    assert not out.exists()


def _times_around_the_phase_limit(lam_max, limit=spectrum._PHASE_LIMIT):
    """The largest t with t lam_max below limit and the next float up, which reaches it."""
    below = limit / lam_max
    while below * lam_max >= limit:
        below = math.nextafter(below, 0.0)
    while math.nextafter(below, math.inf) * lam_max < limit:
        below = math.nextafter(below, math.inf)
    return below, math.nextafter(below, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_schrodinger_kernel_just_below_the_phase_limit_runs(tmp_path, capsys):
    """kernel schrodinger --repr spectral at the default window: exit 0 below 2^29, exit 2 at the next float."""
    lam_max = float(eigenvalue_table(CFG, ModeWindow(24, 24)).max())
    below, above = _times_around_the_phase_limit(lam_max)
    out = tmp_path / "o"
    argv = ["--json", "--out", str(out), "kernel", "schrodinger", "--repr", "spectral", *_POINTS]
    assert cli.main([*argv, "--t", repr(below)]) == cli.EXIT_OK
    value = json.loads(capsys.readouterr().out)["values"]["spectral"]
    assert math.isfinite(value["re"]) and math.isfinite(value["im"])
    before = (out / "kernel.csv").read_bytes()
    _exit_2_naming(capsys, cli.main([*argv, "--t", repr(above)]), _PAST_LIMIT)
    assert (out / "kernel.csv").read_bytes() == before


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_halfwave_kernel_just_below_the_phase_limit_runs(tmp_path, capsys):
    """kernel halfwave --j 1: exit 0 below 2^29 on the modes of nonzero shell weight, exit 2 at the next float."""
    lam = eigenvalue_table(CFG, lpbesov.shell_window(1, CFG))  # the window the CLI uses
    sq_max = float(np.sqrt(lam[lpbesov.make_cutoff().shell_weights(1, lam) != 0.0]).max())
    below, above = _times_around_the_phase_limit(sq_max)
    out = tmp_path / "o"
    argv = ["--json", "--out", str(out), "kernel", "halfwave", "--j", "1", *_POINTS]
    assert cli.main([*argv, "--t", repr(below)]) == cli.EXIT_OK
    value = json.loads(capsys.readouterr().out)["values"]["spectral"]
    assert math.isfinite(value["re"]) and math.isfinite(value["im"])
    before = (out / "kernel.csv").read_bytes()
    _exit_2_naming(capsys, cli.main([*argv, "--t", repr(above)]), "halfwave_kernel_grid: phase up to")
    assert (out / "kernel.csv").read_bytes() == before


@pytest.mark.parametrize("kind", ["schrodinger", "fractional", "halfwave"])
def test_each_multiplier_refuses_from_the_phase_limit_on(kind):
    """On one eigenvalue: the unchanged factor below 2^29, DomainError from the next float up."""
    lam = np.array([[16.0]])  # sqrt(lam) = 4 is the middle of shell j = 2
    power, make, factor = {
        "schrodinger": (1.0, spectrum.schrodinger_multiplier, lambda t: np.exp(1j * t * lam)),
        "fractional": (1.5, lambda t: spectrum.fractional_flow_multiplier(1.5, t),
                       lambda t: np.exp(1j * t * lam ** 1.5)),
        "halfwave": (0.5, lambda t: cli._halfwave_multiplier(2, t), lambda t: np.exp(1j * t * np.sqrt(lam))),
    }[kind]
    below, above = _times_around_the_phase_limit(float(lam[0, 0] ** power))
    assert make(below)(lam).tobytes() == factor(below).tobytes()
    with pytest.raises(DomainError, match=re.escape(_PAST_LIMIT)):
        make(above)(lam)


def test_halfwave_phase_limit_counts_only_the_shell():
    """A mode outside the shell gets weight 0 whatever its phase, so its phase is not refused."""
    lam = np.array([[16.0, 2.0 ** 100]])  # sqrt(lam) = 4 lies in shell j = 2, 2^50 far above it
    factors = cli._halfwave_multiplier(2, 1e6)(lam)  # phases 4e6 and 1.1e21
    assert factors[0, 1] == 0.0 and abs(factors[0, 0]) == pytest.approx(1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_heat_kernel_past_the_float_range_is_zero_without_a_warning(tmp_path, capsys):
    code = cli.main(["--json", "--out", str(tmp_path / "o"), "kernel", "heat", "--repr", "spectral", *_POINTS,
                     "--t", "1e308"])
    assert code == cli.EXIT_OK
    value = json.loads(capsys.readouterr().out)["values"]["spectral"]
    assert (value["re"], value["im"]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# memory: the text is formatted a block at a time
# ---------------------------------------------------------------------------

def test_save_field_memory_does_not_grow_with_the_text(tmp_path):
    field = random_field(ModeWindow(255, 511), np.random.default_rng(1))  # 261,632 modes, 8.4 MB of rows
    tracemalloc.start()
    try:
        save_field(field, CFG, QuadratureSpec(), tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the per-row writer peaked at 54-57 MB here; the rows and one block of text take about 15 MB
    assert peak < 25e6, peak


# ---------------------------------------------------------------------------
# structure: one home for the float format
# ---------------------------------------------------------------------------

def _format_sites(path: Path) -> list[str]:
    """The functions of a module (or <module>) whose code, docstrings aside, holds a '17g' string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)  # ast.walk is breadth first: outer functions claim first
    return sorted(owner.get(id(node), "<module>") for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "17g" in node.value and id(node) not in docstrings)


def test_float_format_lives_in_one_function():
    sites = {f"{path.stem}.{fn}" for path in sorted(PACKAGE.glob("*.py")) for fn in _format_sites(path)}
    assert sites == {"spectrum._csv_body"}


def test_format_sites_see_f_strings_and_percent_formats(tmp_path):
    source = tmp_path / "m.py"
    source.write_text('def a(x):\n    """%.17g in a docstring"""\n    return f"{x:.17g}"\n\n'
                      'def b(x):\n    def inner():\n        return "%.17g" % x\n    return inner()\n\n'
                      'LINE = "%.17g"\n')
    assert _format_sites(source) == ["<module>", "a", "b"]
