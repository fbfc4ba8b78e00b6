"""Columnar certification sweeps against verbatim oracles.

The oracles below are the earlier implementations, statement for statement: the
per-time ``_dispersive_samples`` with its tuple rows, the tuple ``_report``,
the per-value ``write_report`` and the columnar formatting that followed it,
and the row loops of the gaussian-heat and reduced-kernel sweeps.  The
dispersive and gaussian-heat oracles form their radius products over the
unordered pairs r1 <= r2 (np.triu_indices order), as the sweeps do, and take
their coarse sup from their own fine rows at the coarse grid's nodes: even
time, angle and radius indices, plus the gaussian-heat near-pi cluster.  Every
artifact the columnar sweeps write must agree with the oracle's byte for
byte; a non-finite sample, constant or ratio is refused before any file is
written.
"""

import json
import math
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcone import cli, kernels, spectrum, verify
from magcone.errors import DomainError, NonconvergenceError
from magcone.geometry import ConeConfig, flux_distance
from magcone.kernels import heat_closed_bracket_grid, reduced_kernel_matrix
from magcone.verify import SweepGrids, SweepReport, _time_grid

SMALL = SweepGrids(n_time=3, n_radius=4, n_angle=6)


# ---------------------------------------------------------------------------
# oracles: the earlier implementations, verbatim
# ---------------------------------------------------------------------------

def oracle_write_report(report: SweepReport, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = report.name.replace("/", "_")
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(report.json_dict(), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    csv_path = out_dir / f"{stem}.csv"
    lines = [",".join(report.csv_header)]
    for row in report.csv_rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return json_path, csv_path


def _report(name, cfg, grid_spec, constant, ratio, passed, t0, header=(), rows=()) -> SweepReport:
    return SweepReport(
        name=name,
        config=cfg,
        grid_spec=grid_spec,
        empirical_constant=float(constant),
        refinement_ratio=float(ratio),
        passed=bool(passed),
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
        csv_header=tuple(header),
        csv_rows=tuple(tuple(float(v) for v in r) for r in rows),
    )


def _dispersive_samples(cfg: ConeConfig, gamma: float, grids: SweepGrids):
    """Rows (t, rho, delta, |K|, rho^-gamma |K|) over the induced grid, and which sit on even indices only."""
    r = np.linspace(grids.r_min, grids.r_max, grids.n_radius)
    iu, ju = np.triu_indices(grids.n_radius)
    dth = np.linspace(-0.5 * cfg.period + 0.11, 0.5 * cfg.period - 0.07, grids.n_angle)
    rows, even = [], []
    for i_t, t in enumerate(_time_grid(grids, cfg)):
        sin_tb = math.sin(t * cfg.b0)
        if abs(sin_tb) < 0.05:
            raise DomainError("dispersive time grid too close to a singular time")
        rho = cfg.b0 * (r[iu] * r[ju]) / (2.0 * sin_tb)
        delta = t * cfg.b0 - dth
        mat = np.abs(reduced_kernel_matrix(rho, delta, cfg))
        weighted = mat * rho[None, :] ** (-gamma)
        for i_d, d in enumerate(delta):
            for i_r, rh in enumerate(rho):
                rows.append((t, rh, d, mat[i_d, i_r], weighted[i_d, i_r]))
                even.append(i_t % 2 == 0 and i_d % 2 == 0 and iu[i_r] % 2 == 0 and ju[i_r] % 2 == 0)
    return rows, even


def _dispersive_constant(rows, mask=None) -> float:
    vals = [w for (_, rh, _, _, w) in rows if mask is None or mask(rh)]
    return max(vals) if vals else 0.0


def oracle_weighted_dispersive_constant(cfg: ConeConfig, gamma: float,
                                        grids: SweepGrids = SweepGrids(),
                                        name: str = "weighted") -> list[SweepReport]:
    t0 = time.perf_counter()
    kappa = flux_distance(cfg)
    if not (0.0 <= gamma <= kappa + 1e-12):
        raise DomainError(f"gamma={gamma} outside [0, kappa={kappa}]")
    rows_fine, even = _dispersive_samples(cfg, gamma, grids.refined())
    rows_coarse = [row for row, keep in zip(rows_fine, even) if keep]
    header = ("t", "rho", "delta", "abs_series", "weighted")
    spec = (f"t x r x dtheta = {grids.n_time} x {grids.n_radius}^2 x {grids.n_angle}, "
            f"gamma={gamma:.6g}, reduced-kernel units (kernel constant = value / (8 pi sigma))")
    reports = []
    for suffix, mask in (("", None), ("/omega1", lambda rh: rh >= 1.0), ("/omega2", lambda rh: rh < 1.0)):
        c = _dispersive_constant(rows_coarse, mask)
        cf = _dispersive_constant(rows_fine, mask)
        ratio = cf / c if c > 0.0 else 1.0
        passed = math.isfinite(cf) and ratio <= 1.05
        reports.append(_report(f"{name}{suffix}", cfg, spec, cf, ratio, passed, t0,
                               header, rows_fine if suffix == "" else ()))
    return reports


def oracle_gaussian_heat_constant(cfg: ConeConfig, grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    t0 = time.perf_counter()

    def samples(g: SweepGrids):
        r = np.linspace(g.r_min, g.r_max, g.n_radius)
        base = np.linspace(-0.5 * cfg.period + 0.11, 0.5 * cfg.period - 0.07, g.n_angle)
        cluster = np.array([0.03, 0.07, 0.15, 0.3, 0.6])
        near_pi = np.concatenate([math.pi + cluster, math.pi - cluster,
                                  -math.pi + cluster, -math.pi - cluster])
        near_pi = near_pi[np.abs(near_pi) < 0.5 * cfg.period - 0.02]
        dth = np.unique(np.concatenate([base, near_pi]))
        coarse_dth = set(base[::2].tolist()) | set(near_pi.tolist())
        ts = np.geomspace(0.1, 5.0, g.n_time) / cfg.b0
        rows, even = [], []
        iu, ju = np.triu_indices(g.n_radius)
        rr = r[iu] * r[ju]
        red = np.abs(np.remainder(dth + cfg.period / 2.0, cfg.period) - cfg.period / 2.0)
        cosfac = np.where(red < math.pi, np.cos(red), -1.0)
        for i_t, t in enumerate(ts):
            tb = t * cfg.b0
            x = cfg.b0 * rr / (2.0 * math.sinh(tb))
            bracket = np.abs(heat_closed_bracket_grid(x, dth, t, cfg))
            raw = cfg.b0 / (4.0 * math.pi) * bracket  # |K| sinh e^{+Q}
            dist_const = raw * np.exp(-x[None, :] * math.cosh(tb) * cosfac[:, None])
            for i_d in range(len(dth)):
                for i_x in range(len(rr)):
                    rows.append((t, rr[i_x], dth[i_d], raw[i_d, i_x], dist_const[i_d, i_x]))
                    even.append(i_t % 2 == 0 and dth[i_d] in coarse_dth and iu[i_x] % 2 == 0 and ju[i_x] % 2 == 0)
        return rows, even

    rows_f, even = samples(grids.refined())
    rows_c = [row for row, keep in zip(rows_f, even) if keep]
    c = max(r[4] for r in rows_c)
    cf = max(r[4] for r in rows_f)
    ratio = cf / c if c > 0 else 1.0
    passed = math.isfinite(cf) and ratio <= 1.05
    spec = (f"t geomspace(0.1,5)/b0 x {grids.n_time}, r x {grids.n_radius}^2, "
            f"dtheta x {grids.n_angle}; distance-squared envelope, raw (r1^2+r2^2) variant in CSV")
    header = ("t", "r1r2", "dtheta", "raw_const", "distance_const")
    return [_report("gaussian-heat", cfg, spec, cf, ratio, passed, t0, header, rows_f)]


def oracle_reduced_kernel_bound_scan(cfg: ConeConfig, R: float = 2.0 * math.pi,
                                     grids: SweepGrids = SweepGrids()) -> list[SweepReport]:
    t0 = time.perf_counter()

    def sup_for(rho_max: float, n_rho: int, n_delta: int):
        rho = np.linspace(0.0, rho_max, n_rho)
        delta = np.linspace(-R, R, n_delta)
        return float(np.abs(reduced_kernel_matrix(rho, delta, cfg)).max())

    rho_max, n_rho = 12.5, 40 * grids.n_radius
    sup_prev = sup_for(rho_max, n_rho, 8 * grids.n_angle)
    while rho_max < 200.0:
        rho_max *= 2.0
        n_rho *= 2
        sup_new = sup_for(rho_max, n_rho, 8 * grids.n_angle)
        if abs(sup_new - sup_prev) < 0.01 * sup_new:
            sup_prev = sup_new
            break
        sup_prev = sup_new
    coarse = sup_prev
    fine = sup_for(rho_max, 2 * n_rho - 1, 16 * grids.n_angle - 1)
    ratio = fine / coarse if coarse > 0 else 1.0
    passed = math.isfinite(fine) and ratio <= 1.05
    rho = np.linspace(0.0, rho_max, 2 * n_rho - 1)
    delta = np.linspace(-R, R, 16 * grids.n_angle - 1)
    mat = np.abs(reduced_kernel_matrix(rho, delta, cfg))
    rows = [(d, rho[int(np.argmax(mat[i_d]))], float(mat[i_d].max())) for i_d, d in enumerate(delta)]
    spec = f"rho in [0,{rho_max}] (saturated by doubling), |delta| <= {R:.6g}"
    return [_report("reduced-kernel", cfg, spec, fine, ratio, passed, t0,
                    ("delta", "argmax_rho", "max_abs"), rows)]


def oracle_reports(cfg: ConeConfig, grids: SweepGrids) -> list[SweepReport]:
    """What `verify all` wrote for the dispersive family, gaussian-heat and reduced-kernel."""
    kappa = flux_distance(cfg)
    reports = oracle_weighted_dispersive_constant(cfg, 0.0, grids, name="dispersive")[:1]
    for g in (0.0, kappa / 2.0, kappa):
        reports += oracle_weighted_dispersive_constant(cfg, g, grids, name=f"weighted-g{g:.4g}")
    return (reports + oracle_gaussian_heat_constant(cfg, grids)
            + oracle_reduced_kernel_bound_scan(cfg, grids=grids))


# ---------------------------------------------------------------------------
# artifacts: byte for byte against the oracles
# ---------------------------------------------------------------------------

def _csv_columns(path: Path) -> dict:
    """The CSV's cells as text, column by column, keyed by the header."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))


@pytest.mark.parametrize("i_cfg", range(3))
def test_verify_all_artifacts_match_oracle(tmp_path, i_cfg):
    """Every JSON and every other CSV byte for byte; the family's one table cell for cell.

    The oracle wrote a (t, rho, delta, abs_series, weighted) CSV per
    dispersive-family report, header-only for the /omega reports; `verify
    all` writes one dispersive.csv whose columns project onto each full-grid
    one, and no CSV for any other report of the family.
    """
    cfg = verify.REFERENCE_CONFIGS[i_cfg]
    expected = oracle_reports(cfg, SMALL)
    names = {rep.name for rep in expected}
    new = [rep for rep in verify.run_suite("all", cfg, SMALL) if rep.name in names]
    assert [rep.name for rep in new] == [rep.name for rep in expected]
    weighted = [rep.name for rep in new if rep.name.startswith("weighted") and "/" not in rep.name]
    for old_rep, new_rep in zip(expected, new):
        old_json, old_csv = oracle_write_report(old_rep, tmp_path / "old")
        new_json, new_csv = verify.write_report(new_rep, tmp_path / "new")
        assert new_json.name == old_json.name
        assert new_json.read_bytes() == old_json.read_bytes(), new_json.name
        assert (new_csv is None) == new_rep.name.startswith("weighted"), new_rep.name
        if new_csv is not None and new_rep.name != "dispersive":
            assert new_csv.name == old_csv.name
            assert new_csv.read_bytes() == old_csv.read_bytes(), new_csv.name
    assert not list((tmp_path / "new").glob("*_omega*.csv"))
    table = _csv_columns(tmp_path / "new" / "dispersive.csv")
    assert list(table) == ["t", "rho", "delta", "abs_series", *weighted]
    fine = SMALL.refined()
    assert len(table["t"]) == fine.n_time * fine.n_radius * (fine.n_radius + 1) // 2 * fine.n_angle
    for name in ["dispersive", *weighted]:
        old = _csv_columns(tmp_path / "old" / f"{name}.csv")
        for column in ("t", "rho", "delta", "abs_series"):
            assert table[column] == old[column], (name, column)
        assert table["abs_series" if name == "dispersive" else name] == old["weighted"], name


@pytest.mark.parametrize("suite", ["dispersive", "weighted"])
def test_run_suite_gives_the_dispersive_family_one_table(suite):
    """The family's first report carries its one table; each column is the one its own sweep gives.

    test_verify_all_artifacts_match_oracle covers the 'all' suite.
    """
    cfg = verify.REFERENCE_CONFIGS[0]
    kappa = flux_distance(cfg)
    gammas = () if suite == "dispersive" else (0.0, kappa / 2.0, kappa)
    table, *rest = [rep for rep in verify.run_suite(suite, cfg, SMALL)
                    if rep.name.startswith(("dispersive", "weighted"))]
    assert table.name == "dispersive"
    assert table.csv_header == ("t", "rho", "delta", "abs_series", *(f"weighted-g{g:.4g}" for g in gammas))
    assert len(rest) == 3 * len(gammas)
    for rep in rest:
        assert rep.csv_rows.shape == (0, 0) and rep.csv_header == ()
    alone = verify.weighted_dispersive_constant(cfg, (), SMALL)[0].csv_rows
    assert not table.csv_rows.flags.writeable
    assert np.array_equal(table.csv_rows[:, :4], alone)
    for i, g in enumerate(gammas):
        weighted = verify.weighted_dispersive_constant(cfg, (g,), SMALL)[0].csv_rows[:, 4]
        assert np.array_equal(table.csv_rows[:, 4 + i], weighted)


def test_single_weighted_sweep_matches_oracle(tmp_path, cfg):
    """A family call at one gamma writes the oracle's bytes: every JSON, and the gamma's full-grid CSV.

    The dispersive report comes first and carries the table, which names its
    weighted column after the gamma's report; no other report writes a CSV.
    """
    gamma = flux_distance(cfg) / 3.0
    name = f"weighted-g{gamma:.4g}"
    old = (oracle_weighted_dispersive_constant(cfg, 0.0, SMALL, name="dispersive")[:1]
           + oracle_weighted_dispersive_constant(cfg, gamma, SMALL, name=name))
    new = verify.weighted_dispersive_constant(cfg, (gamma,), SMALL)
    for i, (old_rep, new_rep) in enumerate(zip(old, new, strict=True)):
        (old_json, _), (new_json, new_csv) = (oracle_write_report(old_rep, tmp_path / "old"),
                                              verify.write_report(new_rep, tmp_path / "new"))
        assert new_json.read_bytes() == old_json.read_bytes()
        assert (new_csv is None) == (i > 0), new_rep.name
    old_header, old_body = (tmp_path / "old" / f"{name}.csv").read_bytes().split(b"\n", 1)
    new_header, new_body = (tmp_path / "new" / "dispersive.csv").read_bytes().split(b"\n", 1)
    assert new_header.split(b",") == [*old_header.split(b",")[:-1], name.encode()]
    assert new_body == old_body


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]),
)


@settings(max_examples=60, deadline=None)
@given(n_cols=st.integers(1, 5), data=st.data())
def test_write_report_matches_per_value_format(tmp_path_factory, n_cols, data):
    values = data.draw(st.lists(st.lists(_FLOATS, min_size=n_cols, max_size=n_cols), max_size=12))
    header = tuple(f"c{i}" for i in range(n_cols))
    cfg = verify.REFERENCE_CONFIGS[0]
    old = _report("x/y", cfg, "spec", 1.0, 1.0, True, time.perf_counter(), header, values)
    new = verify._report("x/y", cfg, "spec", 1.0, 1.0, True, 0, header, values)
    out = tmp_path_factory.mktemp("w")
    if not np.isfinite(new.csv_rows).all():  # a non-finite sample is refused before any file
        with pytest.raises(NonconvergenceError):
            verify.write_report(new, out / "new")
        assert not (out / "new").exists()
        return
    for old_path, new_path in zip(oracle_write_report(old, out / "old"),
                                  verify.write_report(new, out / "new")):
        assert new_path.read_bytes() == old_path.read_bytes()


def oracle_csv_body(rows: np.ndarray) -> str:
    """The columnar writer's formatting before it formatted each distinct value once, verbatim."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())


def _float_bits(sign: int, exponent: int, mantissa: int) -> float:
    return float(np.array([sign << 63 | exponent << 52 | mantissa], dtype=np.uint64).view(float)[0])


_MANTISSA = st.integers(1, (1 << 52) - 1)
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(_float_bits, st.integers(0, 1), st.just(0x7FF), _MANTISSA),  # NaN with payloads
    st.builds(_float_bits, st.integers(0, 1), st.just(0), _MANTISSA),  # subnormals
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308, 0.1]),
)


@settings(max_examples=150, deadline=None)
@given(n_rows=st.integers(0, 14), n_cols=st.integers(0, 5), data=st.data())
def test_csv_body_formats_like_the_per_cell_writer(n_rows, n_cols, data):
    pool = data.draw(st.lists(_CELLS, min_size=1, max_size=6))  # heavily repeated values
    cells = data.draw(st.lists(st.one_of(st.sampled_from(pool), _CELLS),
                               min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    rows = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    assert spectrum._csv_body(rows) == oracle_csv_body(rows)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (4, 0)])
def test_csv_body_of_tables_without_cells(tmp_path, shape):
    rows = np.empty(shape)
    assert spectrum._csv_body(rows) == oracle_csv_body(rows)
    header = tuple(f"c{i}" for i in range(shape[1]))
    cfg = verify.REFERENCE_CONFIGS[0]
    old = _report("a/omega1", cfg, "spec", 1.0, 1.0, True, time.perf_counter(), header, rows.tolist())
    new = verify._report("a/omega1", cfg, "spec", 1.0, 1.0, True, 0, header, rows.tolist())
    (old_json, old_csv), (new_json, new_csv) = (oracle_write_report(old, tmp_path / "old"),
                                                verify.write_report(new, tmp_path / "new"))
    assert new_json.read_bytes() == old_json.read_bytes()
    if header:  # a header with no rows: a header-only CSV (no sweep makes such a report)
        assert new_csv.read_bytes() == old_csv.read_bytes()
    else:  # no header: the report has no CSV of its own
        assert new_csv is None and sorted(p.name for p in (tmp_path / "new").iterdir()) == ["a_omega1.json"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_report_refuses_a_non_finite_cell(tmp_path, bad):
    header = ("t", "rho", "weighted")
    rows = np.array([[0.5, 1.0, 2.0], [0.5, 1.5, bad], [0.7, 1.0, 3.0]])
    report = SweepReport(name="weighted-g0/omega1", config=verify.REFERENCE_CONFIGS[0], grid_spec="spec",
                         empirical_constant=3.0, refinement_ratio=1.0, passed=True, runtime_ms=0,
                         csv_header=header, csv_rows=rows)
    with pytest.raises(NonconvergenceError, match=r"weighted-g0/omega1.*'weighted'"):
        verify.write_report(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_verify_exits_4_on_a_non_finite_cell(tmp_path, monkeypatch, capsys):
    rows = np.array([[1.0, math.nan]])
    report = SweepReport(name="energy", config=verify.REFERENCE_CONFIGS[0], grid_spec="spec",
                         empirical_constant=1.0, refinement_ratio=1.0, passed=True, runtime_ms=0,
                         csv_header=("trial", "drift"), csv_rows=rows)
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: [report])
    assert cli.main(["--out", str(tmp_path / "out"), "verify", "energy"]) == cli.EXIT_NONCONVERGENCE
    assert "'drift'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_refusing_one_report_writes_none(tmp_path, monkeypatch, capsys):
    cfg = verify.REFERENCE_CONFIGS[0]
    good = SweepReport(name="dispersive", config=cfg, grid_spec="spec", empirical_constant=1.0,
                       refinement_ratio=1.0, passed=True, runtime_ms=0, csv_header=("t", "abs_series"),
                       csv_rows=np.array([[0.5, 1.0]]))
    bad = replace(good, name="energy", empirical_constant=math.nan)
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: [good, bad])
    assert cli.main(["--out", str(tmp_path / "out"), "verify", "all"]) == cli.EXIT_NONCONVERGENCE
    assert "'energy'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["empirical_constant", "refinement_ratio"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_write_report_refuses_a_non_finite_constant_or_ratio(tmp_path, field, bad):
    report = replace(SweepReport(name="halfwave", config=verify.REFERENCE_CONFIGS[0], grid_spec="spec",
                                 empirical_constant=-0.5, refinement_ratio=1.0, passed=False, runtime_ms=0,
                                 csv_header=("t", "sup"), csv_rows=np.array([[0.5, 1.0]])), **{field: bad})
    with pytest.raises(NonconvergenceError, match=f"'halfwave'.*{field}"):
        verify.write_report(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_verify_exits_4_on_a_non_finite_constant(tmp_path, monkeypatch, capsys):
    report = SweepReport(name="halfwave", config=verify.REFERENCE_CONFIGS[0], grid_spec="spec",
                         empirical_constant=math.nan, refinement_ratio=1.0, passed=False, runtime_ms=0)
    monkeypatch.setattr(verify, "run_suite", lambda *a, **k: [report])
    assert cli.main(["--out", str(tmp_path / "out"), "verify", "halfwave"]) == cli.EXIT_NONCONVERGENCE
    assert "empirical_constant nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_csv_rows_are_a_read_only_float_array(cfg):
    rep, _, omega1, _ = verify.weighted_dispersive_constant(cfg, (0.0,), SMALL)
    fine = SMALL.refined()
    assert rep.csv_rows.dtype == np.float64
    assert rep.csv_rows.shape == (fine.n_time * fine.n_radius * (fine.n_radius + 1) // 2 * fine.n_angle, 5)
    assert omega1.csv_rows.shape == (0, 0)
    with pytest.raises(ValueError):
        rep.csv_rows[0, 0] = 1.0
    assert SweepReport("x", cfg, "", 0.0, 1.0, True, 0).csv_rows.shape == (0, 0)
    assert rep == replace(rep, csv_rows=rep.csv_rows[::-1]) != replace(rep, runtime_ms=-1)


# ---------------------------------------------------------------------------
# work: every kernel grid once per call
# ---------------------------------------------------------------------------

def _count_kernel_calls(monkeypatch) -> list:
    calls = []

    def counted(rho, delta, cfg):
        calls.append((float(rho[0]), rho.size, delta.size))
        return reduced_kernel_matrix(rho, delta, cfg)

    monkeypatch.setattr(verify, "reduced_kernel_matrix", counted)
    return calls


def test_verify_all_builds_each_kernel_grid_once(monkeypatch):
    cfg = verify.REFERENCE_CONFIGS[1]
    calls = _count_kernel_calls(monkeypatch)
    verify.run_suite("all", cfg, SMALL)
    # the dispersive grid has rho > 0; the reduced-kernel scan starts at rho = 0
    dispersive = [c for c in calls if c[0] > 0.0]
    scan = [c[1:] for c in calls if c[0] == 0.0]
    assert len(dispersive) == SMALL.refined().n_time  # the fine grid only: the coarse sup is read from it
    assert len(scan) == len(set(scan))
    assert scan[-1][1] == 16 * SMALL.n_angle - 1


def test_standalone_weighted_sweep_builds_its_own_grids(monkeypatch):
    cfg = verify.REFERENCE_CONFIGS[0]
    calls = _count_kernel_calls(monkeypatch)
    verify.weighted_dispersive_constant(cfg, (0.1,), SMALL)
    verify.weighted_dispersive_constant(cfg, (), SMALL)
    assert len(calls) == 2 * SMALL.refined().n_time


def test_multi_gamma_family_call_builds_each_grid_once(monkeypatch):
    """The dispersive report and three weighted ones come from one kernel matrix per fine time."""
    cfg = verify.REFERENCE_CONFIGS[2]
    kappa = flux_distance(cfg)
    calls = _count_kernel_calls(monkeypatch)
    reports = verify.weighted_dispersive_constant(cfg, (0.0, kappa / 2.0, kappa), SMALL)
    assert len(reports) == 1 + 3 * 3
    assert len(calls) == SMALL.refined().n_time


def test_gamma_is_checked_before_any_kernel_call(monkeypatch):
    cfg = verify.REFERENCE_CONFIGS[0]
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(DomainError, match=r"gamma=-0.1 outside \[0, kappa="):
        verify.run_suite("weighted", cfg, SMALL, gamma=-0.1)
    assert calls == []


def test_reports_of_one_sweep_call_share_its_runtime(monkeypatch):
    ticks = iter(np.arange(0.0, 1000.0, 0.25))
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    reports = verify.weighted_dispersive_constant(verify.REFERENCE_CONFIGS[0], (0.0, 0.1), SMALL)
    assert len(reports) == 7
    assert len({rep.runtime_ms for rep in reports}) == 1
    assert reports[0].runtime_ms > 0


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [dict(n_time=0), dict(n_radius=0), dict(n_angle=-2)])
def test_sweep_grids_reject_empty_or_bad_ranges(bad):
    with pytest.raises(DomainError):
        SweepGrids(**bad)


def test_single_point_sweep_grids_are_refused():
    """On one node per axis refined() would be the same grid, so a sweep would compare a grid with itself."""
    with pytest.raises(DomainError, match="a refinement check needs two nodes on some sweep grid axis"):
        SweepGrids(n_time=1, n_radius=1, n_angle=1)
    for sizes in [(2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        assert SweepGrids(*sizes).refined() != SweepGrids(*sizes)


def test_sweep_grids_refuse_sizes_past_the_cell_cap():
    """The bound admits the default and every test grid, and refuses one radius past it; nothing is allocated."""
    for sizes in [(5, 7, 12), (5, 7, 14), (4, 6, 10), (3, 3, 4), (5, 17, 12)]:
        SweepGrids(*sizes)
    for sizes in [(5, 18, 12), (5, 3000, 12), (5, 7, 200_000), (10 ** 9, 1, 1)]:
        with pytest.raises(DomainError, match="above the cap"):
            SweepGrids(*sizes)
    fine = SweepGrids().refined()  # the defaults' fine pass is counted by their bound, not checked again
    assert (fine.n_time, fine.n_radius, fine.n_angle) == (9, 13, 23)
    with pytest.raises(DomainError, match="above the cap"):
        SweepGrids(9, 13, 23)


def test_sweep_grid_bound_counts_the_arrays_the_sweeps_allocate(monkeypatch):
    """The scan's kernel matrices and the half-wave residue table stay within the factors the bound counts."""
    grids = SweepGrids(n_time=3, n_radius=3, n_angle=5)
    cfg = verify.REFERENCE_CONFIGS[0]
    calls = _count_kernel_calls(monkeypatch)
    verify.reduced_kernel_bound_scan(cfg, grids)
    assert max(n_rho * n_delta for _, n_rho, n_delta in calls) <= (16 * 5 - 1) * (1280 * 3 - 1)
    shapes = []
    halfwave_residues = kernels._halfwave_residues

    def spy(*args):
        table = halfwave_residues(*args)
        shapes.append(table.shape)
        return table

    monkeypatch.setattr(kernels, "_halfwave_residues", spy)
    verify.halfwave_decay_fit(cfg, 1, grids)
    parts, n_t, n_angle, n_pairs = max(shapes)
    assert parts == 2  # real and imaginary parts: the bytes of one complex cell each
    assert n_t <= 2 * 3 + 10 and n_angle == max(2 * 5, 32) and n_pairs == 17 * 18 // 2
