"""The files `magcone verify all` writes at the default grids.

The dispersive sweep and the weighted sweep at each gamma share their grid,
so their samples make one table, dispersive.csv: the columns t, rho, delta
and abs_series, then one weighted-g<gamma> column per weighted report.
Every report keeps its JSON; no other report of the family writes a CSV.
The tests read the session's `verify all` output.
"""

import json

import pytest

from magcone.geometry import flux_distance
from magcone.verify import REFERENCE_CONFIGS, SweepGrids

FINE = SweepGrids().refined()


def _weighted_names(cfg) -> list:
    """The full-grid weighted reports of `verify all`, in report order."""
    kappa = flux_distance(cfg)
    return [f"weighted-g{g:.4g}" for g in (0.0, kappa / 2.0, kappa)]


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
def test_verify_all_writes_one_dispersive_table(cfg, verify_all_output):
    out = verify_all_output(cfg)
    reports = [json.loads(p.read_text(encoding="utf-8"))["name"] for p in out.glob("*.json")]
    weighted = _weighted_names(cfg)
    assert set(weighted) <= set(reports)
    family = {name for name in reports if name.startswith("weighted")}
    assert {p.name for p in out.glob("*.csv")} == {f"{name}.csv" for name in set(reports) - family}
    lines = (out / "dispersive.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].split(",") == ["t", "rho", "delta", "abs_series", *weighted]
    assert len(lines) == 1 + FINE.n_time * FINE.n_radius * (FINE.n_radius + 1) // 2 * FINE.n_angle


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
def test_verify_all_writes_no_csv_twice(cfg, verify_all_output):
    """No two CSVs are byte copies, each holds rows, and one of them holds abs_series."""
    tables = {p.name: p.read_bytes() for p in verify_all_output(cfg).glob("*.csv")}
    assert all(data.count(b"\n") > 1 for data in tables.values())
    assert len(set(tables.values())) == len(tables)
    holding = [name for name, data in tables.items() if b"abs_series" in data.split(b"\n", 1)[0].split(b",")]
    assert holding == ["dispersive.csv"]


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
@pytest.mark.parametrize("table", ["gaussian-heat.csv", "dispersive.csv"])
def test_symmetric_tables_hold_each_unordered_radius_pair_once(cfg, table, verify_all_output):
    """The kernels are symmetric in (r1, r2): one row per (t, unordered pair r1 <= r2, angle)."""
    lines = (verify_all_output(cfg) / table).read_text(encoding="utf-8").splitlines()[1:]
    keys = [tuple(line.split(",", 3)[:3]) for line in lines]
    assert len(set(keys)) == len(keys)
    angles = {(t, angle) for t, _, angle in keys}  # dispersive.csv's delta = t b0 - dtheta moves with t
    assert len({t for t, _ in angles}) == FINE.n_time
    if table == "dispersive.csv":
        assert len(angles) == FINE.n_time * FINE.n_angle
    assert len(keys) == FINE.n_radius * (FINE.n_radius + 1) // 2 * len(angles)
