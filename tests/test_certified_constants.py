"""Every constant `verify all` certifies stays inside the benchmark's gate.

perfbench/reference.json records the empirical constant of every sweep of
`verify all` on the three reference configurations, and the certify
workload fails a run whose constant lies further than 1e-9 |c| + 1e-13 from
it.  A change that moves digits at rounding level (a kernel evaluated in
another order, another chunking of a contraction) must stay inside that
gate; this test runs the same command and only reads the file.
"""

import json
from pathlib import Path

import pytest

from magcone import cli
from magcone.verify import REFERENCE_CONFIGS

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
def test_verify_all_constants_stay_within_the_reference_gate(cfg, tmp_path, capsys):
    key = f"sigma={cfg.sigma:g},alpha={cfg.alpha:g},b0={cfg.b0:g}"
    expected = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["configs"][key]["empirical_constant"]
    config = tmp_path / "cone.cfg"
    config.write_text(f"sigma = {cfg.sigma!r}\nalpha = {cfg.alpha!r}\nb0 = {cfg.b0!r}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["--config", str(config), "--out", str(out), "verify", "all"]) == cli.EXIT_OK
    capsys.readouterr()
    got = {}
    for path in out.glob("*.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        got[report["name"]] = report["empirical_constant"]
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-9 * abs(value) + 1e-13, (name, got[name], value)
