"""Every constant `verify all` certifies stays inside the benchmark's gate.

perfbench/reference.json records the empirical constant of every sweep of
`verify all` on the three reference configurations, and the certify
workload fails a run whose constant lies further than 1e-9 |c| + 1e-13 from
it.  A change that moves digits at rounding level (a kernel evaluated in
another order, another chunking of a contraction) must stay inside that
gate; this test reads the JSON files of the session's `verify all` run.
"""

import json
from pathlib import Path

import pytest

from magcone.verify import REFERENCE_CONFIGS

REFERENCE_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
def test_verify_all_constants_stay_within_the_reference_gate(cfg, verify_all_output):
    key = f"sigma={cfg.sigma:g},alpha={cfg.alpha:g},b0={cfg.b0:g}"
    expected = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["configs"][key]["empirical_constant"]
    got = {}
    for path in verify_all_output(cfg).glob("*.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        got[report["name"]] = report["empirical_constant"]
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-9 * abs(value) + 1e-13, (name, got[name], value)
