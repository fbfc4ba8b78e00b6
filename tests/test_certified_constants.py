"""Every constant `verify all` certifies stays inside the benchmark's gate.

perfbench/reference.json records the empirical constant of every sweep of
`verify all` on the three reference configurations, and the certify
workload fails a run whose constant lies further than 1e-9 |c| + 1e-13 from
it.  A change that moves digits at rounding level (a kernel evaluated in
another order, another chunking of a contraction) must stay inside that
gate; this test reads the JSON files of the session's `verify all` run.
"""

import json
import math
import warnings
from pathlib import Path

import pytest

from magcone.geometry import ConeConfig
from magcone.verify import REFERENCE_CONFIGS, SweepGrids, angular_tail_l1_scan

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


# int_0^{45/kappa} |S(s, theta)| ds at the angle where each config's fine tail-l1 pass peaks
# (theta = -3.1115926535897933, 3.130110586991951 and 3.116102204604636 for sigma = 1, 1.5 and 2), by
# mpmath: the textbook form of S (with cosh(s/sigma) - cos phi) at 40 digits, quad over the sweep's
# 20 panels, each split in 8; every quad error estimate is below 1e-43
TAIL_L1_MPMATH = {1.0: "4.23648778126209690639578882033",
                  1.5: "4.79134526486273794696549400723",
                  2.0: "6.31314060883395939001990287591"}


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"sigma{c.sigma}")
def test_tail_l1_constant_matches_its_30_digit_value(cfg, verify_all_output):
    report = json.loads((verify_all_output(cfg) / "tail-l1.json").read_text(encoding="utf-8"))
    want = float(TAIL_L1_MPMATH[cfg.sigma])
    assert abs(report["empirical_constant"] - want) <= 1e-14 * want


def test_tail_l1_sweep_out_to_4500_sigma_stays_finite():
    """kappa = 0.01 takes the sweep to s = 45/kappa = 4500, where sinh(s/2sigma) overflows.

    The textbook form in complex arithmetic, whose cosh(s/sigma) overflows
    to inf harmlessly there, gives 3.2258226248007995 on the default grids.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, = angular_tail_l1_scan(ConeConfig(1.0, 1.0, 0.01), SweepGrids(2, 1, 1))
    assert math.isfinite(report.empirical_constant) and report.passed
    assert report.empirical_constant == pytest.approx(3.2258226248007995, rel=1e-12)
