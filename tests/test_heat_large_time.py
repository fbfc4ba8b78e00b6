"""Heat kernels at large t b0, against the angular series summed in 60-digit arithmetic (conftest).

At large t b0 the degenerate-branch terms (k <= -1) carry a factor
e^{|k| t b0 / sigma} that brings orders with an underflowed ive back to a
visible size, and the prefactor falls like e^{-(1 + alpha) t b0}.  Both
representations must stay within the heat tolerance up to t b0 = 700 and
raise DomainError past it, under the one rule they share.  At small t or
large radii the Gaussian factor e^{-Q} underflows while the series terms
carry e^{x}, x <= Q; past Q = 700 the series must still return a finite
value.  Past x = 2^30 scipy's Bessel factors are NaN, and the series must
say so (NonconvergenceError, exit 4) without a warning.
"""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from magcone.cli import EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK, main
from magcone.errors import DomainError, NonconvergenceError
from magcone.geometry import make_point
from magcone.kernels import _log_bessel_i, heat_kernel_closed, heat_kernel_series
from magcone.verify import REFERENCE_CONFIGS

HEAT_TOL = 1e-8


def _points(cfg):
    return make_point(cfg, 1.0, 0.3), make_point(cfg, 0.8, 2.1)


@pytest.mark.parametrize("tb", [50.0, 100.0, 200.0, 400.0, 600.0, 700.0])
def test_both_representations_match_mpmath(cfg, tb, heat_kernel_mp):
    p, q = _points(cfg)
    t = tb / cfg.b0
    exact = heat_kernel_mp(t, p, q, cfg)
    assert exact != 0.0
    for kernel in (heat_kernel_series, heat_kernel_closed):
        kv = kernel(t, p, q, cfg)
        assert abs(kv.value - exact) <= HEAT_TOL * abs(exact), kernel.__name__
        assert 0.0 < kv.largest_term < math.inf


@pytest.mark.parametrize("tb", [700.5, 709.0, 712.0, 800.0, 1e4, 1e300])
def test_both_representations_reject_past_the_float_range(cfg, tb):
    p, q = _points(cfg)
    for kernel in (heat_kernel_series, heat_kernel_closed):
        with pytest.raises(DomainError, match="t b0 <= 700"):
            kernel(tb / cfg.b0, p, q, cfg)


def test_series_keeps_orders_whose_ive_underflows(heat_kernel_mp):
    # at t b0 = 400 (sigma = 1) ive underflows from the k = -2 term on, one of the sum's largest;
    # dropping those terms left the series 23% off
    cfg = REFERENCE_CONFIGS[0]
    p, q = _points(cfg)
    x = cfg.b0 * p.r * q.r / (2.0 * math.sinh(400.0))
    assert sp.ive(1.75, x) == 0.0
    exact = heat_kernel_mp(400.0, p, q, cfg)
    assert abs(heat_kernel_series(400.0, p, q, cfg).value - exact) <= 1e-12 * abs(exact)


# (t b0, r1 sqrt(b0), r2 sqrt(b0), theta gap): Q = b0 (r1^2 + r2^2) / (4 tanh t b0) > 700, so e^{-Q}
# underflows on its own, while the kernel stays in the normal float range
LARGE_Q = [(1.0, 46.8, 1.62, 0.0), (0.1, 16.7, 0.72, 0.2)]


@pytest.mark.parametrize("tb,r1,r2,gap", LARGE_Q)
def test_series_past_q_700_matches_mpmath(cfg, tb, r1, r2, gap, heat_kernel_mp):
    t, scale = tb / cfg.b0, 1.0 / math.sqrt(cfg.b0)
    p, q = make_point(cfg, r1 * scale, 0.3), make_point(cfg, r2 * scale, 0.3 + gap)
    assert cfg.b0 * (p.r ** 2 + q.r ** 2) / (4.0 * math.tanh(tb)) > 700.0
    exact = heat_kernel_mp(t, p, q, cfg)
    assert exact != 0.0
    kv = heat_kernel_series(t, p, q, cfg)
    assert abs(kv.value - exact) <= 1e-12 * abs(exact)
    assert 0.0 < kv.largest_term < math.inf


# at b0 = 1: x = Q = 5000; x = 664, Q = 1024; e^{x - Q} = e^{-10^4}, so both forms give 0
@pytest.mark.parametrize("t,p,q", [(1e-4, (1.0, 0.3), (1.0, 0.31)),
                                   (1.0, (40.0, 0.3), (39.0, 0.3)),
                                   (1e-6, (1.0, 0.3), (0.8, 2.1))])
def test_series_past_q_700_is_finite_and_matches_closed_form(cfg, t, p, q):
    p, q = make_point(cfg, *p), make_point(cfg, *q)
    series, closed = heat_kernel_series(t, p, q, cfg).value, heat_kernel_closed(t, p, q, cfg).value
    assert np.isfinite(series)
    assert abs(series - closed) <= HEAT_TOL * abs(closed)


def test_cli_heat_past_q_700_prints_finite_values(tmp_path, capsys):
    code = main(["--json", "--out", str(tmp_path / "o"), "kernel", "heat", "--repr", "both",
                 "--t", "1e-4", "--p", "1,0.3", "--q", "1,0.31"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    for v in payload["values"].values():
        assert math.isfinite(v["re"]) and math.isfinite(v["im"]) and abs(complex(v["re"], v["im"])) > 600.0
    assert payload["relative_difference"] <= HEAT_TOL


@pytest.mark.parametrize("t", [1e-10, 1e-300])
def test_series_rejects_x_past_2_to_the_30(cfg, t):
    # x = b0 r1 r2 / (2 sinh t b0) = 0.4 / t at these points; scipy's ive(a, x) is NaN past 2^30
    p, q = _points(cfg)
    assert np.isnan(sp.ive(cfg.alpha, 0.4 / t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonconvergenceError, match=r"below 2\^30, got 4e\+"):
            heat_kernel_series(t, p, q, cfg)


@pytest.mark.parametrize("t", ["1e-10", "1e-300"])
def test_cli_heat_series_past_2_to_the_30_exits_4(tmp_path, capsys, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--out", str(tmp_path / "o"), "kernel", "heat",
                     "--t", t, "--p", "1.0,0.3", "--q", "0.8,2.1"])
    assert code == EXIT_NONCONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("nonconvergence: heat angular series needs x") and "2^30" in err
    assert err.count("\n") == 1


def test_both_representations_reject_an_underflowing_t_b0():
    cfg = REFERENCE_CONFIGS[2]  # b0 = 0.5: t b0 rounds to 0 at the smallest t
    p, q = _points(cfg)
    for kernel in (heat_kernel_series, heat_kernel_closed):
        with pytest.raises(DomainError, match="underflows"):
            kernel(5e-324, p, q, cfg)


@pytest.mark.parametrize("a,x", [(7.75, 1e-170), (0.25, 1e-300), (40.3, 1e-9), (150.0, 0.01),
                                 (800.0, 3.0), (2.5, 5e-324)])
def test_log_bessel_i_matches_mpmath(a, x):
    with mpmath.workdps(40):
        exact = float(mpmath.log(mpmath.besseli(a, x)))
    assert _log_bessel_i(np.array([a]), x)[0] == pytest.approx(exact, rel=1e-14)


def test_cli_heat_at_large_time_exits_2(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "o"), "kernel", "heat", "--repr", "both",
                 "--t", "800", "--p", "1.0,0.3", "--q", "0.8,2.1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: heat kernel needs t b0 <= 700") and "Traceback" not in err
