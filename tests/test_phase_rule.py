"""One phase rule: every entry point that forms a phase refuses the same phases with the same message.

spectrum._require_phase refuses a phase whose modulus is not finite or not
below its limit: _ANGLE_LIMIT for the angular series' input angle (t b0 or
delta), _PHASE_LIMIT for every phase spectral work forms (t lam, t lam^nu,
t sqrt(lam), k theta / sigma).  Each entry point below takes the largest
input whose phase lies below its limit, and refuses the next float up, an
infinite phase and a NaN phase with that one message; the command line
exits 2 with it.
"""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from magcone import cli, kernels, lpbesov, spectrum
from magcone.errors import DomainError
from magcone.geometry import ConeConfig, ConePoint, make_point
from magcone.spectrum import ModeWindow, SpectralField

CFG = ConeConfig(1.5, 1.0, 0.4)
P, Q = make_point(CFG, 1.0, 0.3), make_point(CFG, 0.8, 2.1)
LAM = np.array([[1.4, 16.0, 30.0]])  # sqrt(16) = 4 is the middle of shell j = 2; sqrt(30) lies in it too
WINDOW = ModeWindow(4, 3)
R_NODES = np.array([0.6, 1.1])


def _inputs_around(scale: float, limit: float) -> tuple[float, float]:
    """The largest x >= 0 with scale * x below limit, and the next float up, whose phase reaches it."""
    below = limit / scale
    while below * scale >= limit:
        below = math.nextafter(below, 0.0)
    while math.nextafter(below, math.inf) * scale < limit:
        below = math.nextafter(below, math.inf)
    return below, math.nextafter(below, math.inf)


def _shell_sqrt_max(j: int, cfg: ConeConfig, r_nodes: np.ndarray) -> float:
    """The largest sqrt(lam) of nonzero weight the half-wave kernel's shell j holds at r_nodes."""
    blocks = kernels._shell_blocks(j, cfg, lpbesov.shell_window(j, cfg), r_nodes)
    return max(float(sq[w != 0.0].max(initial=0.0)) for _, sq, w, _ in blocks)


def _live_field() -> SpectralField:
    """A field on WINDOW whose live k reach k_max, so synthesis forms k_max theta / sigma."""
    return spectrum.random_field(WINDOW, np.random.default_rng(5))


# name -> (caller in the message, limit, phase per unit input, call(x), the inputs whose phase is inf and NaN)
ENTRY_POINTS = {
    "schrodinger_kernel_series": ("Schrodinger kernel", spectrum._ANGLE_LIMIT, CFG.b0,
                                  lambda t: kernels.schrodinger_kernel_series(t, P, Q, CFG).value,
                                  math.inf, math.nan),
    "schrodinger_kernel_closed": ("Schrodinger kernel", spectrum._ANGLE_LIMIT, CFG.b0,
                                  lambda t: kernels.schrodinger_kernel_closed(t, P, Q, CFG).value,
                                  -math.inf, math.nan),
    "reduced_kernel": ("reduced kernel", spectrum._ANGLE_LIMIT, 1.0,
                       lambda delta: kernels.reduced_kernel(1.3, delta, CFG), math.inf, math.nan),
    "reduced_kernel_matrix": ("reduced kernel", spectrum._ANGLE_LIMIT, 1.0,
                              lambda delta: kernels.reduced_kernel_matrix(np.array([0.5, 1.3]),
                                                                          np.array([0.1, -delta]), CFG),
                              -math.inf, math.nan),
    "schrodinger_multiplier": ("spectral multiplier schrodinger_multiplier", spectrum._PHASE_LIMIT,
                               float(LAM.max()), lambda t: spectrum.schrodinger_multiplier(t)(LAM),
                               math.inf, math.nan),
    "fractional_flow_multiplier": ("spectral multiplier fractional_flow_multiplier", spectrum._PHASE_LIMIT,
                                   float(LAM.max() ** 1.5),
                                   lambda t: spectrum.fractional_flow_multiplier(1.5, t)(LAM),
                                   -math.inf, math.nan),
    # synthesis forms k theta / sigma; an angle that is not finite is refused by name before any phase is formed,
    # so its not-finite phases are the overflowing k_max * theta / sigma of the largest float
    "field_on_grid": ("synthesis", spectrum._PHASE_LIMIT, WINDOW.k_max / CFG.sigma,
                      lambda theta: spectrum.field_on_grid(_live_field(), [0.7], [0.2, theta], CFG),
                      1.7976931348623157e308, None),
    "point_field": ("synthesis", spectrum._PHASE_LIMIT, WINDOW.k_max / CFG.sigma,
                    lambda theta: spectrum.point_field(ConePoint(0.9, theta), CFG, WINDOW).coeffs,
                    -1.7976931348623157e308, None),
    "halfwave_kernel_grid": ("halfwave_kernel_grid", spectrum._PHASE_LIMIT, _shell_sqrt_max(2, CFG, R_NODES),
                             lambda t: kernels.halfwave_kernel_grid(2, t, R_NODES, np.array([0.3]), CFG,
                                                                    lpbesov.shell_window(2, CFG)),
                             math.inf, math.nan),
    "halfwave_sup_curve": ("halfwave_kernel_grid", spectrum._PHASE_LIMIT, _shell_sqrt_max(2, CFG, R_NODES),
                           lambda t: kernels.halfwave_sup_curve(2, np.array([0.5, -t]), R_NODES, 0.3, 3, CFG,
                                                                lpbesov.shell_window(2, CFG)),
                           -math.inf, math.nan),
    "_halfwave_multiplier": ("spectral multiplier _halfwave_multiplier", spectrum._PHASE_LIMIT,
                             math.sqrt(30.0), lambda t: cli._halfwave_multiplier(2, t)(LAM), math.inf, math.nan),
}


def _message(caller: str, phase: float, limit: float) -> str:
    return f"{caller}: phase up to {phase:.6g} is not below its limit 2^{math.log2(limit):g}"


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_each_entry_point_takes_its_phase_below_the_limit_and_refuses_the_rest(name):
    caller, limit, scale, call, x_inf, x_nan = ENTRY_POINTS[name]
    below, at = _inputs_around(scale, limit)
    assert np.isfinite(call(below)).all()
    refused = [(at, _message(caller, at * scale, limit)), (x_inf, _message(caller, math.inf, limit))]
    if x_nan is not None:
        refused.append((x_nan, _message(caller, math.nan, limit)))
    for x, message in refused:
        with pytest.raises(DomainError, match=re.escape(message)):
            call(x)


def _two_mode_field(tmp_path: Path) -> str:
    field_csv = tmp_path / "field.csv"
    field_csv.write_text("k,m,re_c,im_c\n0,0,1.0,0.0\n2,3,0.5,-0.25\n")
    return str(field_csv)


_DEFAULT_CFG = ConeConfig(1.0, 1.0, 0.25)
_FIELD_LAM = spectrum.eigenvalue_table(_DEFAULT_CFG, ModeWindow(2, 3))
_POINTS = ["--p", "1,0.3", "--q", "0.8,2.1"]


# name -> (argv before --t, caller in the message, limit, phase per unit t)
COMMANDS = {
    "kernel-schrodinger-series": (["kernel", "schrodinger", "--repr", "series", *_POINTS],
                                  "Schrodinger kernel", spectrum._ANGLE_LIMIT, _DEFAULT_CFG.b0),
    "kernel-schrodinger-closed": (["kernel", "schrodinger", "--repr", "closed", *_POINTS],
                                  "Schrodinger kernel", spectrum._ANGLE_LIMIT, _DEFAULT_CFG.b0),
    "kernel-schrodinger-spectral": (["kernel", "schrodinger", "--repr", "spectral", *_POINTS],
                                    "spectral multiplier schrodinger_multiplier", spectrum._PHASE_LIMIT,
                                    float(spectrum.eigenvalue_table(_DEFAULT_CFG, ModeWindow(24, 24)).max())),
    "kernel-halfwave": (["kernel", "halfwave", "--j", "1", *_POINTS], "halfwave_kernel_grid", spectrum._PHASE_LIMIT,
                        _shell_sqrt_max(1, _DEFAULT_CFG, np.array([1.0, 0.8]))),  # the radii of _POINTS
    "evolve-schrodinger": (["spectrum", "evolve", "--mult", "schrodinger"],
                           "spectral multiplier schrodinger_multiplier", spectrum._PHASE_LIMIT,
                           float(_FIELD_LAM.max())),
    "evolve-fractional": (["spectrum", "evolve", "--mult", "fractional", "--nu", "2"],
                          "spectral multiplier fractional_flow_multiplier", spectrum._PHASE_LIMIT,
                          float(_FIELD_LAM.max() ** 2)),
    "evolve-halfwave": (["spectrum", "evolve", "--mult", "halfwave", "--j", "1"],
                        "spectral multiplier _halfwave_multiplier", spectrum._PHASE_LIMIT,
                        float(np.sqrt(_FIELD_LAM[lpbesov.make_cutoff().shell_weights(1, _FIELD_LAM) != 0.0]).max())),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_each_command_exits_2_with_the_one_message_from_the_limit_on(tmp_path, capsys, name):
    argv, caller, limit, scale = COMMANDS[name]
    if argv[0] == "spectrum":
        argv = argv + ["--input", _two_mode_field(tmp_path)]
    below, at = _inputs_around(scale, limit)
    assert cli.main(["--out", str(tmp_path / "ok"), *argv, "--t", repr(below)]) == cli.EXIT_OK
    capsys.readouterr()
    for t, phase in ((at, at * scale), (1e308, 1e308 * scale)):
        out = tmp_path / "refused"
        assert cli.main(["--out", str(out), *argv, "--t", repr(t)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: " + _message(caller, phase, limit))
        assert not out.exists()


def test_one_function_raises_every_phase_refusal():
    """The two limits are spectrum's constants, and the refusal's text lives in _require_phase alone."""
    src = Path(spectrum.__file__).resolve().parent
    powers = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines() if re.search(r"\*\* ?(22|29|52)\b", line)]
    assert powers == [("spectrum.py", "_ANGLE_LIMIT = 2.0 ** 22"), ("spectrum.py", "_PHASE_LIMIT = 2.0 ** 29")]
    texts = [path.name for path in sorted(src.glob("*.py"))
             for _ in re.finditer("phase up to", path.read_text(encoding="utf-8"))]
    assert texts == ["spectrum.py"] and "phase up to" in inspect.getsource(spectrum._require_phase)
