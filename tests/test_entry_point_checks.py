"""One input check per kernel family, reached by every entry point of the family.

Each family's pointwise and grid entry points refuse the same bad input
with the same exception class (and, where the input is the same number,
the same message).  The last test drives the command line with malformed
config values: every run ends in a documented exit code, never in a
traceback.
"""

import contextlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from magcone import cli, kernels, lpbesov, spectrum
from magcone.errors import DomainError, QuadratureError
from magcone.geometry import ConePoint, make_point
from magcone.spectrum import ModeWindow, SpectralField


def _refusals(calls, error):
    """The message of each call's refusal; each call must raise `error`."""
    messages = []
    for call in calls:
        with pytest.raises(error) as info:
            call()
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("t_of", [lambda cfg: -0.5, lambda cfg: 0.0, lambda cfg: math.nan, lambda cfg: math.inf,
                                  lambda cfg: 1000.0 / cfg.b0],
                         ids=["negative", "zero", "nan", "inf", "tb1000"])
def test_heat_entry_points_refuse_the_same_times(cfg, t_of):
    t = t_of(cfg)
    p, q = make_point(cfg, 1.0, 0.3), make_point(cfg, 1.2, 1.4)
    x, theta = np.array([0.2, 0.5]), np.array([0.3, -1.1])
    messages = _refusals([lambda: kernels.heat_kernel_series(t, p, q, cfg),
                          lambda: kernels.heat_kernel_closed(t, p, q, cfg),
                          lambda: kernels.heat_closed_bracket_grid(x, theta, t, cfg)],
                         DomainError)
    assert len(set(messages)) == 1 and messages[0].startswith("heat kernel needs")


@pytest.mark.parametrize("t_of", [lambda cfg: math.nan, lambda cfg: math.inf, lambda cfg: 2.0 ** 52 / cfg.b0,
                                  lambda cfg: 1e300],
                         ids=["nan", "inf", "tb2^52", "1e300"])
def test_schrodinger_entry_points_refuse_the_same_times(cfg, t_of):
    """A phase t b0 of 2^52 or more holds no digit of e^{i t b0}: both representations refuse it alike."""
    t = t_of(cfg)
    p, q = make_point(cfg, 1.0, 0.3), make_point(cfg, 1.2, 1.4)
    messages = _refusals([lambda: kernels.schrodinger_kernel_series(t, p, q, cfg),
                          lambda: kernels.schrodinger_kernel_closed(t, p, q, cfg)],
                         DomainError)
    assert messages[0] == messages[1]
    assert ("needs a finite t" if not math.isfinite(t) else "has no significant digit (|t b0| >= 2^52)") in messages[0]


def test_closed_forms_refuse_an_angle_on_an_image_boundary(cfg):
    p, q = make_point(cfg, 1.0, math.pi), make_point(cfg, 1.2, 0.0)  # angle gap exactly pi
    t = 0.5 / cfg.b0
    # the Schrodinger closed form's angle is t b0 - gap: pi up to one rounding
    p_s, q_s = make_point(cfg, 1.0, 0.5), make_point(cfg, 1.2, 0.0)
    t_s = (math.pi + 0.5) / cfg.b0
    messages = _refusals([lambda: kernels.image_angles(math.pi, cfg),
                          lambda: kernels.heat_kernel_closed(t, p, q, cfg),
                          lambda: kernels.heat_closed_bracket_grid(np.array([0.2, 0.5]), np.array([0.3, math.pi]),
                                                                   t, cfg),
                          lambda: kernels.schrodinger_kernel_closed(t_s, p_s, q_s, cfg)],
                         QuadratureError)
    assert len(set(messages[:3])) == 1
    assert all("sits on an image-sum boundary" in m for m in messages)


@pytest.mark.parametrize("x", [[0.2, math.nan], [math.inf], [], [0.2, 0.0], [-1.0, 0.5]],
                         ids=["nan", "inf", "empty", "zero", "negative"])
def test_heat_grid_refuses_an_x_that_is_empty_or_not_finite_and_positive(cfg, x):
    messages = _refusals([lambda: kernels.heat_closed_bracket_grid(np.array(x), np.array([0.3, -1.1]),
                                                                   0.5 / cfg.b0, cfg)],
                         DomainError)
    assert messages == ["heat_closed_bracket_grid needs a nonempty x, each value finite and > 0"]


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_image_angles_and_the_heat_grid_refuse_a_non_finite_angle(cfg, theta):
    messages = _refusals([lambda: kernels.image_angles(theta, cfg),
                          lambda: kernels.heat_closed_bracket_grid(np.array([0.2, 0.5]), np.array([0.3, theta]),
                                                                   0.5 / cfg.b0, cfg)],
                         DomainError)
    assert len(set(messages)) == 1 and messages[0] == f"image_angles needs a finite angle, got {theta}"


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e300])
def test_halfwave_entry_points_refuse_the_same_times(cfg, t):
    window = lpbesov.shell_window(1, cfg)
    window = ModeWindow(max(window.k_max, 40), window.m_max)
    r, dth = np.array([0.5, 1.0]), 0.1 + np.arange(2) * (cfg.period / 2)  # the uniform circle (0.1, 2)
    sup_curve = lambda: kernels.halfwave_sup_curve(1, np.array([0.5, t]), r, 0.1, 2, cfg, window).max(axis=(1, 2))
    messages = _refusals([lambda: kernels.halfwave_kernel_grid(1, t, r, dth, cfg, window), sup_curve],
                         DomainError)
    assert messages[0] == messages[1]
    assert ("finite t" if not math.isfinite(t) else "halfwave_kernel_grid: phase up to") in messages[0]


@pytest.mark.parametrize("rho,delta", [(math.nan, 0.3), (1.0, math.nan), (math.inf, 0.3), (1.0, -math.inf),
                                       (-1.0, 0.3)])
def test_reduced_kernel_entry_points_refuse_the_same_arguments(cfg, rho, delta):
    messages = _refusals([lambda: kernels.reduced_kernel(rho, delta, cfg),
                          lambda: kernels.reduced_kernel_matrix(np.array([0.5, rho]), np.array([delta, 0.1]), cfg)],
                         DomainError)
    assert messages[0] == messages[1] == "reduced kernel needs a finite rho >= 0 and a finite delta"


@pytest.mark.parametrize("delta", [2.0 ** 52, -2.0 ** 52, 0.7 + 2.0 * math.pi * 1e15])
def test_reduced_kernel_entry_points_refuse_a_delta_without_a_significant_digit(cfg, delta):
    messages = _refusals([lambda: kernels.reduced_kernel(1.3, delta, cfg),
                          lambda: kernels.reduced_kernel_matrix(np.array([0.5, 1.3]), np.array([delta, 0.1]), cfg)],
                         DomainError)
    assert messages[0] == messages[1]
    assert messages[0].endswith("has no significant digit (|delta| >= 2^52)")


@pytest.mark.parametrize("r,theta,named", [(-1.0, 0.3, "got r = -1"), (math.nan, 0.3, "got r = nan"),
                                           (math.inf, 0.3, "got r = inf"), (1e200, 0.3, "got r = 1e+200"),
                                           (0.8, math.nan, "got theta = nan"),
                                           (0.8, 1e300, "has no significant digit (|phase| >= 2^52)")],
                         ids=["negative-r", "nan-r", "inf-r", "u-overflows", "nan-theta", "phase-2^52"])
def test_synthesis_entry_points_refuse_the_same_points(cfg, r, theta, named):
    """Synthesis refuses the points ConePoint refuses, and a u = b0 r^2 / 2 or a phase that holds no digit.

    The message names the first bad value.  A point ConePoint holds is also
    refused as either point of spectral_kernel.
    """
    window = ModeWindow(4, 3)
    field = spectrum.random_field(window, np.random.default_rng(2))
    calls = [lambda: spectrum.fields_on_grid([field, field], [0.5, r], [0.1, theta], cfg),
             lambda: spectrum.field_on_grid(field, [r, 0.5], [theta], cfg)]
    if math.isfinite(r) and r >= 0.0 and math.isfinite(theta):
        point, inside, heat = ConePoint(r, theta), ConePoint(0.5, 0.1), spectrum.heat_multiplier(0.5)
        calls += [lambda: kernels.spectral_kernel(heat, point, inside, cfg, window),
                  lambda: kernels.spectral_kernel(heat, inside, point, cfg, window)]
    else:
        _refusals([lambda: ConePoint(r, theta)], DomainError)
    messages = _refusals(calls, DomainError)
    assert len(set(messages)) == 1 and messages[0].endswith(named)


def test_synthesis_takes_any_finite_angle_on_the_k_0_row(cfg):
    """The phase rule reads the live ks only: on k = 0 alone every phase is 0."""
    window = ModeWindow(4, 3)
    coeffs = np.zeros(window.shape, dtype=complex)
    coeffs[window.k_max] = [0.5, -0.25j, 0.125, 1.0]
    field = SpectralField(window, coeffs)
    far, near = (spectrum.field_on_grid(field, [0.7], [theta], cfg)[0, 0] for theta in (1e300, 0.0))
    assert far == near


# ---------------------------------------------------------------------------
# the command line under malformed config values
# ---------------------------------------------------------------------------

# every key of the config file, each at a value that keeps the run tiny: windows <= 8, grids <= 2
_TINY = {"sigma": "1.0", "b0": "1.0", "alpha": "0.25", "window_k": "4", "window_m": "4", "n_radial": "8",
         "n_theta": "8", "n_time": "2", "n_radius": "2", "n_angle": "2", "seed": "1"}
_MALFORMED = ["-1", "-0.5", "0", "0.5", "2.5", "1e308", "-1e308", "nan", "inf", "-inf",
              "123456789012345678901234567890", "1" + "0" * 400]
_CHEAP_COMMANDS = [["spectrum", "table"],
                   ["kernel", "heat", "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"],
                   ["kernel", "halfwave", "--j", "1", "--t", "0.5", "--p", "1.0,0.3", "--q", "0.8,2.1"],
                   ["verify", "energy"]]
_RUNS = itertools.count()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(cli._DEFAULTS)), value=st.sampled_from(_MALFORMED),
       command=st.sampled_from(_CHEAP_COMMANDS))
@example(key="seed", value="-1", command=["verify", "energy"])  # np.random.default_rng refused it with a traceback
@example(key="b0", value="1e308", command=["spectrum", "table"])  # the eigenvalues overflowed
def test_malformed_config_value_ends_in_a_documented_exit_code(tmp_path, key, value, command):
    run = next(_RUNS)
    config = tmp_path / f"c{run}.cfg"
    config.write_text("".join(f"{k} = {value if k == key else _TINY[k]}\n" for k in cli._DEFAULTS))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(config), "--out", str(tmp_path / f"o{run}"), *command])
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
