"""Adaptive panel quadrature and the half-wave sup sweep against verbatim oracles.

The oracles below are the earlier implementations kept word for word: the
recursive three-call ``adaptive_panel`` (coarse panel plus two half panels,
each a separate integrand call, one panel per call) and the per-time einsum
of ``_halfwave_sup_curve``.  The breadth-first engine must agree with the
recursion bitwise and visit exactly its panels; the half-wave sweep only
reorders floating-point sums and must agree to 1e-13 relative.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from magcone import quadrature, verify
from magcone.errors import NonconvergenceError
from magcone.geometry import make_point
from magcone.kernels import heat_kernel_closed, schrodinger_angular_tail, schrodinger_kernel_closed
from magcone.lpbesov import _shell_mode_lists, make_cutoff
from magcone.quadrature import adaptive_panel, gauss_legendre_rule
from magcone.spectrum import ModeWindow, eigenvalue, radial_profiles

REFERENCE = verify.REFERENCE_CONFIGS
ORACLE_SETTINGS = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# oracles: the earlier implementations, verbatim
# ---------------------------------------------------------------------------

def gauss_panel(f, a: float, b: float, order: int = 16) -> complex:
    """Gauss-Legendre quadrature of a vectorized integrand on one panel."""
    x, w = gauss_legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * np.sum(w * f(mid + half * x))


def _panel_with_l1(f, a: float, b: float, order: int) -> tuple[complex, float]:
    x, w = gauss_legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(f(mid + half * x))
    return half * np.sum(w * vals), abs(half) * float(np.sum(w * np.abs(vals)))


def oracle_adaptive_panel(f, a: float, b: float, tol: float, order: int = 16, depth: int = 28) -> complex:
    """Adaptive bisection: accept a panel when halving changes it by < tol.

    Also accepts once the change falls below the panel's own rounding floor
    (a small multiple of its L1 mass), so integrands dominated by
    cancellation noise cannot recurse forever.
    """
    coarse, l1 = _panel_with_l1(f, a, b, order)
    mid = 0.5 * (a + b)
    fine = gauss_panel(f, a, mid, order) + gauss_panel(f, mid, b, order)
    if abs(fine - coarse) <= max(tol, 1e-15 * l1) or depth <= 0:
        return fine
    return oracle_adaptive_panel(f, a, mid, 0.5 * tol, order, depth - 1) + oracle_adaptive_panel(
        f, mid, b, 0.5 * tol, order, depth - 1
    )


def oracle_halfwave_sup_curve(cfg, j, ts, r_nodes, dth_nodes, window):
    """sup_{p,q} |frequency-truncated half-wave kernel| at each time."""
    cutoff = make_cutoff()
    pos, neg_ms = _shell_mode_lists(j, cfg, window)

    blocks = []  # (k, sqrt(lam), phi weights, radial matrix)
    for k, ms in pos:
        lam = np.asarray(eigenvalue(cfg, k, ms), dtype=float)
        rad = radial_profiles(cfg, k, int(ms.max()), r_nodes)[ms, :]
        blocks.append((k, np.sqrt(lam), cutoff(np.sqrt(lam) / 2.0 ** j), rad))
    if neg_ms.size:
        lam_neg = np.asarray(eigenvalue(cfg, -1, neg_ms), dtype=float)
        w_neg = cutoff(np.sqrt(lam_neg) / 2.0 ** j)
        scale = 0.0
        k = -1
        stall = 0
        while -k <= window.k_max:
            rad = radial_profiles(cfg, k, int(neg_ms.max()), r_nodes)[neg_ms, :]
            mag = float((w_neg[:, None] * np.abs(rad)).max()) ** 2
            scale = max(scale, mag)
            if mag <= 1e-13 * max(scale, 1e-300):
                stall += 1
                if stall >= 3:
                    break
            else:
                stall = 0
                blocks.append((k, np.sqrt(lam_neg), w_neg, rad))
            k -= 1

    sups = np.empty(ts.size)
    for i_t, t in enumerate(ts):
        acc = np.zeros((dth_nodes.size, r_nodes.size * r_nodes.size), dtype=complex)
        for k, sq, w, rad in blocks:
            mk = np.einsum("m,mi,mj->ij", w * np.exp(1j * t * sq), rad, rad)
            acc += np.outer(np.exp(1j * (k / cfg.sigma) * dth_nodes), mk.ravel())
        sups[i_t] = float(np.abs(acc).max())
    return sups


def oracle_panels(f, a, b, tol, order=16, depth=28):
    """The recursion in the engine's call shape: arrays of panel ends in, one value per panel out."""
    a, b, tol = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                    np.asarray(tol, dtype=float))
    values = [oracle_adaptive_panel(f, lo, hi, t, order, depth)
              for lo, hi, t in zip(a.ravel(), b.ravel(), tol.ravel())]
    return np.array(values).reshape(a.shape)[()]


def oracle_walk(f, edges, tol, order=16, depth=28):
    """The recursion on each panel between the edges, watched.

    Returns the values, every panel visited as (a, b, levels below the top)
    and the panels accepted unconverged at the depth limit, where the engine
    raises; panels in the order the recursion reaches them.
    """
    values, panels, exhausted = [], [], []
    verbatim = oracle_adaptive_panel

    def spy(f, a, b, tol, order=16, depth=28):
        panels.append((a, b, top_depth - depth))
        if depth <= 0:
            coarse, l1 = _panel_with_l1(f, a, b, order)
            mid = 0.5 * (a + b)
            fine = gauss_panel(f, a, mid, order) + gauss_panel(f, mid, b, order)
            if abs(fine - coarse) > max(tol, 1e-15 * l1):
                exhausted.append((a, b))
        return verbatim(f, a, b, tol, order, depth)

    top_depth = depth
    with pytest.MonkeyPatch.context() as m:
        m.setitem(globals(), "oracle_adaptive_panel", spy)  # the oracle recurses through this name
        for a, b in zip(edges[:-1], edges[1:]):
            values.append(spy(f, a, b, tol, order, depth))
    return values, panels, exhausted


def oracle_level_nodes(panels, order):
    """The integrand arguments of a breadth-first walk of the oracle's panel tree, one array per level.

    The top level evaluates each panel and its two halves, every later level
    the two halves of each panel, panels left to right; node formulas are
    those of ``gauss_panel``.
    """
    x, _ = gauss_legendre_rule(order)
    levels = []
    for level in range(max(p[2] for p in panels) + 1):
        rows = []
        for a, b, _ in sorted(p for p in panels if p[2] == level):
            mid = 0.5 * (a + b)
            parts = ((a, b), (a, mid), (mid, b)) if level == 0 else ((a, mid), (mid, b))
            rows += [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in parts]
        levels.append(np.concatenate(rows))
    return levels


def assert_bitwise(new, old):
    new, old = complex(new), complex(old)
    assert (new.real.hex(), new.imag.hex()) == (old.real.hex(), old.imag.hex()), (new, old)


@pytest.fixture
def use_oracle(monkeypatch):
    """Run a callable with the oracle installed wherever the package looks adaptive_panel up.

    Fails unless the callable reached the oracle, so a bitwise comparison
    can never compare the engine with itself.
    """
    def run(fn, *args):
        calls = []

        def spy(*a, **k):
            calls.append(a[1:3])
            return oracle_panels(*a, **k)

        with monkeypatch.context() as m:
            m.setattr(quadrature, "adaptive_panel", spy)
            m.setattr(verify, "adaptive_panel", spy)
            result = fn(*args)
        assert calls, f"{fn.__name__} never called the oracle"
        return result
    return run


# ---------------------------------------------------------------------------
# bitwise agreement with the three-call oracle
# ---------------------------------------------------------------------------

INTEGRANDS = {
    "oscillatory": lambda x: np.exp(7.3j * x) / (1.0 + x * x),
    "rounded_kink": lambda x: np.sqrt((x - 0.37) ** 2 + 1e-4),
    "peak": lambda x: 1.0 / (1e-3 + (x - 1.1) ** 2),
    "gaussian": lambda x: np.exp(-x * x) * np.cos(3.0 * x),
}


@ORACLE_SETTINGS
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       a=st.floats(-10.0, 10.0),
       width=st.floats(1e-3, 20.0),
       tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e))
# rounding noise of about 1.7e-15 of the panel's L1 mass outlasts the depth limit here
@example(name="peak", a=0.0, width=18.99520339236654, tol=1e-11)
# tol = 0 leaves the L1 rounding floor as the only way to accept a panel
@example(name="gaussian", a=-2.0, width=4.0, tol=0.0)
@example(name="oscillatory", a=-10.0, width=20.0, tol=0.0)
def test_adaptive_panel_bitwise_matches_oracle(name, a, width, tol):
    """Bitwise equal, except where the oracle accepted an unconverged panel at the depth limit."""
    f = INTEGRANDS[name]
    (old,), _, exhausted = oracle_walk(f, (a, a + width), tol)
    if exhausted:
        with pytest.raises(NonconvergenceError):
            adaptive_panel(f, a, a + width, tol)
    else:
        assert_bitwise(adaptive_panel(f, a, a + width, tol), old)


@ORACLE_SETTINGS
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       a=st.floats(-10.0, 10.0),
       widths=st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=4),
       tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e))
@example(name="peak", a=0.0, widths=[18.99520339236654], tol=1e-11)
@example(name="oscillatory", a=-10.0, widths=[5.0, 5.0, 10.0], tol=0.0)
def test_engine_visits_the_oracle_panels(name, a, widths, tol):
    """One integrand call per level, on exactly the panels the recursion visits, left to right."""
    f = INTEGRANDS[name]
    edges = a + np.concatenate(([0.0], np.cumsum(widths)))
    values, panels, exhausted = oracle_walk(f, edges, tol)
    seen = []

    def recorded(x):
        seen.append(np.array(x))
        return f(x)

    if exhausted:
        with pytest.raises(NonconvergenceError):
            adaptive_panel(recorded, edges[:-1], edges[1:], tol)
    else:
        got = adaptive_panel(recorded, edges[:-1], edges[1:], tol)
        assert got.shape == (len(widths),)
        for new, old in zip(got, values):
            assert_bitwise(new, old)
    expected = oracle_level_nodes(panels, quadrature._ORDER)
    assert len(seen) == len(expected)
    for new, old in zip(seen, expected):
        assert np.array_equal(new, old)


def _off_boundary(theta, cfg, gap=0.05):
    period = cfg.period
    return all(abs(math.remainder(theta - c, period)) > gap for c in (-math.pi, math.pi))


@ORACLE_SETTINGS
@given(i_cfg=st.integers(0, 2),
       tb=st.floats(math.asin(0.2), math.pi - math.asin(0.2)),
       r1=st.floats(0.15, 3.0), r2=st.floats(0.15, 3.0),
       angle=st.floats(-math.pi, math.pi))
def test_heat_closed_bitwise_matches_oracle(use_oracle, i_cfg, tb, r1, r2, angle):
    """Heat tail x envelope on the real line, through adaptive_line."""
    cfg = REFERENCE[i_cfg]
    angle *= cfg.sigma
    if not _off_boundary(angle, cfg):
        angle += 0.2
    t = tb / cfg.b0
    p, q = make_point(cfg, r1, 0.4 + angle), make_point(cfg, r2, 0.4)
    assert_bitwise(heat_kernel_closed(t, p, q, cfg).value,
                   use_oracle(heat_kernel_closed, t, p, q, cfg).value)


@ORACLE_SETTINGS
@given(i_cfg=st.integers(0, 2),
       tb=st.floats(math.asin(0.2), math.pi - math.asin(0.2)),
       r1=st.floats(0.15, 3.0), r2=st.floats(0.15, 3.0),
       angle=st.floats(-math.pi, math.pi))
def test_schrodinger_closed_bitwise_matches_oracle(use_oracle, i_cfg, tb, r1, r2, angle):
    """Both deformed-contour legs of oscillatory_bessel_tail (vertical and horizontal)."""
    cfg = REFERENCE[i_cfg]
    angle *= cfg.sigma
    if not _off_boundary(angle, cfg):
        angle += 0.2
    t = tb / cfg.b0
    # the closed form checks t b0 - (p.theta - q.theta) against the boundaries
    p, q = make_point(cfg, r1, 0.4 + tb - angle), make_point(cfg, r2, 0.4)
    assert_bitwise(schrodinger_kernel_closed(t, p, q, cfg).value,
                   use_oracle(schrodinger_kernel_closed, t, p, q, cfg).value)


@pytest.mark.parametrize("theta", [-2.9, -1.0, 0.03, 1.7, 3.1])
def test_tail_l1_integrand_bitwise_matches_oracle(cfg, theta):
    """|S(s, theta)| on the edges and tolerance of angular_tail_l1_scan, all panels in one call."""
    rate = min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)
    f = lambda s: np.abs(schrodinger_angular_tail(np.asarray(s, dtype=float), theta * cfg.sigma, cfg))
    edges = np.concatenate([np.linspace(0.0, 2.0, 9), np.geomspace(2.0, 45.0 / rate, 12)])
    new = adaptive_panel(f, edges[:-1], edges[1:], 1e-10)
    assert new.shape == (edges.size - 1,)
    for value, a, b in zip(new, edges[:-1], edges[1:]):
        assert_bitwise(value, oracle_adaptive_panel(f, a, b, 1e-10))


def test_subordination_rows_bitwise_match_oracle(use_oracle):
    new = verify.subordination_identity_check()[0]
    old = use_oracle(verify.subordination_identity_check)[0]
    assert np.array_equal(new.csv_rows, old.csv_rows)


# ---------------------------------------------------------------------------
# call-count contract and depth exhaustion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [quadrature._ORDER])
def test_one_integrand_call_per_level(order):
    sizes = []

    def f(x):
        sizes.append(len(x))
        return np.exp(5j * x) / (0.1 + x * x)

    edges = np.array([-3.0, 0.0, 4.0])
    _, panels, _ = oracle_walk(lambda x: np.exp(5j * x) / (0.1 + x * x), edges, 1e-12, order)
    quadrature.adaptive_panel(f, edges[:-1], edges[1:], 1e-12)
    per_level = [sum(1 for p in panels if p[2] == level) for level in range(len(sizes))]
    assert len(sizes) >= 4  # the integrand forces real bisection
    assert sum(per_level) == len(panels)  # the oracle goes no deeper than the engine
    # the top panels with their halves, then the halves of each panel a split made
    assert sizes == [3 * order * 2] + [2 * order * n for n in per_level[1:]]


def test_depth_exhaustion_raises():
    # a step never converges, so the walk reaches the depth limit of 28
    step = lambda x: np.where(x < 1.0 / 3.0, 0.0, 1.0)
    with pytest.raises(NonconvergenceError):
        adaptive_panel(step, 0.0, 1.0, 1e-12)


def test_depth_limit_names_the_panel_the_recursion_reaches_first(monkeypatch):
    # both top panels end unconverged at the limit; the right one changes more
    monkeypatch.setattr(quadrature, "_DEPTH", 3)
    steps = lambda x: np.where(x < 0.3, 0.0, 1.0) + np.where(x < 0.8, 0.0, 5.0)
    edges = np.array([0.0, 0.5, 1.0])
    _, _, exhausted = oracle_walk(steps, edges, 1e-12, depth=3)
    assert len(exhausted) == 2
    first = exhausted[0]
    with pytest.raises(NonconvergenceError, match=re.escape(f"[{float(first[0])!r}, {float(first[1])!r}]")):
        adaptive_panel(steps, edges[:-1], edges[1:], 1e-12)


def test_converged_panel_at_depth_zero_returns_fine(monkeypatch):
    monkeypatch.setattr(quadrature, "_DEPTH", 0)
    poly = lambda x: x ** 3 - 2.0 * x
    value = adaptive_panel(poly, 0.0, 2.0, 1e-12)
    assert_bitwise(value, oracle_adaptive_panel(poly, 0.0, 2.0, 1e-12, depth=0))
    assert value == pytest.approx(0.0, abs=1e-13)


# ---------------------------------------------------------------------------
# half-wave sup curve against the per-time einsum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", [1, 2])
def test_halfwave_sup_curve_matches_einsum_oracle(cfg, j):
    lam_hi = 4.0 ** (j + 1)
    window = ModeWindow(k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
                        m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
    ts = np.geomspace(2.0 ** -j, 2.0 ** j * math.pi / (2.0 * cfg.b0), 7)
    r_nodes = np.linspace(0.25, 4.0, 6)
    dth = np.linspace(-0.5 * cfg.period, 0.5 * cfg.period, 10, endpoint=False) + 0.013
    new = verify._halfwave_sup_curve(cfg, j, ts, r_nodes, dth, window)
    old = oracle_halfwave_sup_curve(cfg, j, ts, r_nodes, dth, window)
    np.testing.assert_allclose(new, old, rtol=1e-13, atol=0.0)
