"""Adaptive panel quadrature and the half-wave sup sweep against verbatim oracles.

The oracles below are the earlier implementations kept word for word: the
recursive three-call ``adaptive_panel`` (coarse panel plus two half panels,
each a separate integrand call, one panel per call), the three-walk
``oscillatory_bessel_tail`` with its ``adaptive_line`` (on the recursion)
and the per-time einsum of ``kernels.halfwave_sup_curve``.  The engine calls its
integrand as ``f(s, panel)``, panel naming the top-level panel of each
node, while the recursion calls ``f(s)`` on one panel; the glue below
(``oracle_panels``, ``oracle_walk``) hands the recursion each top-level
panel's integrand with that panel's index filled in.  The engine walks
groups of at most ``_WALK_PANELS`` top-level panels breadth first and must
agree with the recursion bitwise and visit exactly its panels, also through
the callers that put several contour legs or a whole sweep into one call;
the half-wave sweep only reorders floating-point sums and must agree to
1e-13 relative.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from magcone import kernels, quadrature, verify
from magcone.errors import NonconvergenceError
from magcone.geometry import make_point
from magcone.kernels import heat_kernel_closed, schrodinger_angular_tail, schrodinger_kernel_closed
from magcone.lpbesov import make_cutoff
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


def oracle_halfwave_sup_curve(cfg, j, ts, r_nodes, dth_nodes, window, shell_modes):
    """sup_{p,q} |frequency-truncated half-wave kernel| at each time."""
    cutoff = make_cutoff()
    pos, neg_ms = shell_modes(j, cfg, window)

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


# The deleted quadrature.adaptive_line and the three-walk oscillatory_bessel_tail, statement for
# statement, with the recursion above in place of the engine (which matched it bitwise per panel).

def oracle_adaptive_line(f, edges, tol: float) -> complex:
    """Adaptive integration over consecutive panels between the given edges."""
    edges = np.asarray(edges, dtype=float)
    total = 0.0 + 0.0j
    for value in [oracle_adaptive_panel(f, a, b, tol / max(len(edges) - 1, 1)) for a, b in zip(edges[:-1], edges[1:])]:
        total += value
    return total


def oracle_oscillatory_bessel_tail(f_analytic, rho: float, decay_rate: float, tol: float) -> complex:
    """Integrate f(s) = e^{-i rho cosh s} g(s) over [0, inf) for decaying analytic g.

    g (hence f_analytic) must be analytic in Re s > 0 with |g| <= C e^{-decay_rate s}.
    The path is deformed: a short real segment [0, s0] (bounded oscillation),
    a vertical drop to Im s = -pi/2, then the horizontal line where
    -i rho cosh s is pure decay.  f_analytic(s) takes complex s.
    """
    rho = float(rho)
    # the production drop point: one oscillation of phase on the real segment
    s0 = min(max(0.5, math.acosh(1.0 + 2.0 * math.pi / max(rho, 1e-12))), 6.0)

    # real segment, apportioned so each panel spans O(2 pi) of phase
    n_a = max(4, int(math.ceil(rho * (math.cosh(s0) - 1.0) / (2.0 * math.pi))) + 4)
    total = oracle_adaptive_line(f_analytic, np.linspace(0.0, s0, n_a + 1), tol)

    # vertical drop s0 -> s0 - i pi/2
    def f_vert(v):
        return f_analytic(s0 - 1j * v) * (-1j)

    n_b = max(4, int(math.ceil(rho * math.cosh(s0) / (2.0 * math.pi))) + 4)
    total += oracle_adaptive_line(f_vert, np.linspace(0.0, 0.5 * math.pi, n_b + 1), tol)

    # horizontal line at Im s = -pi/2: |e^{-i rho cosh s}| = e^{-rho sinh a}.
    # Panels grow geometrically: with tiny decay_rate (flux near an endpoint)
    # and tiny rho the tail is long but log-scale smooth.
    def f_horiz(a):
        return f_analytic(a - 0.5j * math.pi)

    ends = [s0]
    width = 2.0
    while True:
        a = ends[-1] + width
        ends.append(a)
        envelope = math.exp(-rho * math.sinh(min(a, 700.0))) * math.exp(-decay_rate * min(a, 1e120))
        if envelope < tol or a > 1e120:
            break
        width = min(1.5 * width, 0.5 * a + 2.0)
    for value in [oracle_adaptive_panel(f_horiz, a, b, tol) for a, b in zip(ends[:-1], ends[1:])]:
        total += value
    return total


def on_panel(f, i):
    """The engine's integrand f(s, panel) as the recursion's f(s) on top-level panel i."""
    return lambda s: f(s, np.full(np.shape(s), i))


def oracle_panels(f, a, b, tol, order=16):
    """The recursion in the engine's call shape: arrays of panel ends in, one value per panel out."""
    a, b, tol = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                                    np.asarray(tol, dtype=float))
    values = [oracle_adaptive_panel(on_panel(f, i), lo, hi, t, order, UNBOUNDED)
              for i, (lo, hi, t) in enumerate(zip(a.ravel(), b.ravel(), tol.ravel()))]
    return np.array(values).reshape(a.shape)[()]


UNBOUNDED = 1 << 30  # a depth the recursion never reaches: each float panel halves at most ~2100 times


def oracle_walk(f, edges, tol, order=16):
    """The recursion on each panel between the edges, watched, with no depth limit.

    f is the engine's integrand f(s, panel).  Returns the values, every
    panel visited as (a, b, levels below the top, index of its top-level
    panel) and the panels that still change but that floats cannot halve
    (midpoint equal to an end), where the engine raises, as (a, b, level,
    top-level index); the recursion does not descend below them.  Panels
    are in the order the recursion reaches them.
    """
    values, panels, exhausted = [], [], []
    verbatim = oracle_adaptive_panel
    top = [0]

    def spy(f, a, b, tol, order=16, depth=UNBOUNDED):
        panels.append((a, b, UNBOUNDED - depth, top[0]))
        mid = 0.5 * (a + b)
        if mid in (a, b):
            coarse, l1 = _panel_with_l1(f, a, b, order)
            fine = gauss_panel(f, a, mid, order) + gauss_panel(f, mid, b, order)
            if not abs(fine - coarse) <= max(tol, 1e-15 * l1):
                exhausted.append((a, b, UNBOUNDED - depth, top[0]))
                return fine
        return verbatim(f, a, b, tol, order, depth)

    with pytest.MonkeyPatch.context() as m:
        m.setitem(globals(), "oracle_adaptive_panel", spy)  # the oracle recurses through this name
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            top[0] = i
            values.append(spy(on_panel(f, i), a, b, tol, order))
    return values, panels, exhausted


def first_exhausted(exhausted):
    """The panel the engine names: in the first walk group that has one, the leftmost of the shallowest level."""
    return min(exhausted, key=lambda e: (e[3] // quadrature._WALK_PANELS, e[2], e[0]))


def oracle_level_nodes(panels, order):
    """The integrand arguments of a breadth-first walk of the oracle's panel tree, one (s, panel) per level.

    The top level evaluates each panel and its two halves, every later level
    the two halves of each panel, panels left to right; node formulas are
    those of ``gauss_panel``, and each node carries its top-level panel.
    """
    x, _ = gauss_legendre_rule(order)
    levels = []
    for level in range(max(p[2] for p in panels) + 1):
        rows, owners = [], []
        for a, b, _, i in sorted(p for p in panels if p[2] == level):
            mid = 0.5 * (a + b)
            parts = ((a, b), (a, mid), (mid, b)) if level == 0 else ((a, mid), (mid, b))
            rows += [0.5 * (lo + hi) + 0.5 * (hi - lo) * x for lo, hi in parts]
            owners.append(np.full(len(parts) * order, i))
        levels.append((np.concatenate(rows), np.concatenate(owners)))
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
            m.setattr(kernels, "adaptive_panel", spy)
            m.setattr(verify, "adaptive_panel", spy)
            result = fn(*args)
        assert calls, f"{fn.__name__} never called the oracle"
        return result
    return run


# ---------------------------------------------------------------------------
# bitwise agreement with the three-call oracle
# ---------------------------------------------------------------------------

INTEGRANDS = {  # the engine's f(s, panel); these are the same on every panel
    "oscillatory": lambda x, panel: np.exp(7.3j * x) / (1.0 + x * x),
    "rounded_kink": lambda x, panel: np.sqrt((x - 0.37) ** 2 + 1e-4),
    "peak": lambda x, panel: 1.0 / (1e-3 + (x - 1.1) ** 2),
    "gaussian": lambda x, panel: np.exp(-x * x) * np.cos(3.0 * x),
}


@ORACLE_SETTINGS
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       a=st.floats(-10.0, 10.0),
       width=st.floats(1e-3, 20.0),
       tol=st.floats(-14.0, -3.0).map(lambda e: 10.0 ** e))
# rounding noise of about 1.7e-15 of the panel's L1 mass splits one panel down to where floats stop halving it
@example(name="peak", a=0.0, width=18.99520339236654, tol=1e-11)
# tol = 0 leaves the L1 rounding floor as the only way to accept a panel
@example(name="gaussian", a=-2.0, width=4.0, tol=0.0)
@example(name="oscillatory", a=-10.0, width=20.0, tol=0.0)
def test_adaptive_panel_bitwise_matches_oracle(name, a, width, tol):
    """Bitwise equal, except where the oracle meets a changing panel that floats cannot halve."""
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

    def recorded(x, panel):
        seen.append((np.array(x), np.array(panel)))
        return f(x, panel)

    expected = oracle_level_nodes(panels, quadrature._ORDER)
    if exhausted:
        with pytest.raises(NonconvergenceError):
            adaptive_panel(recorded, edges[:-1], edges[1:], tol)
        expected = expected[:first_exhausted(exhausted)[2] + 1]  # the engine stops at that level
    else:
        got = adaptive_panel(recorded, edges[:-1], edges[1:], tol)
        assert got.shape == (len(widths),)
        for new, old in zip(got, values):
            assert_bitwise(new, old)
    assert len(seen) == len(expected)
    for (new, new_panel), (old, old_panel) in zip(seen, expected):
        assert np.array_equal(new, old)
        assert new_panel.dtype.kind == "i" and np.array_equal(new_panel, old_panel)


def _off_boundary(theta, cfg, gap=0.05):
    period = cfg.period
    return all(abs(math.remainder(theta - c, period)) > gap for c in (-math.pi, math.pi))


@ORACLE_SETTINGS
@given(i_cfg=st.integers(0, 2),
       tb=st.floats(math.asin(0.2), math.pi - math.asin(0.2)),
       r1=st.floats(0.15, 3.0), r2=st.floats(0.15, 3.0),
       angle=st.floats(-math.pi, math.pi))
def test_heat_closed_bitwise_matches_oracle(use_oracle, i_cfg, tb, r1, r2, angle):
    """Heat tail x envelope on the real line, all panels in one engine call."""
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
    """The three legs of oscillatory_bessel_tail's contour (segment, drop and line) in one engine call."""
    cfg = REFERENCE[i_cfg]
    angle *= cfg.sigma
    if not _off_boundary(angle, cfg):
        angle += 0.2
    t = tb / cfg.b0
    # the closed form checks t b0 - (p.theta - q.theta) against the boundaries
    p, q = make_point(cfg, r1, 0.4 + tb - angle), make_point(cfg, r2, 0.4)
    assert_bitwise(schrodinger_kernel_closed(t, p, q, cfg).value,
                   use_oracle(schrodinger_kernel_closed, t, p, q, cfg).value)


@ORACLE_SETTINGS
@given(i_cfg=st.integers(0, 2), rho=st.floats(0.0, 40.0), theta=st.floats(-math.pi, math.pi),
       tol=st.floats(-11.0, -8.0).map(lambda e: 10.0 ** e))  # _closed_angular_bracket asks >= 1e-11
@example(i_cfg=0, rho=0.0, theta=0.5, tol=1e-11)
def test_oscillatory_tail_bitwise_matches_three_leg_oracle(i_cfg, rho, theta, tol):
    """The one-call contour against the three walks it replaced: each leg's tolerance, map and sum order."""
    cfg = REFERENCE[i_cfg]
    theta *= cfg.sigma
    if not _off_boundary(theta, cfg):
        theta += 0.2
    rate = min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)
    f = lambda s: np.exp(-1j * rho * np.cosh(np.asarray(s, dtype=complex))) * schrodinger_angular_tail(s, theta, cfg)
    assert_bitwise(quadrature.oscillatory_bessel_tail(f, rho, rate, tol),
                   oracle_oscillatory_bessel_tail(f, rho, rate, tol))


def test_contour_at_rho_1_walks_13_top_level_panels(cfg, monkeypatch):
    """One oscillation of real segment: 6 segment, 6 drop and 1 line panel (ten oscillations took 30)."""
    sizes = []
    engine = quadrature.adaptive_panel

    def counted(f, a, b, tol):
        sizes.append(np.size(a))
        return engine(f, a, b, tol)

    monkeypatch.setattr(quadrature, "adaptive_panel", counted)
    kernels._closed_angular_bracket(cfg, 1.0, 0.7)
    assert sizes == [13]


@pytest.mark.parametrize("theta", [-2.9, -1.0, 0.03, 1.7, 3.1])
def test_tail_l1_integrand_bitwise_matches_oracle(cfg, theta):
    """|S(s, theta)| on the edges and tolerance of angular_tail_l1_scan, all panels in one call."""
    rate = min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)
    f = lambda s: np.abs(schrodinger_angular_tail(np.asarray(s, dtype=float), theta * cfg.sigma, cfg))
    edges = np.concatenate([np.linspace(0.0, 2.0, 9), np.geomspace(2.0, 45.0 / rate, 12)])
    new = adaptive_panel(lambda s, panel: f(s), edges[:-1], edges[1:], 1e-10)
    assert new.shape == (edges.size - 1,)
    for value, a, b in zip(new, edges[:-1], edges[1:]):
        assert_bitwise(value, oracle_adaptive_panel(f, a, b, 1e-10))


def test_subordination_rows_bitwise_match_oracle(use_oracle):
    new = verify.subordination_identity_check()[0]
    old = use_oracle(verify.subordination_identity_check)[0]
    assert np.array_equal(new.csv_rows, old.csv_rows)


def test_tail_l1_rows_bitwise_match_oracle(use_oracle, cfg):
    """The sweep's one pass, every angle x 20 panels in one engine call, against one recursion per panel."""
    grids = verify.SweepGrids(n_angle=2)  # the pass walks 31 angles x 20 panels: two walk groups
    assert (16 * grids.n_angle - 1) * 20 > quadrature._WALK_PANELS
    new = verify.angular_tail_l1_scan(cfg, grids)[0]
    old = use_oracle(verify.angular_tail_l1_scan, cfg, grids)[0]
    assert new.csv_rows.tobytes() == old.csv_rows.tobytes()
    assert new.empirical_constant.hex() == old.empirical_constant.hex()


def test_angular_tail_with_an_angle_per_node_bitwise_matches_one_angle_a_call(cfg, rng):
    """The per-node angles of the tail-l1 sweep give each node the bits of a call with its angle alone."""
    thetas = np.concatenate((rng.uniform(-4.0, 4.0, 9), [0.0, -0.0]))
    s = np.concatenate((rng.uniform(0.0, 30.0, 500),
                        rng.uniform(0.0, 6.0, 500) - 1j * rng.uniform(0.0, 0.5 * math.pi, 500)))
    which = rng.integers(0, thetas.size, s.size)
    got = schrodinger_angular_tail(s, thetas[which], cfg)
    assert got.shape == s.shape
    for i, theta in enumerate(thetas):
        on = which == i
        want = schrodinger_angular_tail(s[on], float(theta), cfg)
        assert got[on].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# call-count contract and panels floats cannot halve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [quadrature._ORDER])
def test_one_integrand_call_per_level(order):
    sizes = []

    def f(x, panel):
        sizes.append(len(x))
        return np.exp(5j * x) / (0.1 + x * x)

    edges = np.array([-3.0, 0.0, 4.0])
    _, panels, _ = oracle_walk(lambda x, panel: np.exp(5j * x) / (0.1 + x * x), edges, 1e-12, order)
    quadrature.adaptive_panel(f, edges[:-1], edges[1:], 1e-12)
    per_level = [sum(1 for p in panels if p[2] == level) for level in range(len(sizes))]
    assert len(sizes) >= 4  # the integrand forces real bisection
    assert sum(per_level) == len(panels)  # the oracle goes no deeper than the engine
    # the top panels with their halves, then the halves of each panel a split made
    assert sizes == [3 * order * 2] + [2 * order * n for n in per_level[1:]]


def _walk_group_edges():
    n = 2 * quadrature._WALK_PANELS + 17
    return np.linspace(-5.0, 5.0, n + 1)


def test_walk_groups_keep_every_panel_value():
    """More top-level panels than one group: the values of a recursion per panel, one group per call."""
    edges = _walk_group_edges()
    # a panel-dependent frequency and peak, so the panel index must reach each node correctly
    f = lambda x, panel: np.exp(1j * (1.0 + panel % 7) * x) / (1e-3 + (x - 0.01 * (panel % 5)) ** 2)
    panels_seen = []

    def recorded(x, panel):
        panels_seen.append(np.array(panel))
        return f(x, panel)

    got = adaptive_panel(recorded, edges[:-1], edges[1:], 1e-12)
    want = oracle_panels(f, edges[:-1], edges[1:], 1e-12)
    assert got.shape == (edges.size - 1,)
    for new, old in zip(got, want):
        assert_bitwise(new, old)
    groups = [np.unique(panel // quadrature._WALK_PANELS) for panel in panels_seen]
    assert all(group.size == 1 for group in groups)  # no call mixes two groups
    assert [int(group[0]) for group in groups] == sorted(int(group[0]) for group in groups)
    assert {int(group[0]) for group in groups} == {0, 1, 2}
    assert panels_seen[0].size == 3 * quadrature._ORDER * quadrature._WALK_PANELS


def _one_float_wide(edges, *panels):
    """The edges with each given panel narrowed to [edge, next float]: floats cannot halve it."""
    edges = np.array(edges, dtype=float)
    for i in panels:
        edges[i + 1] = np.nextafter(edges[i], math.inf)
    return edges


def _nan_on(*panels):
    """An integrand that never converges on the given top-level panels (NaN there) and is 0 elsewhere."""
    return lambda x, panel: np.where(np.isin(panel, panels), np.nan, 0.0)


def test_float_stop_in_a_later_walk_group_names_its_panel():
    """Panels that floats cannot halve in the second and third group only: the error names the second group's."""
    stuck = (quadrature._WALK_PANELS + 80, 2 * quadrature._WALK_PANELS + 5)
    edges = _one_float_wide(_walk_group_edges(), *stuck)
    f = _nan_on(*stuck)
    _, _, exhausted = oracle_walk(f, edges, 1e-12)
    assert sorted(e[3] for e in exhausted) == list(stuck)
    a, b, _, top = first_exhausted(exhausted)
    assert top == stuck[0]
    with pytest.raises(NonconvergenceError, match=re.escape(f"[{float(a)!r}, {float(b)!r}]") + ".*level 1"):
        adaptive_panel(f, edges[:-1], edges[1:], 1e-12)


def test_one_engine_call_per_contour_and_per_sweep_pass(monkeypatch):
    """The Schrodinger contour's three legs share one call, and so does each sweep's one pass."""
    calls = []
    engine = quadrature.adaptive_panel

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return engine(*args, **kwargs)

    for module in (quadrature, kernels, verify):
        monkeypatch.setattr(module, "adaptive_panel", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    cfg = REFERENCE[0]
    t = 1.0 / cfg.b0
    p, q = make_point(cfg, 1.1, 0.9), make_point(cfg, 0.7, 0.4)
    assert count(schrodinger_kernel_closed, t, p, q, cfg) == 1
    assert count(heat_kernel_closed, t, p, q, cfg) == 1
    assert count(verify.angular_tail_l1_scan, cfg) == 1  # the fine pass; the coarse sup is read from it
    assert count(verify.subordination_identity_check) == 1


@pytest.mark.parametrize("sweep", ["tail-l1", "subordination"])
def test_sweep_walks_stay_below_4_mb(cfg, sweep):
    """Walking the top-level panels in groups bounds a sweep's memory; walking all at once took 31 MB."""
    run = {"tail-l1": lambda: verify.angular_tail_l1_scan(cfg),
           "subordination": lambda: verify.subordination_identity_check(cfg)}[sweep]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


def test_a_step_converges_where_floats_stop_halving():
    """A step splits one panel at every level until floats cannot halve it; there its halves agree exactly."""
    sizes = []

    def step(x, panel):
        sizes.append(x.size)
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    assert adaptive_panel(step, 0.0, 1.0, 1e-12) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert 50 <= len(sizes) <= 60 and max(sizes) <= 4 * quadrature._ORDER


def test_a_panel_floats_cannot_halve_raises_if_it_still_changes():
    """A NaN integrand never converges: on a panel one float wide the walk raises at once, naming it."""
    edges = _one_float_wide([1.0, 2.0], 0)
    with pytest.raises(NonconvergenceError, match=re.escape(f"[1.0, {float(edges[1])!r}]") + ".*level 1"):
        adaptive_panel(_nan_on(0), edges[:-1], edges[1:], 1e-12)


def test_a_level_past_the_node_cap_raises_before_calling_the_integrand():
    """A square wave of period 1e-6 splits every panel at every level: the walk stops at the node cap, not in memory."""
    sizes = []

    def square_wave(x, panel):
        sizes.append(x.size)
        return np.where(np.modf(x * 1e6)[0] < 0.3, 0.0, 1.0)

    with pytest.raises(NonconvergenceError,
                       match=rf"adaptive_panel: \d+ panels, the leftmost \[0\.0, .*{quadrature._WALK_NODES} nodes"):
        adaptive_panel(square_wave, 0.0, 1.0, 1e-12)
    assert max(sizes) <= quadrature._WALK_NODES < 2 * max(sizes)


def test_float_stop_names_the_leftmost_panel_of_the_first_level_that_meets_it():
    """The recursion reaches the left panel's stuck half first, but the walk meets the right panel a level earlier."""
    edges = np.array([1.0, 1.0 + 2.0 ** -51, 1.5, 1.5 + 2.0 ** -52])  # two floats wide, one, one
    f = _nan_on(0, 2)
    _, _, exhausted = oracle_walk(f, edges, 1e-12)
    assert [(e[2], e[3]) for e in exhausted] == [(1, 0), (1, 0), (0, 2)]
    assert first_exhausted(exhausted)[:2] == (1.5, edges[3])
    with pytest.raises(NonconvergenceError, match=re.escape(f"[1.5, {float(edges[3])!r}]") + ".*level 1"):
        adaptive_panel(f, edges[:-1], edges[1:], 1e-12)


def test_a_converged_panel_floats_cannot_halve_returns_fine():
    """The float stop raises only for a panel that still changes; a converged one returns its halves' sum."""
    poly = lambda x: x ** 3 - 2.0 * x
    edges = _one_float_wide([1.0, 2.0], 0)
    value = adaptive_panel(lambda x, panel: poly(x), edges[0], edges[1], 1e-12)
    assert_bitwise(value, oracle_adaptive_panel(poly, edges[0], edges[1], 1e-12))
    assert value == pytest.approx(-(edges[1] - edges[0]), rel=1e-12)


# ---------------------------------------------------------------------------
# half-wave sup curve against the per-time einsum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", [1, 2])
def test_halfwave_sup_curve_matches_einsum_oracle(cfg, j, shell_modes):
    lam_hi = 4.0 ** (j + 1)
    window = ModeWindow(k_max=int(math.ceil((lam_hi / cfg.b0) * cfg.sigma / 2.0)) + 8,
                        m_max=int(math.floor((lam_hi / cfg.b0 - 1.0) / 2.0)) + 1)
    ts = np.geomspace(2.0 ** -j, 2.0 ** j * math.pi / (2.0 * cfg.b0), 7)
    r_nodes = np.linspace(0.25, 4.0, 6)
    dtheta0 = -0.5 * cfg.period + 0.013
    dth = dtheta0 + np.arange(10) * (cfg.period / 10)
    new = kernels.halfwave_sup_curve(j, ts, r_nodes, dtheta0, 10, cfg, window).max(axis=(1, 2))
    # the oracle stops the k <= -1 branch at its window's edge: k_max = 2000 lies past every k the branch reaches
    old = oracle_halfwave_sup_curve(cfg, j, ts, r_nodes, dth, ModeWindow(2000, window.m_max), shell_modes)
    np.testing.assert_allclose(new, old, rtol=1e-13, atol=0.0)
