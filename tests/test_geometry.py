import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magcone.errors import DomainError
from magcone.geometry import (
    ConeConfig,
    ConePoint,
    angular_difference,
    cone_distance,
    flux_distance,
    make_point,
)


def test_config_validation():
    with pytest.raises(DomainError):
        ConeConfig(sigma=0.8, b0=1.0, alpha=0.2)
    with pytest.raises(DomainError):
        ConeConfig(sigma=1.0, b0=0.0, alpha=0.2)
    with pytest.raises(DomainError):
        ConeConfig(sigma=2.0, b0=1.0, alpha=0.6)  # >= 1/sigma
    with pytest.raises(DomainError):
        ConeConfig(sigma=1.0, b0=1.0, alpha=0.0)


def test_make_point_canonicalizes_theta():
    cfg = ConeConfig(1.5, 1.0, 0.4)
    p = make_point(cfg, 1.0, cfg.period + 0.3)
    assert 0.0 <= p.theta < cfg.period
    assert p.theta == pytest.approx(0.3, abs=1e-12)
    q = make_point(cfg, 1.0, -0.3)
    assert q.theta == pytest.approx(cfg.period - 0.3, abs=1e-12)


def brute_force_angular_difference(t1, t2, cfg, j_range=8):
    """Oracle: the in-range representative found by scanning integer shifts."""
    best = None
    for j in range(-j_range, j_range + 1):
        cand = t1 - t2 + j * cfg.period
        if -cfg.sigma * math.pi < cand <= cfg.sigma * math.pi:
            best = cand
    return best


def test_angular_difference_examples():
    assert angular_difference(0.3, 0.3, ConeConfig(1.0, 1.0, 0.25)) == 0.0

    cfg2 = ConeConfig(2.0, 1.0, 0.3)
    assert angular_difference(0.0, cfg2.period - 0.1, cfg2) == pytest.approx(0.1, abs=1e-12)

    cfg15 = ConeConfig(1.5, 1.0, 0.4)
    t1 = 1.5 * math.pi + 0.2
    expected = brute_force_angular_difference(t1, 0.0, cfg15)
    assert expected == pytest.approx(-1.5 * math.pi + 0.2, abs=1e-12)
    assert angular_difference(t1, 0.0, cfg15) == pytest.approx(expected, abs=1e-12)


def test_angular_difference_range_random(cfg, rng):
    half = cfg.sigma * math.pi
    for _ in range(300):
        t1, t2 = rng.uniform(-20, 20, size=2)
        d = angular_difference(t1, t2, cfg)
        assert -half < d <= half
        assert abs(math.remainder(d - (t1 - t2), cfg.period)) < 1e-9
        assert d == pytest.approx(brute_force_angular_difference(t1, t2, cfg), abs=1e-9)


def test_cone_distance_examples():
    cfg = ConeConfig(1.5, 1.0, 0.4)
    p = make_point(cfg, 1.3, 2.0)
    assert cone_distance(p, p, cfg) == 0.0
    assert cone_distance(make_point(cfg, 1, 0), make_point(cfg, 2, 0), cfg) == pytest.approx(1.0)

    cfg2 = ConeConfig(2.0, 1.0, 0.3)
    p = make_point(cfg2, 1.0, 0.0)
    q = make_point(cfg2, 1.0, 2.0 * math.pi)  # angular separation 2 pi >= pi: through the tip
    assert cone_distance(p, q, cfg2) == pytest.approx(2.0)


def test_cone_distance_same_ray_exact(cfg, rng):
    for _ in range(100):
        r1, r2 = rng.uniform(0, 5, size=2)
        th = rng.uniform(0, cfg.period)
        p, q = ConePoint(r1, th), ConePoint(r2, th)
        assert cone_distance(p, q, cfg) == abs(r1 - r2)


def test_cone_distance_metric_properties(cfg, rng):
    pts = [make_point(cfg, rng.uniform(0, 3), rng.uniform(0, cfg.period)) for _ in range(3 * 1000)]
    for i in range(0, len(pts) - 2, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        dab = cone_distance(a, b, cfg)
        assert dab == pytest.approx(cone_distance(b, a, cfg), abs=1e-12)
        assert dab <= cone_distance(a, c, cfg) + cone_distance(c, b, cfg) + 1e-12


def test_flux_distance_examples():
    assert flux_distance(ConeConfig(1.0, 1.0, 0.25)) == pytest.approx(0.25)
    assert flux_distance(ConeConfig(2.0, 1.0, 0.3)) == pytest.approx(0.2)
    # maximal possible value 1/(2 sigma) is attained at the midpoint
    assert flux_distance(ConeConfig(1.0, 1.0, 0.5)) == pytest.approx(0.5)
    assert type(flux_distance(ConeConfig(1.5, 1.0, 0.4))) is float


def test_flux_distance_bound_random(rng):
    for _ in range(1000):
        sigma = rng.uniform(1.0, 4.0)
        alpha = rng.uniform(1e-6, 1.0 / sigma - 1e-6)
        cfg = ConeConfig(sigma, 1.0, alpha)
        kappa = flux_distance(cfg)
        assert 0.0 <= kappa <= 1.0 / (2.0 * sigma) + 1e-15
        # oracle: dense lattice scan
        lattice = np.arange(-6, 7) / sigma
        assert kappa == pytest.approx(np.abs(alpha - lattice).min(), abs=1e-14)


@settings(max_examples=500, deadline=None)
@given(sigma=st.floats(1.0, 100.0), data=st.data())
def test_flux_distance_is_the_tail_rate_bitwise(sigma, data):
    """On (0, 1/sigma), kappa is min(alpha, 1/sigma - alpha) to the bit: the rate both angular tails decay at."""
    alpha = data.draw(st.floats(0.0, 1.0 / sigma, exclude_min=True, exclude_max=True))
    kappa = flux_distance(ConeConfig(sigma, 1.0, alpha))
    assert kappa.hex() == min(alpha, 1.0 / sigma - alpha).hex()


@pytest.mark.parametrize("r,theta", [(math.inf, 0.0), (math.nan, 0.0), (-0.5, 0.0),
                                     (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_cone_point_rejects_non_finite_and_negative(r, theta):
    with pytest.raises(DomainError):
        ConePoint(r, theta)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
def test_make_point_wraps_a_tiny_negative_angle_to_zero(sigma):
    """-1e-20 + period rounds to the period itself, which lies outside [0, period): the seam maps it to 0."""
    p = make_point(ConeConfig(sigma, 1.0, 0.25), 1.0, -1e-20)
    assert p.theta == 0.0


def test_make_point_rejects_non_finite():
    cfg = ConeConfig(1.5, 1.0, 0.4)
    with pytest.raises(DomainError):
        make_point(cfg, math.inf, 0.0)  # what `kernel heat --p inf,0` builds
    with pytest.raises(DomainError):
        make_point(cfg, 1.0, math.nan)


@pytest.mark.parametrize("sigma,b0", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
def test_config_rejects_non_finite(sigma, b0):
    with pytest.raises(DomainError):
        ConeConfig(sigma=sigma, b0=b0, alpha=0.2)


def _flux_distance_by_loop(cfg):
    """Oracle: the nearest n / sigma over every integer n that could be nearest."""
    n_hi = math.ceil(cfg.sigma * cfg.alpha) + 1
    return min(abs(cfg.alpha - n / cfg.sigma) for n in range(-n_hi, n_hi + 1))


@settings(max_examples=300, deadline=None)
@given(sigma=st.floats(1.0, 1e6), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_flux_distance_matches_the_nearest_integer_flux(sigma, u):
    alpha = u / sigma
    if not 0.0 < alpha < 1.0 / sigma:
        return
    cfg = ConeConfig(sigma, 1.0, alpha)
    assert flux_distance(cfg) == _flux_distance_by_loop(cfg)
