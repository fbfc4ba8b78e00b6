"""Flat-cone geometry: configuration, points, angular arithmetic, geodesic distance.

The surface is the product cone (0, inf) x circle of circumference
``2*pi*sigma`` with metric dr^2 + r^2 dtheta^2.  ``ConeConfig`` bundles the
three parameters every other module consumes: the cone opening ``sigma``,
the uniform field strength ``b0`` and the flux offset ``alpha`` carried by
the tip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class ConeConfig:
    """Cone opening, uniform field strength, and tip flux.

    sigma:  cross-section radius of the cone (>= 1, dimensionless);
            sigma = 1 is the Euclidean plane.
    b0:     uniform magnetic field strength (> 0, units 1/length^2).
    alpha:  flux offset, restricted to the open reduced range (0, 1/sigma);
            the endpoints are gauge-trivial and break the angular
            resummation identities.
    """

    sigma: float
    b0: float
    alpha: float

    def __post_init__(self) -> None:
        if not (1.0 <= self.sigma < math.inf):
            raise DomainError(f"sigma must be finite and >= 1, got {self.sigma}")
        if not (0.0 < self.b0 < math.inf):
            raise DomainError(f"b0 must be finite and > 0, got {self.b0}")
        if not (0.0 < self.alpha < 1.0 / self.sigma):
            raise DomainError(
                f"alpha must lie in (0, {1.0 / self.sigma}) for sigma={self.sigma}, got {self.alpha}"
            )

    @property
    def period(self) -> float:
        """Angular period 2*pi*sigma of the cone."""
        return 2.0 * math.pi * self.sigma


@dataclass(frozen=True)
class ConePoint:
    """Point (r, theta) on the cone.

    Build through make_point() to store theta in the canonical window
    [0, 2*pi*sigma); every operation reduces angles itself, so a raw theta
    is never wrong, only non-canonical.
    """

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.r < math.inf):
            raise DomainError(f"r must be finite and >= 0, got {self.r}")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")


def make_point(cfg: ConeConfig, r: float, theta: float) -> ConePoint:
    """Build a ConePoint with theta reduced to the canonical window [0, period)."""
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    period = cfg.period
    t = math.fmod(theta, period)
    if t < 0.0:
        t += period
    if t >= period:  # fmod rounding at the seam
        t -= period
    return ConePoint(r, t)


def angular_difference(t1: float, t2: float, cfg: ConeConfig) -> float:
    """Canonical representative of t1 - t2 modulo the period, in (-sigma*pi, sigma*pi]."""
    period = cfg.period
    d = math.remainder(t1 - t2, period)
    if d <= -0.5 * period:
        d += period
    return d


def cone_distance(p: ConePoint, q: ConePoint, cfg: ConeConfig) -> float:
    """Geodesic distance on the flat cone.

    For angular separation below pi the geodesic stays on the lateral
    surface (law of cosines); beyond that it passes through the tip and the
    distance degenerates to r_p + r_q.
    """
    delta = abs(angular_difference(p.theta, q.theta, cfg))
    if delta >= math.pi:
        return p.r + q.r
    if delta == 0.0:  # same ray: exact, no law-of-cosines rounding
        return abs(p.r - q.r)
    d2 = p.r * p.r + q.r * q.r - 2.0 * p.r * q.r * math.cos(delta)
    return math.sqrt(max(d2, 0.0))


def flux_distance(cfg: ConeConfig) -> float:
    """kappa = min(alpha, 1/sigma - alpha): alpha's distance to the nearest gauge-trivial flux n/sigma, n integer."""
    return min(cfg.alpha, 1.0 / cfg.sigma - cfg.alpha)
