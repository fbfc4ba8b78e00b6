"""Bessel J and modified Bessel I of real nonnegative order.

The Bessel-product identity behind the heat and Schrodinger kernels is
checked against these; the modified Bessel series returns a
:class:`SeriesResult` carrying the peak term magnitude so callers can
monitor cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy import special as _sp

from .errors import DomainError, NonconvergenceError

_TAIL_TOL = 1e-16
_MAX_TERMS = 10_000


@dataclass(frozen=True)
class SeriesResult:
    """Value of a summed series plus cancellation diagnostics.

    largest_term is the maximum modulus over all partial-sum terms; a value
    much larger than abs(value) flags catastrophic cancellation.
    """

    value: complex
    largest_term: float
    terms_used: int


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order nu >= 0, x >= 0."""
    if nu < 0.0:
        raise DomainError(f"bessel_j needs nu >= 0, got {nu}")
    if x < 0.0:
        raise DomainError(f"bessel_j needs x >= 0, got {x}")
    return float(_sp.jv(nu, x))


def _series_peak(nu: float, r: float) -> tuple[float, int]:
    """Peak modulus and length of the ascending I-series with |z| = r."""
    if r == 0.0:
        return (1.0 if nu == 0.0 else 0.0), 1
    log_term = nu * math.log(r / 2.0) - _sp.gammaln(nu + 1.0)
    peak = log_term
    q = (r / 2.0) ** 2
    n = 0
    while n < _MAX_TERMS:
        log_term += math.log(q) - math.log((n + 1.0) * (n + 1.0 + nu))
        n += 1
        peak = max(peak, log_term)
        if log_term < peak - 40.0:
            break
    return math.exp(peak), n + 1


def bessel_i(nu: float, z: complex) -> SeriesResult:
    """Modified Bessel function of the first kind, real order nu >= 0, complex z.

    Principal branch of (z/2)^nu.  On the imaginary axis the value is taken
    through the rotation e^{i sgn(rho) nu pi/2} J_nu(|rho|), which is immune
    to the cancellation that kills the raw series there; largest_term still
    reports the raw-series peak as the conditioning diagnostic.
    """
    if nu < 0.0:
        raise DomainError(f"bessel_i needs nu >= 0, got {nu}")
    z = complex(z)
    if z == 0:
        return SeriesResult(1.0 + 0.0j if nu == 0.0 else 0.0 + 0.0j, 1.0 if nu == 0.0 else 0.0, 1)
    if z.real == 0.0:
        rho = z.imag
        value = cmath.exp(1j * math.copysign(1.0, rho) * nu * math.pi / 2.0) * _sp.jv(nu, abs(rho))
        peak, n = _series_peak(nu, abs(rho))
        return SeriesResult(value, peak, n)

    # ascending series, terms by recurrence
    term = cmath.exp(nu * cmath.log(z / 2.0) - _sp.gammaln(nu + 1.0))
    total = term
    largest = abs(term)
    q = (z / 2.0) ** 2
    small_run = 0
    for n in range(_MAX_TERMS):
        term *= q / ((n + 1.0) * (n + 1.0 + nu))
        total += term
        mag = abs(term)
        largest = max(largest, mag)
        if mag <= _TAIL_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                return SeriesResult(total, largest, n + 2)
        else:
            small_run = 0
    raise NonconvergenceError(f"bessel_i({nu}, {z}) hit the {_MAX_TERMS}-term cap")
