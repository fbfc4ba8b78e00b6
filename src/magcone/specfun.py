"""Special functions backing the spectral formulas.

Pochhammer symbols, generalized Laguerre polynomials (plain and normalized
to 1 at the origin), the Kummer and Tricomi confluent hypergeometric
functions, and Bessel J / modified Bessel I of real nonnegative order.
Series evaluations return a :class:`SeriesResult` carrying the peak term
magnitude so downstream code can monitor cancellation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
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


def pochhammer(a: float, n: int) -> float:
    """Rising factorial a (a+1) ... (a+n-1), with the empty product equal to 1."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    out = 1.0
    for i in range(n):
        out *= a + i
    return out


def laguerre(alpha: float, m: int, x):
    """Generalized Laguerre polynomial of degree m and index alpha > -1.

    Evaluated by the three-term recurrence in the degree; x may be a scalar
    or ndarray.
    """
    if alpha <= -1.0:
        raise DomainError(f"laguerre needs alpha > -1, got {alpha}")
    if m < 0:
        raise DomainError(f"laguerre needs m >= 0, got {m}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - x
    for n in range(1, m):
        prev, cur = cur, ((2 * n + 1 + alpha - x) * cur - (n + alpha) * prev) / (n + 1)
    return cur if cur.ndim else float(cur)


def normalized_laguerre_rows(alpha: float, m_max: int, x) -> np.ndarray:
    """Rows P[n] = L_n^alpha(x) / L_n^alpha(0) for n = 0..m_max; shape (m_max + 1,) + x.shape.

    The one normalized-Laguerre recurrence: it builds the radial factors of
    the eigenfunctions and the projections onto them.  Kept in the
    normalized scale to avoid the large binomial factors.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((m_max + 1,) + x.shape)
    rows[0] = 1.0
    if m_max >= 1:
        rows[1] = 1.0 - x / (1.0 + alpha)
    for n in range(1, m_max):
        rows[n + 1] = ((2 * n + 1 + alpha - x) * rows[n] - n * rows[n - 1]) / (n + 1 + alpha)
    return rows


def normalized_laguerre(alpha: float, m: int, x):
    """Laguerre polynomial rescaled so its value at x = 0 is exactly 1.

    Equals laguerre(alpha, m, x) / binomial(m + alpha, m), the radial
    polynomial entering the eigenfunctions: row m of normalized_laguerre_rows.
    """
    if m < 0:
        raise DomainError(f"normalized_laguerre needs m >= 0, got {m}")
    row = normalized_laguerre_rows(alpha, m, x)[m]
    return row if row.ndim else float(row)


def _nonpositive_int(a: float) -> bool:
    return a <= 0.0 and float(a).is_integer()


def kummer_m(a: float, b: float, z: complex) -> SeriesResult:
    """Confluent hypergeometric function M(a, b, z) by its ascending series.

    Terminates exactly when -a is a nonnegative integer.  Stops once two
    consecutive terms fall below the relative tail tolerance (a single small
    term can be an accidental zero of an alternating series).
    """
    if _nonpositive_int(b):
        raise DomainError(f"kummer_m undefined for nonpositive integer b = {b}")
    z = complex(z)
    degree = int(-a) if _nonpositive_int(a) else None
    term = 1.0 + 0.0j
    total = term
    largest = 1.0
    small_run = 0
    for n in range(_MAX_TERMS):
        if degree is not None and n >= degree:
            return SeriesResult(total, largest, n + 1)
        term *= (a + n) / ((b + n) * (n + 1)) * z
        total += term
        mag = abs(term)
        if not math.isfinite(mag):
            raise NonconvergenceError(f"kummer_m({a}, {b}, {z}) overflowed at term {n + 1}")
        largest = max(largest, mag)
        if mag <= _TAIL_TOL * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                return SeriesResult(total, largest, n + 2)
        else:
            small_run = 0
    raise NonconvergenceError(f"kummer_m({a}, {b}, {z}) hit the {_MAX_TERMS}-term cap")


def kummer_pair_tricomi(a: float, b: float, z: float) -> float:
    """Tricomi function through the two-Kummer combination (non-integer b).

    Cancels catastrophically for large z; kept as the identity oracle for
    :func:`tricomi_u` at moderate arguments.
    """
    if float(b).is_integer():
        raise DomainError(f"two-Kummer combination needs non-integer b, got {b}")
    g = _sp.gamma
    first = g(1.0 - b) / g(a - b + 1.0) * kummer_m(a, b, z).value.real
    second = g(b - 1.0) / g(a) * z ** (1.0 - b) * kummer_m(a - b + 1.0, 2.0 - b, z).value.real
    return first + second


def tricomi_u(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function of the second kind U(a, b, z).

    Restricted to a > 0, z > 0 and non-integer b (the only regime the
    spectral problem needs).
    """
    if abs(b - round(b)) < 1e-12:
        raise DomainError(f"tricomi_u needs non-integer b, got {b}")
    if not (a > 0.0):
        raise DomainError(f"tricomi_u needs a > 0, got {a}")
    if not (z > 0.0):
        raise DomainError(f"tricomi_u needs z > 0, got {z}")
    return float(_sp.hyperu(a, b, z))


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
