"""Stable closed forms built on Chebyshev polynomials of the first kind.

Everything here reduces to T_n evaluated through the trigonometric /
hyperbolic parametrization, never through the explicit power form
((x + sqrt(x^2-1))^n + (x - sqrt(x^2-1))^n) / 2, which overflows and
cancels.  Provides the rescaled single-interval (Remez) polynomial for
[-1+2*delta, 1], the even two-interval (Akhiezer) polynomial for
[-1,1] minus (-delta, delta) and the Remez constant.  General extremal
polynomials are carried by their active points instead (`extremal`).
"""

from __future__ import annotations

import math

from .errors import DomainError

# Arguments this close to |x| = 1 are treated as exactly +-1 so that
# roundoff never feeds acosh a value below 1.
_EDGE_GUARD = 1e-15


def cheb_T(n: int, x: float) -> float:
    """T_n(x) for any real x.

    Uses cos(n arccos x) on [-1, 1] and sign(x)^n cosh(n arccosh|x|)
    outside, which are exact parametrizations of the same polynomial.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    ax = abs(x)
    sign = 1.0 if (x >= 0 or n % 2 == 0) else -1.0
    if ax <= 1.0:
        return float(math.cos(n * math.acos(x)))
    if ax - 1.0 < _EDGE_GUARD:
        return sign
    y = n * math.acosh(ax)
    try:
        return sign * math.cosh(y)
    except OverflowError:
        raise DomainError(f"T_{n}({x:g}) = exp({y - math.log(2.0):.3f}) is beyond the "
                          f"float range") from None


def remez_constant(n: int, delta: float) -> float:
    """Largest value on [-1,1] of degree-n polynomials bounded by 1 on a
    subset of measure 2-2*delta; equals T_n((1+delta)/(1-delta))."""
    _check_delta(delta)
    return cheb_T(n, (1.0 + delta) / (1.0 - delta))


def remez_poly_value(n: int, delta: float, x: float) -> float:
    """Rescaled Chebyshev polynomial for the interval [-1+2*delta, 1].

    R(x) = T_n((delta - x)/(1 - delta)).  On [-1, -1+2*delta] it grows up to
    the Remez constant at x = -1.
    """
    _check_delta(delta)
    return cheb_T(n, (delta - x) / (1.0 - delta))


def akhiezer_even_value(m: int, delta: float, x: float) -> float:
    """Even extremal polynomial of degree 2m on [-1,1] minus (-delta, delta).

    A(x) = T_m((1 + delta^2 - 2 x^2)/(1 - delta^2)); the argument equals 1 at
    the gap edges x = +-delta and -1 at the outer edges x = +-1.
    """
    _check_delta(delta)
    return cheb_T(m, (1.0 + delta * delta - 2.0 * x * x) / (1.0 - delta * delta))


def _check_delta(delta):
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
