"""Stable closed forms built on Chebyshev polynomials of the first kind.

Everything here reduces to T_n evaluated through the trigonometric /
hyperbolic parametrization, never through the explicit power form
((x + sqrt(x^2-1))^n + (x - sqrt(x^2-1))^n) / 2, which overflows and
cancels.  Provides the rescaled single-interval (Remez) polynomial for
[-1+2*delta, 1], the even two-interval (Akhiezer) polynomial for
[-1,1] minus (-delta, delta), the Remez constant, Clenshaw evaluation
of general polynomials in the T_k basis, and their coefficients from values
at Chebyshev points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

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
    return sign * float(math.cosh(n * math.acosh(ax)))


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


def cheb_eval(coeffs, x):
    """Clenshaw backward recurrence for sum_k coeffs[k] * T_k(x).

    Accepts scalar or ndarray x; coefficients are in the T_k basis on [-1,1].
    """
    arr = np.asarray(x, dtype=float)
    b1 = np.zeros_like(arr)
    b2 = np.zeros_like(arr)
    two_x = 2.0 * arr
    for c in coeffs[:0:-1]:
        b1, b2 = c + two_x * b1 - b2, b1
    out = coeffs[0] + arr * b1 - b2
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def cheb_interp(f, n: int) -> np.ndarray:
    """T_k coefficients of the degree-n interpolant of a vectorized f at
    the n+1 first-kind Chebyshev points, by a cosine transform; they carry
    an error of eps * max |f| over the points."""
    theta = (np.arange(n + 1) + 0.5) * (math.pi / (n + 1))
    c = np.cos(np.outer(np.arange(n + 1), theta)) @ f(np.cos(theta))
    c *= 2.0 / (n + 1)
    c[0] *= 0.5
    return c


@dataclass(frozen=True)
class ChebPoly:
    """Degree-n polynomial carried as T_k-basis coefficients.

    No automatic degree trimming: the LP oracle works in a fixed coefficient
    space of dimension degree+1.  A leading coefficient that is exactly zero
    is only legal when the polynomial is flagged degree-deficient.
    """

    degree: int
    coeffs: tuple[float, ...]
    degree_deficient: bool = field(default=False)

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")
        if len(cs) != self.degree + 1:
            raise DomainError(
                f"need {self.degree + 1} coefficients for degree {self.degree}, got {len(cs)}"
            )
        if self.degree > 0 and cs[-1] == 0.0 and not self.degree_deficient:
            raise DomainError("zero leading coefficient requires the degree_deficient flag")
        object.__setattr__(self, "coeffs", cs)

    def __call__(self, x):
        return cheb_eval(self.coeffs, x)

    def to_json(self) -> str:
        return json.dumps({"degree": self.degree, "coeffs": list(self.coeffs)})

    @classmethod
    def from_json(cls, text: str) -> "ChebPoly":
        data = json.loads(text)
        return cls(int(data["degree"]), tuple(data["coeffs"]))
