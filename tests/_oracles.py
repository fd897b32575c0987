"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the package's adaptive quadrature and
search machinery: plain midpoint rules on huge fixed grids, cumulative-sum
tricks, dense scans and exact rational arithmetic.  Slow but simple enough
to trust.
"""

import math
from fractions import Fraction

import numpy as np


def midpoint_c(alpha, delta, panels=1_000_000):
    """Critical point via a fixed midpoint rule on (0, pi)."""
    phi = (np.arange(panels) + 0.5) * (math.pi / panels)
    xi = alpha - delta * np.cos(phi)
    w = 1.0 / np.sqrt(1.0 - xi * xi)
    u = float((np.cos(phi) * w).sum() * (math.pi / panels))
    v = float(w.sum() * (math.pi / panels))
    return alpha - delta * u / v


def midpoint_green(alpha, delta, x, panels=1_000_000):
    """Two-interval Green value via the same midpoint rule."""
    c = midpoint_c(alpha, delta, panels)
    phix = math.acos(min(1.0, max(-1.0, (alpha - x) / delta)))
    h = (math.pi - phix) / panels
    psi = phix + (np.arange(panels) + 0.5) * h
    xi = alpha - delta * np.cos(psi)
    return float((((xi - c) / np.sqrt(1.0 - xi * xi)).sum()) * h), c


def dense_stationary_scan(alpha, delta, nodes=4096, scan=10_000):
    """Sign change of dG/dalpha located by a dense scan.

    The two integrals share the phi-grid, so a cumulative trapezoid from
    each scan abscissa's phi(x) makes the whole scan one vectorized pass.
    """
    a, b = alpha - delta, alpha + delta
    c = midpoint_c(alpha, delta)
    # cdot by central difference of the midpoint-rule c
    h = 1e-6
    cdot = (midpoint_c(alpha + h, delta) - midpoint_c(alpha - h, delta)) / (2 * h)

    phi = np.linspace(0.0, math.pi, nodes)
    xi = alpha - delta * np.cos(phi)
    one = 1.0 - xi * xi
    f1 = (1.0 - c * xi) / one ** 1.5
    f3 = 1.0 / np.sqrt(one)

    def tail_integrals(phi0):
        # trapezoid of f1, f3 over [phi0, pi] via interpolation on the grid
        i1 = np.interp(phi0, phi, cum1[-1] - cum1)
        i3 = np.interp(phi0, phi, cum3[-1] - cum3)
        return i1, i3

    dphi = phi[1] - phi[0]
    cum1 = np.concatenate([[0.0], np.cumsum(0.5 * (f1[1:] + f1[:-1]) * dphi)])
    cum3 = np.concatenate([[0.0], np.cumsum(0.5 * (f3[1:] + f3[:-1]) * dphi)])

    margin = 1e-6 * (b - a)
    xs = np.linspace(a + margin, b - margin, scan)
    phis = np.arccos(np.clip((alpha - xs) / delta, -1.0, 1.0))
    i1, i3 = tail_integrals(phis)
    i2 = (xs - c) / np.sqrt((1.0 - xs * xs) * (b - xs) * (xs - a))
    g = i1 + i2 - cdot * i3
    sign_change = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    if sign_change.size == 0:
        raise AssertionError("oracle scan found no sign change")
    j = int(sign_change[0])
    return 0.5 * (xs[j] + xs[j + 1])


def exact_interpolant(t, s, x):
    """Exact value at x of the polynomial that takes the value s_i at t_i.

    The floats are exact dyadic rationals; scaled to a common denominator
    they become integers, and the Lagrange formula
    sum_i s_i prod_{k != i} (x - t_k) / (t_i - t_k) is evaluated in integer
    and Fraction arithmetic.  Returns a Fraction.
    """
    pts = [Fraction(float(v)) for v in t] + [Fraction(float(x))]
    scale = max(q.denominator for q in pts)
    *T, X = (int(q * scale) for q in pts)
    total = Fraction(0)
    for i, (ti, si) in enumerate(zip(T, s)):
        num = den = 1
        for k, tk in enumerate(T):
            if k != i:
                num *= X - tk
                den *= ti - tk
        total += Fraction(int(si) * num, den)
    return total
