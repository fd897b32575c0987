"""Two-interval potential theory via adaptive elliptic-integral quadrature.

For the one-gap set E(alpha, delta) = [-1,1] \\ (a, b), a = alpha - delta,
b = alpha + delta, the Green function of the complement (pole at infinity)
restricted to the gap is, after the substitution xi(psi) = alpha -
delta*cos(psi),

    G(x) = integral_{phi(x)}^{pi} (xi(psi) - c) / sqrt(1 - xi(psi)^2) dpsi,
    phi(x) = arccos((alpha - x)/delta),

where the critical point c in (a, b) is the ratio of two complete integrals,
c = alpha - delta * u / v with

    u = integral_0^pi cos(psi)/sqrt(1 - xi^2) dpsi,
    v = integral_0^pi 1/sqrt(1 - xi^2) dpsi.

The alpha-derivatives needed by the envelope layer reduce to the same kind
of integrals: dG/dalpha = I1 + I2 - cdot * I3 and cdot = 1 + det/v^2 (see
the individual functions).  The psi-substitution removes the square-root
singularities at the gap edges, so all integrands are smooth except for a
spike of width eps = sqrt(2(1+a)/delta) near psi = 0 when the gap approaches
-1; that regime is handled by pre-splitting the range at psi = eps, 2 eps,
4 eps, ...

All integrals run through one adaptive Gauss-Legendre engine (fixed-order
panels, bisected until the two-half vs whole discrepancy passes the
tolerance) that evaluates several integrands on shared panels at once.

The single-interval Green function for [-1+2*delta, 1] has the closed form
G(x) = arccosh((delta - x)/(1 - delta)) for x <= -1 + 2*delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, DomainError, QuadratureError

# Distance from a gap endpoint below which dG/dalpha is refused (the
# boundary term blows up like 1/sqrt(dist)).
ENDPOINT_REFUSAL = 1e-10

# Gap-to-edge distances below this trigger the eps-split of the psi-range.
_NEAR_BOUNDARY = 1e-4

# Adaptive quadrature: absolute and relative tolerance, bisection depth and
# Gauss-Legendre nodes per panel.
_ABS_TOL = 1e-11
_REL_TOL = 1e-11
_MAX_DEPTH = 30
_BASE_NODES = 32


@dataclass(frozen=True)
class GreenEval:
    """Bundle {G, dG/dalpha, c, cdot} at one point of the gap.

    dg_dalpha is None when x sits within ENDPOINT_REFUSAL of a gap endpoint
    (the derivative diverges there).  err_estimate is a crude upper bound on
    the accumulated quadrature error of the bundle.
    """

    g: float
    dg_dalpha: float | None
    c: float
    c_dot: float
    err_estimate: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "g": self.g,
                "dg_dalpha": self.dg_dalpha,
                "c": self.c,
                "c_dot": self.c_dot,
                "err_estimate": self.err_estimate,
            }
        )


# ----------------------------------------------------------------------
# Quadrature engine
# ----------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gl_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _panel_estimates(f, los, his, nodes, weights):
    """Gauss-Legendre estimates for a batch of panels; returns (k, p)."""
    half = 0.5 * (his - los)
    mid = 0.5 * (his + los)
    phis = mid[:, None] + half[:, None] * nodes[None, :]
    vals = f(phis.ravel())
    vals = vals.reshape(vals.shape[0], len(los), len(nodes))
    return (vals * weights[None, None, :]).sum(axis=2) * half[None, :]


def integrate_adaptive(f, lo: float, hi: float, presplit=()):
    """Adaptive Gauss-Legendre integration of a vector integrand on [lo, hi].

    `f` maps a 1-D array of abscissae to a (k, len) array of integrand rows.
    Panels are bisected until the discrepancy between the one-panel and
    two-panel estimates drops below max(_ABS_TOL, _REL_TOL*|whole integral|)
    prorated by panel length, separately for every component.  Returns
    (values, err) as two length-k arrays.  The module constants are read at
    call time.
    """
    if hi <= lo:
        k = f(np.array([lo])).shape[0]
        return np.zeros(k), np.zeros(k)
    nodes, weights = _gl_rule(_BASE_NODES)
    bounds = [lo] + sorted(p for p in presplit if lo < p < hi) + [hi]
    los = np.asarray(bounds[:-1], dtype=float)
    his = np.asarray(bounds[1:], dtype=float)
    parents = _panel_estimates(f, los, his, nodes, weights)
    k = parents.shape[0]
    total0 = np.abs(parents).sum(axis=1)
    tol = np.maximum(_ABS_TOL, _REL_TOL * total0)
    span = hi - lo

    acc = np.zeros(k)
    err = np.zeros(k)
    for depth in range(_MAX_DEPTH + 1):
        mids = 0.5 * (los + his)
        p = len(los)
        child = _panel_estimates(
            f, np.concatenate([los, mids]), np.concatenate([mids, his]), nodes, weights
        )
        sums = child[:, :p] + child[:, p:]
        disc = np.abs(sums - parents)
        frac = (his - los) / span
        # Panel tolerance is prorated by length but floored at the roundoff
        # noise of the panel values, otherwise spike panels refine forever.
        noise = 64.0 * np.finfo(float).eps * np.maximum(np.abs(sums), np.abs(parents))
        ok = np.all(disc <= np.maximum(tol[:, None] * frac[None, :], noise), axis=0)
        acc += sums[:, ok].sum(axis=1)
        err += disc[:, ok].sum(axis=1)
        if ok.all():
            return acc, err
        bad = ~ok
        if depth == _MAX_DEPTH:
            raise QuadratureError(
                f"quadrature did not converge within depth {_MAX_DEPTH}",
                partial=acc + sums[:, bad].sum(axis=1),
            )
        los = np.concatenate([los[bad], mids[bad]])
        his = np.concatenate([mids[bad], his[bad]])
        parents = np.concatenate([child[:, :p][:, bad], child[:, p:][:, bad]], axis=1)
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Stable integrand pieces
# ----------------------------------------------------------------------


def _one_pm_xi(alpha, delta, phi):
    """(1 + xi, 1 - xi) for xi = alpha - delta*cos(phi), cancellation-free.

    1 + xi = (1 + a) + 2*delta*sin^2(phi/2) and
    1 - xi = (1 - b) + 2*delta*cos^2(phi/2) keep full relative accuracy even
    when the gap endpoint a sits within 1e-16 of -1.
    """
    s = np.sin(0.5 * phi)
    cs = np.cos(0.5 * phi)
    one_plus = (1.0 + alpha - delta) + 2.0 * delta * s * s
    one_minus = (1.0 - alpha - delta) + 2.0 * delta * cs * cs
    return one_plus, one_minus


def _presplit(alpha, delta):
    """Doubling split points eps, 2 eps, 4 eps, ... near the psi = 0 spike."""
    a1 = 1.0 + alpha - delta
    if a1 >= _NEAR_BOUNDARY:
        return ()
    eps = math.sqrt(2.0 * a1 / delta)
    pts = []
    t = eps
    while t < 1.0:
        pts.append(t)
        t *= 2.0
    return tuple(pts)


def _check_gap(alpha, delta):
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not (delta - 1.0 < alpha <= 0.0):
        raise DomainError(
            f"alpha must lie in (delta-1, 0] so the gap stays inside (-1, 1]; "
            f"got alpha={alpha}, delta={delta}"
        )


def _phi_of_x(alpha, delta, x):
    t = (alpha - x) / delta
    return math.acos(min(1.0, max(-1.0, t)))


# ----------------------------------------------------------------------
# Cached per-(alpha, delta) cores
# ----------------------------------------------------------------------


@lru_cache(maxsize=65536)
def _c_core(alpha: float, delta: float):
    """Critical point c = alpha - delta*u/v plus the raw integrals (u, v)."""
    _check_gap(alpha, delta)

    def f(phi):
        op, om = _one_pm_xi(alpha, delta, phi)
        inv = 1.0 / np.sqrt(op * om)
        return np.stack([np.cos(phi) * inv, inv])

    (u, v), (eu, ev) = integrate_adaptive(f, 0.0, math.pi, _presplit(alpha, delta))
    c = alpha - delta * u / v
    if not (alpha - delta < c < alpha + delta):
        raise ConsistencyError(
            f"critical point {c} fell outside the gap ({alpha - delta}, {alpha + delta})"
        )
    err = delta * (eu / v + abs(u) * ev / (v * v))
    return c, u, v, err


@lru_cache(maxsize=65536)
def _c_dot_core(alpha: float, delta: float):
    """d c / d alpha through the determinant of complete integrals.

    cdot = 1 + (J1*v - J2*J3) / v^2 with
      J1 = int xi / ((1-xi)   sqrt(1-xi^2)) dpsi,
      J2 = int xi / ((1-xi^2) sqrt(1-xi^2)) dpsi,
      J3 = int sqrt((1+xi)/(1-xi)) dpsi,
      v  = int 1 / sqrt(1-xi^2) dpsi,
    all over (0, pi).  Monotonicity of the gap geometry forces cdot > 1.
    """
    _check_gap(alpha, delta)

    def f(phi):
        op, om = _one_pm_xi(alpha, delta, phi)
        xi = alpha - delta * np.cos(phi)
        sq = np.sqrt(op * om)
        return np.stack(
            [xi / (om * sq), xi / (op * om * sq), np.sqrt(op / om), 1.0 / sq]
        )

    (j1, j2, j3, v), (e1, e2, e3, ev) = integrate_adaptive(
        f, 0.0, math.pi, _presplit(alpha, delta)
    )
    det = j1 * v - j2 * j3
    cd = 1.0 + det / (v * v)
    err = (e1 * v + abs(j1) * ev + e2 * abs(j3) + abs(j2) * e3) / (v * v) + 2.0 * abs(
        det
    ) * ev / v**3
    if cd <= 1.0 - max(1e-8, 10.0 * err):
        raise ConsistencyError(f"computed cdot={cd} <= 1, outside theory")
    return cd, err


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------


def critical_point_c(alpha: float, delta: float) -> float:
    """Zero of the Green differential inside the gap (a, b)."""
    c, _, _, _ = _c_core(float(alpha), float(delta))
    return c


def c_dot(alpha: float, delta: float) -> float:
    """Derivative of the critical point with respect to alpha; always > 1."""
    cd, _ = _c_dot_core(float(alpha), float(delta))
    return cd


def green_two_interval(alpha: float, delta: float, x: float) -> float:
    """Green function of the complement of E(alpha, delta) on the closed gap.

    Vanishes at both gap endpoints and is positive inside.
    """
    alpha = float(alpha)
    delta = float(delta)
    _check_gap(alpha, delta)
    a, b = alpha - delta, alpha + delta
    if not (a <= x <= b):
        raise DomainError(f"x={x} outside the closed gap [{a}, {b}]")
    phi_x = _phi_of_x(alpha, delta, x)
    if phi_x >= math.pi:
        return 0.0
    c, _, _, _ = _c_core(alpha, delta)
    shift = alpha - c

    def f(phi):
        op, om = _one_pm_xi(alpha, delta, phi)
        return ((shift - delta * np.cos(phi)) / np.sqrt(op * om))[None, :]

    (g,), _ = integrate_adaptive(f, phi_x, math.pi, _presplit(alpha, delta))
    return float(g)


def green_single_interval(delta: float, x: float) -> float:
    """Green function of the complement of [-1+2*delta, 1], closed form.

    Defined for x <= -1 + 2*delta, where the argument (delta-x)/(1-delta)
    is >= 1; equals arccosh of that argument.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    y = (delta - x) / (1.0 - delta)
    if y < 1.0 - 1e-15:
        raise DomainError(
            f"x={x} lies right of the interval edge -1+2*delta={-1 + 2 * delta}"
        )
    return math.acosh(max(1.0, y))


def dalpha_green(alpha: float, delta: float, x: float) -> float:
    """Partial derivative of the two-interval Green function in alpha.

    Computed as I1 + I2 - cdot * I3 with
      I1 = int_{phi(x)}^pi (1 - c xi) / (1 - xi^2)^{3/2} dpsi,
      I2 = (x - c) / sqrt((1 - x^2)(b - x)(x - a)),
      I3 = int_{phi(x)}^pi 1 / sqrt(1 - xi^2) dpsi.
    Strictly increasing in x on (a, b), from -inf at a to +inf at b.
    """
    alpha = float(alpha)
    delta = float(delta)
    _check_gap(alpha, delta)
    a, b = alpha - delta, alpha + delta
    if not (a < x < b):
        raise DomainError(f"x={x} not strictly inside the gap ({a}, {b})")
    if min(x - a, b - x) < ENDPOINT_REFUSAL:
        raise DomainError(
            f"x={x} within {ENDPOINT_REFUSAL} of a gap endpoint; the boundary "
            f"term of dG/dalpha is singular there"
        )
    c, _, _, _ = _c_core(alpha, delta)
    cd, _ = _c_dot_core(alpha, delta)
    phi_x = _phi_of_x(alpha, delta, x)

    def f(phi):
        op, om = _one_pm_xi(alpha, delta, phi)
        xi = alpha - delta * np.cos(phi)
        sq = np.sqrt(op * om)
        return np.stack([(1.0 - c * xi) / (op * om * sq), 1.0 / sq])

    (i1, i3), _ = integrate_adaptive(f, phi_x, math.pi, _presplit(alpha, delta))
    i2 = (x - c) / math.sqrt((1.0 - x) * (1.0 + x) * (b - x) * (x - a))
    return float(i1 + i2 - cd * i3)


def green_eval(alpha: float, delta: float, x: float) -> GreenEval:
    """Bundle G, dG/dalpha, c, cdot at one point with an error estimate."""
    alpha = float(alpha)
    delta = float(delta)
    g = green_two_interval(alpha, delta, x)
    c, _, _, ec = _c_core(alpha, delta)
    cd, ecd = _c_dot_core(alpha, delta)
    a, b = alpha - delta, alpha + delta
    if min(x - a, b - x) < ENDPOINT_REFUSAL:
        dg = None
    else:
        dg = dalpha_green(alpha, delta, x)
    err = ec * math.pi + ecd + max(_ABS_TOL, _REL_TOL * abs(g))
    return GreenEval(g=g, dg_dalpha=dg, c=c, c_dot=cd, err_estimate=float(err))
