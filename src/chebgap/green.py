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

G is linear in c: G(x) = (alpha - c) V(x) - delta U(x), where U and V are
the integrals of u and v taken from phi(x) instead of 0.  The
alpha-derivatives needed by the envelope layer reduce to the same kind of
integrals: dG/dalpha = I1 + I2 - cdot * I3 and cdot = 1 + det/v^2 (see the
individual functions).  The psi-substitution removes the square-root
singularities at the gap edges.  What is left is a spike near psi = 0 when
the gap approaches -1: 1 + xi = (1+a) + 2 delta sin^2(psi/2) is about
(1+a)(1 + (psi/eps)^2) with eps = sqrt(2(1+a)/delta), so the integrands
vary on the scale eps there.  Every integral is therefore taken in tau,
psi = eps*sinh(tau), where 1 + xi is about (1+a) cosh^2(tau) and the spike
is O(1) wide; away from it tau grows like log(psi), and for large eps the
map is nearly linear.

All integrals run through one adaptive Gauss-Legendre engine over rows: row
r integrates several integrands over its own tau-range, and all rows share
one panel partition of the unit interval, mapped affinely onto each range,
so a whole alpha family costs one quadrature, and so do c and G together
(rows over psi in [0, pi] and [phi(x), pi]).  The array cores `c_rows`,
`c_cdot_rows`, `g_rows` and `dg_rows` give c, cdot, G and dG/dalpha over an
alpha array (x broadcast); the scalar functions are one-row calls of them,
and `omega_rows` turns c into the equilibrium mass of the left band.
Nothing is cached per (alpha, delta): a caller that reuses c, such as the
envelope's shared alpha grid, keeps it itself.

The single-interval Green function for [-1+2*delta, 1] has the closed form
G(x) = arccosh((delta - x)/(1 - delta)) for x <= -1 + 2*delta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _stats
from .errors import ConsistencyError, DomainError, QuadratureError

# Distance from a gap endpoint below which dG/dalpha is refused (the
# boundary term blows up like 1/sqrt(dist)).
ENDPOINT_REFUSAL = 1e-10

# Adaptive quadrature: absolute and relative tolerance, panel estimates per
# call and Gauss-Legendre nodes per panel.
_ABS_TOL = 1e-11
_REL_TOL = 1e-11
_MAX_PANELS = 4096
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


def _panel_estimates(f, tl, th, lo, width, nodes, weights):
    """Gauss-Legendre estimates of every row on the unit-interval panels
    [tl, th], mapped onto [lo, lo + width]; returns (k, rows, panels)."""
    w = width[:, None]
    half = w * (0.5 * (th - tl))
    mid = lo[:, None] + w * (0.5 * (th + tl))
    vals = f((mid[..., None] + half[..., None] * nodes).reshape(len(width), -1))
    vals = vals.reshape(vals.shape[0], len(width), len(tl), len(nodes))
    return (vals @ weights) * half


def integrate_adaptive(f, lo, hi):
    """Adaptive Gauss-Legendre integration of a vector integrand over rows.

    `lo` and `hi` are scalars (one row) or 1-D arrays, one entry per row;
    row r integrates over [lo[r], hi[r]], and a row with hi <= lo gives 0.
    `f` maps an (rows, m) array of abscissae to a (k, rows, m) array of
    integrand values.  All rows share one panel partition of the unit
    interval, mapped affinely onto each row's range.  A panel is bisected
    while, for any component of any row, the one-panel and two-panel
    estimates differ by more than max(_ABS_TOL, _REL_TOL*|row integral|)
    prorated by panel length, so every row ends up refined at least as
    finely as it would be alone.  A non-finite panel estimate raises
    QuadratureError at once, since bisection cannot repair it, and so does
    a call that would estimate more than _MAX_PANELS panels: a row that
    cannot meet its tolerance doubles its panels at every level.  Returns
    (values, err): length-k arrays for scalar limits, (k, rows) arrays
    otherwise.  The module constants are read at call time.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo = np.asarray(lo, dtype=float).reshape(-1)
    width = np.maximum(np.asarray(hi, dtype=float).reshape(-1) - lo, 0.0)
    nodes, weights = _gl_rule(_BASE_NODES)

    def estimates(tl, th):
        est = _panel_estimates(f, tl, th, lo, width, nodes, weights)
        if not np.isfinite(est).all():
            raise QuadratureError("non-finite integrand or range in the quadrature")
        return est

    # the first call estimates the unit panel and its halves at once
    est = estimates(np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.5, 1.0]))
    tl, th, mids = np.array([0.0]), np.array([1.0]), np.array([0.5])
    parents, child = est[..., :1], est[..., 1:]
    tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(parents[..., 0]))[..., None]
    acc = err = 0.0
    panels, depth = 3, 0
    while True:
        p = len(tl)
        left, right = child[..., :p], child[..., p:]
        sums = left + right
        disc = np.abs(sums - parents)
        ok = (disc <= tol * (th - tl)).all(axis=(0, 1))
        counts = {"quad.calls": 1, "quad.rows": len(width), "quad.panels": panels,
                  "quad.depth_max": depth}
        if ok.all():
            acc = acc + sums.sum(axis=2)
            err = err + disc.sum(axis=2)
            _stats.add(counts)
            return (acc[:, 0], err[:, 0]) if scalar else (acc, err)
        acc = acc + sums[..., ok].sum(axis=2)
        err = err + disc[..., ok].sum(axis=2)
        bad = ~ok
        # each bad panel's halves are estimated with their own halves
        more = 4 * int(bad.sum())
        if panels + more > _MAX_PANELS:
            _stats.add(counts)
            partial = acc + sums[..., bad].sum(axis=2)
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_PANELS} panels: {panels} "
                f"estimated to depth {depth}, {more} more needed",
                partial=partial[:, 0] if scalar else partial,
            )
        tl, th = np.concatenate([tl[bad], mids[bad]]), np.concatenate([mids[bad], th[bad]])
        parents = np.concatenate([left[..., bad], right[..., bad]], axis=2)
        mids = 0.5 * (tl + th)
        child = estimates(np.concatenate([tl, mids]), np.concatenate([mids, th]))
        panels, depth = panels + more, depth + 1


# ----------------------------------------------------------------------
# Stable integrand pieces: alpha and the per-row parameters arrive as
# (rows, 1) columns, or as floats for one row, against (rows, m) abscissae;
# each integrand returns its components as a (k, rows, m) array
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


def _uv(phi, alpha, delta):
    op, om = _one_pm_xi(alpha, delta, phi)
    inv = 1.0 / np.sqrt(op * om)
    return np.array([np.cos(phi) * inv, inv])


def _uvj(phi, alpha, delta):
    op, om = _one_pm_xi(alpha, delta, phi)
    cos = np.cos(phi)
    xi = alpha - delta * cos
    sq = np.sqrt(op * om)
    return np.array(
        [cos / sq, 1.0 / sq, xi / (om * sq), xi / (op * om * sq), np.sqrt(op / om)]
    )


def _dg(phi, alpha, delta, c):
    op, om = _one_pm_xi(alpha, delta, phi)
    xi = alpha - delta * np.cos(phi)
    sq = np.sqrt(op * om)
    return np.array([(1.0 - c * xi) / (op * om * sq), 1.0 / sq])


def _uv_i1(phi, alpha, delta, c):
    op, om = _one_pm_xi(alpha, delta, phi)
    cos = np.cos(phi)
    sq = np.sqrt(op * om)
    return np.array([cos / sq, 1.0 / sq, (1.0 - c * (alpha - delta * cos)) / (op * om * sq)])


def _rows(integrand, alpha, delta, lo, hi, *params):
    """Integrate integrand(psi, alpha, delta, *params) over [lo[r], hi[r]].

    alpha, lo, hi and params are arrays with one entry per row.  Every row
    is integrated in tau, psi = eps*sinh(tau) with its own
    eps = sqrt(2(1+a)/delta), over [asinh(lo/eps), asinh(hi/eps)], with the
    Jacobian eps*cosh(tau); all rows share one quadrature.
    """
    eps = np.sqrt(2.0 * (1.0 + alpha - delta) / delta)
    al, ep, cols = alpha[:, None], eps[:, None], [p[:, None] for p in params]

    def f(tau):
        return integrand(ep * np.sinh(tau), al, delta, *cols) * (ep * np.cosh(tau))

    return integrate_adaptive(f, np.arcsinh(lo / eps), np.arcsinh(hi / eps))


def _admissible(alpha, delta):
    """alpha in (delta-1, 0], elementwise, with 1 + a > 0 as the integrands
    compute it: within an ulp of delta - 1 it can round to 0, and eps = 0
    leaves no range to integrate in tau."""
    return (delta - 1.0 < alpha) & (alpha <= 0.0) & (1.0 + alpha - delta > 0.0)


def _check_gap(alpha, delta):
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not _admissible(alpha, delta):
        raise DomainError(
            f"alpha must lie in (delta-1, 0] so the gap stays inside (-1, 1]; "
            f"got alpha={alpha}, delta={delta}"
        )


def _check_closed_gap(alpha, delta, x):
    _check_gap(alpha, delta)
    if not (alpha - delta <= x <= alpha + delta):
        raise DomainError(f"x={x} outside the closed gap [{alpha - delta}, {alpha + delta}]")


# ----------------------------------------------------------------------
# Array cores: one row per alpha, no validation of the inputs
# ----------------------------------------------------------------------


def _c_of(alpha, delta, u, v):
    c = alpha - delta * u / v
    if not ((alpha - delta < c) & (c < alpha + delta)).all():
        r = int(np.argmin((alpha - delta < c) & (c < alpha + delta)))
        raise ConsistencyError(
            f"critical point {c[r]} fell outside the gap "
            f"({alpha[r] - delta}, {alpha[r] + delta})"
        )
    return c


def c_rows(alpha, delta):
    """Critical points c(alpha) over an alpha array."""
    n = len(alpha)
    (u, v), _ = _rows(_uv, alpha, delta, np.zeros(n), np.full(n, math.pi))
    return _c_of(alpha, delta, u, v)


def omega_rows(alpha, delta, c):
    """Equilibrium mass of the left band [-1, a] over an alpha array, given
    c: omega = (1/pi) int_{-1}^{a} (c - x) / sqrt|R(x)| dx, R the product
    of x - e over the four band ends e.  In the band chart x + 1 =
    h(1 - cos(theta)), h = (1 + a)/2, dx / sqrt((x + 1)(a - x)) = dtheta
    leaves (c - x) / sqrt((b - x)(1 - x)), smooth and periodic as
    b - x >= 2 delta: 64 midpoint samples give omega to rounding.
    """
    h = 0.5 * (1.0 + alpha - delta)[:, None]
    s = h * (1.0 - np.cos(math.pi * (np.arange(64) + 0.5) / 64))    # x + 1
    f = ((1.0 + c)[:, None] - s) / np.sqrt(((1.0 + alpha + delta)[:, None] - s) * (2.0 - s))
    return f.mean(axis=1)


def _cdot_err(ints, errs):
    """Error bound of cdot from the five complete integrals and theirs."""
    u, v, j1, j2, j3 = ints
    eu, ev, e1, e2, e3 = errs
    det = j1 * v - j2 * j3
    return (e1 * v + abs(j1) * ev + e2 * abs(j3) + abs(j2) * e3) / (v * v) + 2.0 * abs(
        det
    ) * ev / v**3


def c_cdot_rows(alpha, delta):
    """(c, cdot, integrals, errors) over an alpha array, on shared panels.

    cdot = dc/dalpha = 1 + (J1*v - J2*J3) / v^2 with
      J1 = int xi / ((1-xi)   sqrt(1-xi^2)) dpsi,
      J2 = int xi / ((1-xi^2) sqrt(1-xi^2)) dpsi,
      J3 = int sqrt((1+xi)/(1-xi)) dpsi,
      v  = int 1 / sqrt(1-xi^2) dpsi,
    all over (0, pi); integrals and errors are the (5, rows) arrays of
    (u, v, J1, J2, J3).  Monotonicity of the gap geometry forces cdot > 1.
    """
    n = len(alpha)
    ints, errs = _rows(_uvj, alpha, delta, np.zeros(n), np.full(n, math.pi))
    u, v, j1, j2, j3 = ints
    c = _c_of(alpha, delta, u, v)
    cd = 1.0 + (j1 * v - j2 * j3) / (v * v)
    # the test below can only fail where cd <= 1, so the bound waits for that
    if (cd <= 1.0).any():
        low = cd <= 1.0 - np.maximum(1e-8, 10.0 * _cdot_err(ints, errs))
        if low.any():
            raise ConsistencyError(f"computed cdot={cd[np.argmax(low)]} <= 1, outside theory")
    return c, cd, ints, errs


def _phi(alpha, delta, x):
    """phi(x) = arccos((alpha - x)/delta), one entry per alpha."""
    return np.arccos(np.minimum(np.maximum((alpha - x) / delta, -1.0), 1.0))


def _tail(integrand, alpha, delta, x, *params):
    """Integrals of integrand from phi(x) to pi."""
    n = len(alpha)
    return _rows(integrand, alpha, delta, _phi(alpha, delta, x), np.full(n, math.pi), *params)[0]


def _dg_of(alpha, delta, x, c, cd, i1, i3):
    a, b = alpha - delta, alpha + delta
    i2 = (x - c) / np.sqrt((1.0 - x) * (1.0 + x) * (b - x) * (x - a))
    return i1 + i2 - cd * i3


def g_rows(alpha, delta, x, c=None):
    """G_{alpha,delta}(x) = (alpha - c) V - delta U over an alpha array; x
    broadcasts and must lie in each row's closed gap.  When c(alpha) is not
    given, rows over [0, pi] for it join the same quadrature."""
    n = len(alpha)
    if c is not None:
        u, v = _tail(_uv, alpha, delta, x)
        return (alpha - c) * v - delta * u
    lo = np.concatenate([np.zeros(n), _phi(alpha, delta, x)])
    (u, v), _ = _rows(_uv, np.concatenate([alpha, alpha]), delta, lo, np.full(2 * n, math.pi))
    c = _c_of(alpha, delta, u[:n], v[:n])
    return (alpha - c) * v[n:] - delta * u[n:]


def dg_rows(alpha, delta, x, c, cd):
    """dG/dalpha at x over an alpha array, given c and cdot; x broadcasts
    and must lie strictly inside each row's gap."""
    i1, i3 = _tail(_dg, alpha, delta, x, c)
    return _dg_of(alpha, delta, x, c, cd, i1, i3)


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------


def critical_point_c(alpha: float, delta: float) -> float:
    """Zero of the Green differential inside the gap (a, b)."""
    alpha, delta = float(alpha), float(delta)
    _check_gap(alpha, delta)
    return float(c_rows(np.array([alpha]), delta)[0])


def c_dot(alpha: float, delta: float) -> float:
    """Derivative of the critical point with respect to alpha; always > 1."""
    alpha, delta = float(alpha), float(delta)
    _check_gap(alpha, delta)
    return float(c_cdot_rows(np.array([alpha]), delta)[1][0])


def green_two_interval(alpha: float, delta: float, x: float) -> float:
    """Green function of the complement of E(alpha, delta) on the closed gap.

    Vanishes at both gap endpoints and is positive inside.
    """
    alpha, delta = float(alpha), float(delta)
    _check_closed_gap(alpha, delta, x)
    return float(g_rows(np.array([alpha]), delta, x)[0])


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


def _refused(alpha, delta, x):
    """True when x sits within ENDPOINT_REFUSAL of a gap endpoint."""
    return min(x - (alpha - delta), alpha + delta - x) < ENDPOINT_REFUSAL


def dalpha_green(alpha: float, delta: float, x: float) -> float:
    """Partial derivative of the two-interval Green function in alpha.

    Computed as I1 + I2 - cdot * I3 with
      I1 = int_{phi(x)}^pi (1 - c xi) / (1 - xi^2)^{3/2} dpsi,
      I2 = (x - c) / sqrt((1 - x^2)(b - x)(x - a)),
      I3 = int_{phi(x)}^pi 1 / sqrt(1 - xi^2) dpsi.
    Strictly increasing in x on (a, b), from -inf at a to +inf at b.
    """
    alpha, delta = float(alpha), float(delta)
    _check_gap(alpha, delta)
    a, b = alpha - delta, alpha + delta
    if not (a < x < b):
        raise DomainError(f"x={x} not strictly inside the gap ({a}, {b})")
    if _refused(alpha, delta, x):
        raise DomainError(
            f"x={x} within {ENDPOINT_REFUSAL} of a gap endpoint; the boundary "
            f"term of dG/dalpha is singular there"
        )
    al = np.array([alpha])
    c, cd, _, _ = c_cdot_rows(al, delta)
    return float(dg_rows(al, delta, x, c, cd)[0])


def green_eval(alpha: float, delta: float, x: float) -> GreenEval:
    """Bundle G, dG/dalpha, c, cdot at one point with an error estimate.

    Two quadratures: c and cdot on shared panels over [0, pi], then G and
    the two dG/dalpha integrals on shared panels over [phi(x), pi].
    """
    alpha, delta = float(alpha), float(delta)
    _check_closed_gap(alpha, delta, x)
    al = np.array([alpha])
    c, cd, ints, errs = c_cdot_rows(al, delta)
    u_x, i3, i1 = _tail(_uv_i1, al, delta, x, c)[:, 0].tolist()
    c, cd = float(c[0]), float(cd[0])
    g = (alpha - c) * i3 - delta * u_x
    dg = None
    if not _refused(alpha, delta, x):
        dg = float(_dg_of(alpha, delta, x, c, cd, i1, i3))
    ints, errs = ints[:, 0].tolist(), errs[:, 0].tolist()
    (u, v, *_), (eu, ev, *_) = ints, errs
    ec = delta * (eu / v + abs(u) * ev / (v * v))
    err = ec * math.pi + _cdot_err(ints, errs) + max(_ABS_TOL, _REL_TOL * abs(g))
    return GreenEval(g=g, dg_dalpha=dg, c=c, c_dot=cd, err_estimate=err)
