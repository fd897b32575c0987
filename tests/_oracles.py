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


def _graded_uv(alpha, delta, lo, panels):
    """(U, V): the integrals of cos(psi) w and w, w = 1/sqrt(1 - xi^2), over
    [lo, pi], by a midpoint rule on the graded pieces [0, eps], [eps, 2 eps],
    ..., [2^k eps, pi] cut at lo, eps = sqrt(2(1+a)/delta) being the width
    of the psi = 0 spike.  1 -+ xi come from the half-angle forms, which keep
    their relative accuracy when 1 + a is tiny."""
    eps = math.sqrt(2.0 * (1.0 + alpha - delta) / delta)
    breaks, t = [lo], eps
    while t < math.pi:
        if t > lo:
            breaks.append(t)
        t *= 2.0
    breaks.append(math.pi)
    u = v = 0.0
    for p0, p1 in zip(breaks, breaks[1:]):
        h = (p1 - p0) / panels
        psi = p0 + (np.arange(panels) + 0.5) * h
        one_plus = (1.0 + alpha - delta) + 2.0 * delta * np.sin(0.5 * psi) ** 2
        one_minus = (1.0 - alpha - delta) + 2.0 * delta * np.cos(0.5 * psi) ** 2
        w = 1.0 / np.sqrt(one_plus * one_minus)
        u += float((np.cos(psi) * w).sum() * h)
        v += float(w.sum() * h)
    return u, v


def graded_midpoint_green(alpha, delta, x, panels=50_000):
    """(G(x), c) by the graded midpoint rule; resolves 1 + a down to 1e-12."""
    u, v = _graded_uv(alpha, delta, 0.0, panels)
    c = alpha - delta * u / v
    phix = math.acos(min(1.0, max(-1.0, (alpha - x) / delta)))
    u_x, v_x = _graded_uv(alpha, delta, phix, panels)
    return (alpha - c) * v_x - delta * u_x, c


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
    sum_i s_i prod_{k != i} (x - t_k) / (t_i - t_k) is evaluated over the
    integer lcm D of the denominators prod_{k != i} (t_i - t_k), so that
    no Fraction sum is normalized term by term.  Returns a Fraction, or a
    list of them when x is a sequence (the weights are shared).
    """
    xs = [float(v) for v in np.atleast_1d(x)]
    pts = [Fraction(v) for v in [*map(float, t), *xs]]
    scale = max(q.denominator for q in pts)
    T = [int(q * scale) for q in pts[:len(t)]]
    dens = [math.prod(ti - tk for k, tk in enumerate(T) if k != i) for i, ti in enumerate(T)]
    D = math.lcm(*dens)
    coef = [int(si) * (D // di) for si, di in zip(s, dens)]
    out = []
    for q in pts[len(t):]:
        d = [int(q * scale) - tk for tk in T]
        prefix = [1]
        for v in d[:-1]:
            prefix.append(prefix[-1] * v)
        total, suffix = 0, 1
        for i in range(len(d) - 1, -1, -1):
            total += coef[i] * prefix[i] * suffix
            suffix *= d[i]
        out.append(Fraction(total, D))
    return out if np.ndim(x) else out[0]


def fixed_point_interpolant(t, s, x, bits=256):
    """(P(x), P'(x)) as Fractions for the polynomial that takes the value
    s_i at t_i, at a float x off the nodes, within about len(t)^2 2^-bits
    times the largest |l_i(x)| (1 + sum_k 1/|x - t_k|).

    The integers are those of `exact_interpolant`, but each Lagrange value
    l_i(x) = prod_{k != i} (x - t_k) / (t_i - t_k) and each 1/(x - t_k) is
    one integer division rounded to a multiple of 2^-bits, which skips the
    lcm of the denominators that takes seconds at degree 200.  P' = sum_i
    s_i l_i(x) sum_{k != i} 1/(x - t_k).
    """
    pts = [Fraction(v) for v in [*map(float, t), float(x)]]
    scale = max(q.denominator for q in pts)
    T = [int(q * scale) for q in pts[:-1]]
    d = [int(pts[-1] * scale) - tk for tk in T]
    one = 1 << bits
    inv = [scale * one // v for v in d]
    all_inv, total, slope = sum(inv), 0, 0
    for i, ti in enumerate(T):
        num = math.prod(v for k, v in enumerate(d) if k != i)
        den = math.prod(ti - tk for k, tk in enumerate(T) if k != i)
        li = int(s[i]) * (num * one // den)
        total += li
        slope += li * (all_inv - inv[i])
    return Fraction(total, one), Fraction(slope, one * one)


def bary_values(t, s, logw, signw, xs):
    """Second-form barycentric values of the interpolant of (t_i, s_i) at
    xs, w_i = signw_i exp(logw_i) its weights, priced from scratch: one
    Cauchy matrix 1/(x - t_i) per call.  An exact node hit gives its s_i."""
    wt = signw * np.exp(logw - logw.max())
    d = np.asarray(xs, dtype=float)[:, None] - t
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1.0 / d
        vals = (C @ (wt * s)) / (C @ wt)
    bad = np.flatnonzero(~np.isfinite(vals))
    vals[bad] = s[np.argmin(np.abs(d[bad]), axis=1)]
    return vals


def alternating_exchange(points, nodes, s, pv, x0):
    """The global alternating exchange one point at a time: {slot: point
    index} for every basis slot i (at points[nodes[i]], sign s_i) that
    moves, pv being P at `points`.

    Each side of x0 is walked outward.  The points with |P| >= 1 form
    groups of one sign of P, each group's extremum being its first point of
    largest |P|.  A first group of sign -1 is dropped.  While the side has
    more groups than nodes, the outermost group goes alone when one group is
    too many or it is the smallest; otherwise the smallest goes with its
    smaller neighbour (ties to the nearer one).  The k-th node outward takes
    the k-th group's extremum, unless the node lies in that group and is at
    its extremum or the extremum's |P| is at most 1."""
    moves = {}
    dist = np.abs(points - x0)
    for side in (points > x0, points < x0):
        groups = []         # [sign, largest |P|, its point, members]
        for k in sorted(np.flatnonzero(side), key=lambda k: dist[k]):
            if abs(pv[k]) < 1.0:
                continue
            sign = 1 if pv[k] > 0.0 else -1
            if groups and groups[-1][0] == sign:
                group = groups[-1]
                group[3].add(int(k))
                if abs(pv[k]) > group[1]:
                    group[1], group[2] = abs(pv[k]), int(k)
            else:
                groups.append([sign, abs(pv[k]), int(k), {int(k)}])
        slots = sorted((i for i in range(len(nodes)) if side[nodes[i]]),
                       key=lambda i: dist[nodes[i]])
        if groups and groups[0][0] < 0:
            groups.pop(0)
        while len(groups) > len(slots):
            k = min(range(len(groups)), key=lambda g: groups[g][1])
            if len(groups) == len(slots) + 1 or k == len(groups) - 1:
                groups.pop()
                continue
            j = k + 1 if k == 0 or groups[k + 1][1] < groups[k - 1][1] else k - 1
            for g in sorted((k, j), reverse=True):
                groups.pop(g)
        for i, (sign, top, best, members) in zip(slots, groups, strict=True):
            assert sign == s[i]
            if nodes[i] in members and (top <= 1.0 or best == nodes[i]):
                continue
            moves[i] = best
    return moves


def equilibrium_cdf(E, q, xs):
    """mu(E n (-inf, x]) for the equilibrium density |q| / (pi sqrt|R|) on
    the bands of E (touching intervals merged, points dropped): each band's
    cosine series from 64 midpoint samples in x = m + h cos(theta), its sine
    sum over j = 1..63 taken as one (points x 63) matrix product."""
    bands = []
    for iv in E.intervals:
        if bands and iv.lo <= bands[-1][1]:
            bands[-1][1] = max(bands[-1][1], iv.hi)
        elif iv.length > 0.0:
            bands.append([iv.lo, iv.hi])
    ends = np.ravel(bands)
    theta = math.pi * (np.arange(64) + 0.5) / 64
    j = np.arange(1, 64)
    xs = np.asarray(xs, dtype=float)
    mass = np.zeros(xs.shape)
    for lo, hi in bands:
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
        R = np.prod([np.abs(x - e) for e in ends if e not in (lo, hi)] or [np.ones(64)], axis=0)
        density = np.abs(np.polyval(q, x)) * (1.0 / np.sqrt(R)) / math.pi
        c0, cj = density.mean(), np.cos(np.outer(j, theta)) / 32 @ density / j
        inside = (lo < xs) & (xs < hi)
        th = 2.0 * np.arctan2(np.sqrt(hi - xs[inside]), np.sqrt(xs[inside] - lo))
        mass[inside] += c0 * (math.pi - th) - np.sin(np.outer(th, j)) @ cj
        mass[xs >= hi] += c0 * math.pi
    return mass


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


def golden_max_many(f, los, his, xtol: float = 1e-12):
    """Vectorized golden-section maximization, one bracket per lane.

    `f` maps an array of abscissae to an array of values.  Each lane is
    assumed unimodal; endpoints are checked as well.  Returns (xs, fs).
    """
    a = np.asarray(los, dtype=float).copy()
    b = np.asarray(his, dtype=float).copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    width0 = float(np.max(b - a)) if len(a) else 0.0
    n_iter = max(0, int(math.ceil(math.log(max(width0 / max(xtol, 1e-300), 1.0)) /
                                  math.log(1.0 / _INVPHI))))
    for _ in range(n_iter):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        d_new = np.where(left, c, a + _INVPHI * (b - a))
        c_new = np.where(left, b - _INVPHI * (b - a), d)
        f_known = np.where(left, fc, fd)
        probe = np.where(left, c_new, d_new)
        f_probe = f(probe)
        fc = np.where(left, f_probe, f_known)
        fd = np.where(left, f_known, f_probe)
        c, d = c_new, d_new
    xm = np.where(fc >= fd, c, d)
    fm = np.maximum(fc, fd)
    for edge in (los, his):
        fe = f(np.asarray(edge, dtype=float))
        better = fe > fm
        xm = np.where(better, edge, xm)
        fm = np.where(better, fe, fm)
    return xm, fm
