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


def _graded_uv(alpha, delta, lo, panels, c=0.0):
    """(U, V, J1, J2, J3, I1): the integrals of cos(psi) w, w, xi w/(1 - xi),
    xi w/(1 - xi^2), (1 + xi) w and (1 - c xi) w/(1 - xi^2),
    w = 1/sqrt(1 - xi^2), over [lo, pi], by a midpoint rule on the graded
    pieces [0, eps], [eps, 2 eps], ..., [2^k eps, pi] cut at lo,
    eps = sqrt(2(1+a)/delta) being the width of the psi = 0 spike.  The J's
    and I1, with c inside its integrand, are the direct forms of the
    integrals in cdot and dG/dalpha, which the package writes on
    (U, V, K+, K-).  1 -+ xi come from the half-angle forms, which keep
    their relative accuracy when 1 + a is tiny."""
    eps = math.sqrt(2.0 * (1.0 + alpha - delta) / delta)
    breaks, t = [lo], eps
    while t < math.pi:
        if t > lo:
            breaks.append(t)
        t *= 2.0
    breaks.append(math.pi)
    out = np.zeros(6)
    for p0, p1 in zip(breaks, breaks[1:]):
        h = (p1 - p0) / panels
        psi = p0 + (np.arange(panels) + 0.5) * h
        one_plus = (1.0 + alpha - delta) + 2.0 * delta * np.sin(0.5 * psi) ** 2
        one_minus = (1.0 - alpha - delta) + 2.0 * delta * np.cos(0.5 * psi) ** 2
        w = 1.0 / np.sqrt(one_plus * one_minus)
        xi = alpha - delta * np.cos(psi)
        out += h * np.array([(np.cos(psi) * w).sum(), w.sum(), (xi * w / one_minus).sum(),
                             (xi * w / (one_plus * one_minus)).sum(), (one_plus * w).sum(),
                             ((1.0 - c * xi) * w / (one_plus * one_minus)).sum()])
    return out.tolist()


def graded_midpoint_green(alpha, delta, x, panels=50_000):
    """(G(x), c) by the graded midpoint rule; resolves 1 + a down to 1e-12."""
    u, v, *_ = _graded_uv(alpha, delta, 0.0, panels)
    c = alpha - delta * u / v
    phix = math.acos(min(1.0, max(-1.0, (alpha - x) / delta)))
    u_x, v_x, *_ = _graded_uv(alpha, delta, phix, panels)
    return (alpha - c) * v_x - delta * u_x, c


def graded_cdot_dgreen(alpha, delta, xs, panels=50_000):
    """(cdot, [dG/dalpha(x) for x in xs]) by the graded midpoint rule, from
    cdot = 1 + (J1 V - J2 J3) / V^2 and dG/dalpha = I1 + I2 - cdot V(x),
    I2 = (x - c) / sqrt((1 - x^2)(b - x)(x - a)) (see _graded_uv)."""
    u, v, j1, j2, j3, _ = _graded_uv(alpha, delta, 0.0, panels)
    c = alpha - delta * u / v
    cdot = 1.0 + (j1 * v - j2 * j3) / (v * v)
    a, b = alpha - delta, alpha + delta
    dg = []
    for x in xs:
        phix = math.acos(min(1.0, max(-1.0, (alpha - x) / delta)))
        _, v_x, *_, i1 = _graded_uv(alpha, delta, phix, panels, c)
        dg.append(i1 + (x - c) / math.sqrt((1.0 - x * x) * (b - x) * (x - a)) - cdot * v_x)
    return cdot, dg


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


def _bands(E):
    """The band ends of E, touching intervals merged and points dropped."""
    bands = []
    for iv in E.intervals:
        if bands and iv.lo <= bands[-1][1]:
            bands[-1][1] = max(bands[-1][1], iv.hi)
        elif iv.length > 0.0:
            bands.append([iv.lo, iv.hi])
    return np.ravel(bands)


_THETA = math.pi * (np.arange(64) + 0.5) / 64


def _chart(ends, lo, hi):
    """x = m + h cos(theta) on [lo, hi] at 64 midpoint thetas, and dx/sqrt|R|
    per dtheta, R the product of x - e over the band ends."""
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(_THETA)
    R = np.prod([np.abs(x - e) for e in ends if e not in (lo, hi)] or [np.ones(64)], axis=0)
    return x, 1.0 / np.sqrt(R)


def equilibrium_cdf(E, q, xs):
    """mu(E n (-inf, x]) for the equilibrium density |q| / (pi sqrt|R|) on
    the bands of E (touching intervals merged, points dropped), q callable:
    each band's cosine series from 64 midpoint samples in x = m + h
    cos(theta), its sine sum over j = 1..63 taken as one (points x 63)
    matrix product."""
    ends = _bands(E)
    j = np.arange(1, 64)
    xs = np.asarray(xs, dtype=float)
    mass = np.zeros(xs.shape)
    for lo, hi in ends.reshape(-1, 2):
        x, w = _chart(ends, lo, hi)
        density = np.abs(q(x)) * w / math.pi
        c0, cj = density.mean(), np.cos(np.outer(j, _THETA)) / 32 @ density / j
        inside = (lo < xs) & (xs < hi)
        th = 2.0 * np.arctan2(np.sqrt(hi - xs[inside]), np.sqrt(xs[inside] - lo))
        mass[inside] += c0 * (math.pi - th) - np.sin(np.outer(th, j)) @ cj
        mass[xs >= hi] += c0 * math.pi
    return mass


def monomial_equilibrium(E):
    """(q, cdf) of the equilibrium measure with q monic in the monomial
    basis, solved from np.vander on the gap charts: the solve whose
    conditioning fails from about 40 bands on.  q is an np.poly1d and cdf
    the `equilibrium_cdf` of it."""
    ends = _bands(E)
    k = ends.size // 2
    q = np.ones(1)
    if k > 1:
        M = np.array([np.vander(x, k).T @ w
                      for x, w in (_chart(ends, lo, hi) for lo, hi in ends[1:-1].reshape(-1, 2))])
        q = np.concatenate([q, np.linalg.solve(M[:, 1:], -M[:, 0])])
    q = np.poly1d(q)
    return q, lambda xs: equilibrium_cdf(E, q, xs)


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


def _bisect(f, a, b):
    """Plain bisection, lane by lane, for where f turns positive on [a, b],
    taking f(a) <= 0 < f(b) as given, so that rounding noise at an end
    cannot turn a lane around; returns the final (a, b), neighbouring
    floats."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    while True:
        m = 0.5 * (a + b)
        live = (a < m) & (m < b)
        if not live.any():
            return a, b
        up = f(m) > 0.0
        a = np.where(live & ~up, m, a)
        b = np.where(live & up, m, b)


def _outward(f, x, step):
    """The first x + step * 2^k, k = 0, 1, ..., where f holds."""
    while not f(x + step):
        step *= 2.0
    return x + step


def extension_by_roots(result, level):
    """The components [lo, hi] of {|P| <= level} for a solved result's P,
    built root by root, and their case tag.

    The active points' signs change n - 1 times, and each change brackets
    a root of P; P's last root lies beyond the hull on the side where the
    sign at infinity, that of the leading coefficient sum_i s_i /
    prod_{k != i} (t_i - t_k), differs from the outer active sign.
    Between neighbouring roots r_j, P'/P = sum_j 1/(x - r_j) has one zero,
    the critical point c; where |P(c)| exceeds the level, |P| crosses it
    once on each side of c, which ends one component and opens the next.
    Outside the outer roots |P| grows to infinity.  Every search is plain
    bisection on `result.evaluate`."""
    P = result.evaluate
    t, s = np.array(result.active_points), np.array(result.active_signs)
    lead = math.fsum(si / math.prod(ti - tk for tk in t if tk != ti) for ti, si in zip(t, s))
    plus_inf = 1.0 if lead > 0.0 else -1.0
    minus_inf = plus_inf * (-1.0) ** (len(t) - 1)
    # root brackets [a, b], on which up * P rises through 0
    change = np.flatnonzero(s[:-1] != s[1:])
    a, b, up = t[change], t[change + 1], s[change + 1]
    if s[-1] != plus_inf:
        far = _outward(lambda x: np.sign(P(x)) == plus_inf, t[-1], 1.0)
        a, b, up = np.append(a, t[-1]), np.append(b, far), np.append(up, plus_inf)
    if s[0] != minus_inf:
        far = _outward(lambda x: np.sign(P(x)) == minus_inf, t[0], -1.0)
        a, b, up = np.insert(a, 0, far), np.insert(b, 0, t[0]), np.insert(up, 0, s[0])
    r = _bisect(lambda x: up * P(x), a, b)[0]
    crit = _bisect(lambda x: -(1.0 / (x[:, None] - r)).sum(axis=1), r[:-1], r[1:])[0]
    over = np.abs(P(crit)) > level
    excess = lambda x: np.abs(P(x)) - level
    left_end = _outward(lambda x: excess(x) > 0.0, r[0], -1.0)
    right_end = _outward(lambda x: excess(x) > 0.0, r[-1], 1.0)
    # crossing brackets: |P| rises from a root to a critical point or far
    # out on the right, and falls from a critical point or far out on the
    # left to a root; each crossing is its bracket's end on the root's side
    a = np.concatenate([r[:-1][over], [r[-1]], crit[over], [left_end]])
    b = np.concatenate([crit[over], [right_end], r[1:][over], [r[0]]])
    rising = np.arange(a.size) <= np.count_nonzero(over)
    lo, hi = _bisect(lambda x: np.where(rising, 1.0, -1.0) * excess(x), a, b)
    comps = list(zip(np.roll(hi[~rising], 1).tolist(), lo[rising].tolist()))
    edge = 1e-7
    if any(lo > 1.0 + edge for lo, _ in comps):
        tag = "right_interval"
    elif any(hi < -1.0 - edge for _, hi in comps):
        tag = "left_interval"
    elif comps[-1][1] > 1.0 + edge:
        tag = "extend_right"
    elif comps[0][0] < -1.0 - edge:
        tag = "extend_left"
    else:
        tag = "none"
    return comps, tag
