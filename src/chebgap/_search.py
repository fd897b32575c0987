"""Bracketed search primitives used across the package: Brent and golden
section for maxima, lockstep Illinois for roots."""

from __future__ import annotations

import math

import numpy as np

from . import _stats

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


@_stats.counts_evals("search.brent_max.evals")
def brent_max(f, lo: float, hi: float, xtol: float, f_lo=None, f_hi=None):
    """Maximize f on [lo, hi] by Brent's method; returns (x, f(x)).

    Parabolic steps safeguarded by golden section (Brent 1973, ch. 5) until
    the bracket lies within xtol of the best point.  First the higher end is
    compared with f one xtol inside it: a unimodal f that does not rise there
    peaks at that end.  Known endpoint values may be passed in; the
    endpoints are checked against the interior maximum at the end.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    x_end, f_end, step = (lo, f_lo, 1.0) if f_lo >= f_hi else (hi, f_hi, -1.0)
    if f(x_end + step * min(xtol, 0.5 * (hi - lo))) <= f_end:
        return x_end, f_end
    tol1 = 0.5 * xtol
    a, b = lo, hi
    x = w = v = a + (1.0 - _INVPHI) * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= xtol - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < xtol or b - x - d < xtol:
                    d = math.copysign(tol1, xm - x)
        if golden:
            e = (a if x >= xm else b) - x
            d = (1.0 - _INVPHI) * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    for xe, fe in ((lo, f_lo), (hi, f_hi)):
        if fe > fx:
            x, fx = xe, fe
    return x, fx


@_stats.counts_evals("search.golden_max_many.evals")
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


@_stats.counts_evals("search.illinois_many.evals")
def illinois_many(f, a, b, fa, fb, stop, inset=0.0):
    """Roots of increasing functions on brackets [a, b], fa < 0 < fb, all
    in lockstep: regula falsi whose end kept twice in a row has its value
    halved (Illinois).  Each trial is kept `inset` inside its bracket.
    f(xs, lanes) gives the values at the trials of the lanes left, and a
    lane ends once stop(a, b, f) holds after its update.  Returns each
    lane's final bracket (a, b), a = b at an exact root."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    kept = np.zeros(len(a))        # the end kept by the last step: -1 a, +1 b
    lanes = np.arange(len(a))
    while lanes.size:
        x = (a[lanes] * fb[lanes] - b[lanes] * fa[lanes]) / (fb[lanes] - fa[lanes])
        x = np.clip(x, a[lanes] + inset, b[lanes] - inset)
        fx = f(x, lanes)
        left = fx < 0.0
        fb[lanes[left & (kept[lanes] > 0)]] *= 0.5
        fa[lanes[~left & (kept[lanes] < 0)]] *= 0.5
        a[lanes[left]], fa[lanes[left]] = x[left], fx[left]
        b[lanes[~left]], fb[lanes[~left]] = x[~left], fx[~left]
        a[lanes[fx == 0.0]] = x[fx == 0.0]     # an exact root closes its bracket
        kept[lanes] = np.where(left, 1.0, -1.0)
        lanes = lanes[~stop(a[lanes], b[lanes], fx)]
    return a, b
