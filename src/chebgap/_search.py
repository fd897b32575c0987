"""Scalar bracketed search primitives used across the package."""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


def bisect_root(f, lo: float, hi: float, xtol: float, f_lo=None, f_hi=None) -> float:
    """Root of f on [lo, hi] by bisection; requires a sign change.

    Sides are chosen by comparing signs, never by multiplying values, so
    f values near the under- or overflow limits bisect correctly.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) * np.sign(f_hi) > 0.0:
        raise SolverError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}"
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_lo) * np.sign(f_mid) < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


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


def bisect_many(f, los, his, iters: int = 80):
    """Vectorized bisection: one root per bracket, all refined in lockstep.

    `f` maps an array of abscissae to an array of values; every bracket must
    carry a sign change (checked).  Runs a fixed number of halvings, which at
    80 exhausts double precision for any bracket of O(1) width.  Signs are
    compared, never multiplied, as in bisect_root.
    """
    los = np.asarray(los, dtype=float).copy()
    his = np.asarray(his, dtype=float).copy()
    f_lo = f(los)
    f_hi = f(his)
    bad = np.sign(f_lo) * np.sign(f_hi) > 0.0
    if np.any(bad):
        raise SolverError(f"{int(bad.sum())} bracket(s) without sign change")
    for _ in range(iters):
        mids = 0.5 * (los + his)
        f_mid = f(mids)
        left = np.sign(f_lo) * np.sign(f_mid) <= 0.0
        his = np.where(left, mids, his)
        f_hi = np.where(left, f_mid, f_hi)
        los = np.where(left, los, mids)
        f_lo = np.where(left, f_lo, f_mid)
    return 0.5 * (los + his)
