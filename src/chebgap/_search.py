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


def golden_max(f, lo: float, hi: float, xtol: float):
    """Maximize f on [lo, hi] by golden-section; returns (x, f(x)).

    Assumes f is unimodal on the bracket; with a multimodal f the result is
    a local maximum inside the bracket.  Endpoint values are checked too.
    """
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    xm, fm = (c, fc) if fc >= fd else (d, fd)
    for xe in (lo, hi):
        fe = f(xe)
        if fe > fm:
            xm, fm = xe, fe
    return xm, fm


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
