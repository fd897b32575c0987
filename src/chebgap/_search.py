"""Bracketed search primitives used across the package: lockstep golden
section for maxima, lockstep Illinois for roots."""

from __future__ import annotations

import math

import numpy as np

from . import _stats

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio


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
