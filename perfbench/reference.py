"""Independent references for the benchmark's output checks.

Nothing here imports chebgap.  The Green function uses a plain midpoint rule
with one Richardson step, the extremal polynomial is rebuilt from the
active points and signs the CLI prints, and the single-interval value is the
Chebyshev closed form.  Every check returns None when the output passes and
a one-line reason when it does not.
"""

from __future__ import annotations

import math

import numpy as np

MIDPOINT_PANELS = 4000


def _midpoint(f, lo, hi, panels):
    h = (hi - lo) / panels
    return float(f(lo + (np.arange(panels) + 0.5) * h).sum() * h)


def _richardson(f, lo, hi, panels=MIDPOINT_PANELS):
    coarse = _midpoint(f, lo, hi, panels)
    fine = _midpoint(f, lo, hi, 2 * panels)
    return (4.0 * fine - coarse) / 3.0


def _inv_sqrt(alpha, delta, psi):
    xi = alpha - delta * np.cos(psi)
    return 1.0 / np.sqrt((1.0 + xi) * (1.0 - xi))


def critical_point(alpha, delta):
    """c = alpha - delta*u/v for the gap (alpha-delta, alpha+delta) in (-1, 1)."""
    u = _richardson(lambda p: np.cos(p) * _inv_sqrt(alpha, delta, p), 0.0, math.pi)
    v = _richardson(lambda p: _inv_sqrt(alpha, delta, p), 0.0, math.pi)
    return alpha - delta * u / v


def green_gap(alpha, delta, x, c=None):
    """Green function of [-1, 1] minus the gap, at x in the closed gap."""
    if c is None:
        c = critical_point(alpha, delta)
    phi_x = math.acos(min(1.0, max(-1.0, (alpha - x) / delta)))
    if phi_x >= math.pi:
        return 0.0
    return _richardson(
        lambda p: (alpha - delta * np.cos(p) - c) * _inv_sqrt(alpha, delta, p),
        phi_x, math.pi,
    )


def green_symmetric(delta):
    """Closed form G_{0,delta}(0) = log((1+delta)/(1-delta)) / 2."""
    return 0.5 * math.log((1.0 + delta) / (1.0 - delta))


def green_single(delta, x):
    """Green function of [-1+2*delta, 1] at x <= -1+2*delta (closed form)."""
    return math.acosh(max(1.0, (delta - x) / (1.0 - delta)))


def log_cheb_t(n, y):
    """log T_n(y) for y >= 1, without overflow."""
    a = math.acosh(y)
    return n * a + math.log1p(math.exp(-2.0 * n * a)) - math.log(2.0)


def _close(got, want, rel, abs_tol=0.0):
    return abs(got - want) <= abs_tol + rel * max(abs(got), abs(want))


# ----------------------------------------------------------------------
# envelope workload
# ----------------------------------------------------------------------


def check_green_bundle(params, out):
    alpha, delta, x = params["alpha"], params["delta"], params["x"]
    c = critical_point(alpha, delta)
    g = green_gap(alpha, delta, x, c)
    if not _close(out["c"], c, 1e-9, 1e-10):
        return f"c={out['c']!r}, midpoint reference {c!r}"
    if not _close(out["g"], g, 1e-8, 1e-10):
        return f"G={out['g']!r}, midpoint reference {g!r}"
    if alpha == 0.0 and x == 0.0 and not _close(out["g"], green_symmetric(delta), 1e-10):
        return f"G_0(0)={out['g']!r}, closed form {green_symmetric(delta)!r}"
    if not out["c_dot"] > 1.0:
        return f"c_dot={out['c_dot']!r} is not > 1"
    return None


def check_x_star(params, out):
    edge = -1.0 + 2.0 * params["delta"]
    if not -1.0 < out < edge:
        return f"x_*={out!r} outside (-1, {edge!r})"
    return None


def check_switch(params, out, x_star=None):
    edge = -1.0 + 2.0 * params["delta"]
    lo = -1.0 if x_star is None else x_star
    if not lo <= out <= edge:
        return f"x_s={out!r} breaks x_*={x_star!r} <= x_s <= {edge!r}"
    return None


def check_envelope_point(params, out):
    delta, x = params["delta"], params["x"]
    edge = -1.0 + 2.0 * delta
    g_rem = green_single(delta, x) if x <= edge else None
    if out["source"] == "remez":
        if g_rem is None or not _close(out["phi"], g_rem, 1e-12, 1e-14):
            return f"remez phi={out['phi']!r}, closed form {g_rem!r}"
        return None
    alpha = out["alpha"]
    if alpha is None or not alpha - delta <= x <= alpha + delta:
        return f"{out['source']} point names alpha={alpha!r} whose gap misses x"
    g = green_gap(alpha, delta, x)
    if not _close(out["phi"], g, 1e-8, 1e-10):
        return f"phi={out['phi']!r}, midpoint G at alpha={alpha!r} is {g!r}"
    if g_rem is not None and out["phi"] < g_rem - 1e-8:
        return f"interior phi={out['phi']!r} below the remez branch {g_rem!r}"
    return None


# ----------------------------------------------------------------------
# oracle workload
# ----------------------------------------------------------------------


def _bary_weights(t):
    diff = t[:, None] - t[None, :]
    ad = np.abs(diff)
    np.fill_diagonal(ad, 1.0)
    logw = -np.log(ad).sum(axis=1)
    signw = np.where((diff < 0).sum(axis=1) % 2 == 0, 1.0, -1.0)
    return logw, signw


def _bary_eval(t, s, logw, signw, xs):
    w = signw * np.exp(logw - logw.max())
    d = xs[:, None] - t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d
        vals = (inv @ (w * s)) / (inv @ w)
    for i in np.flatnonzero(~np.isfinite(vals)):
        vals[i] = s[int(np.argmin(np.abs(d[i])))]
    return vals


def _log_lagrange_at(t, s, logw, signw, x0):
    """(signs, logs) of lambda_i = s_i l_i(x0), the dual weights."""
    d = x0 - t
    log_l = np.log(np.abs(d)).sum() + logw - np.log(np.abs(d))
    sign_ell = -1.0 if int((d < 0).sum()) % 2 else 1.0
    return s * sign_ell * signw * np.sign(d), log_l


def dense_sup(t, s, intervals, per_interval):
    """max |P| over Chebyshev-spaced probes of every interval of E."""
    logw, signw = _bary_weights(t)
    base = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, per_interval)))
    worst = 0.0
    for lo, hi in intervals:
        xs = lo + (hi - lo) * base
        worst = max(worst, float(np.abs(_bary_eval(t, s, logw, signw, xs)).max()))
    return worst


def check_extremal(params, out):
    """Certificate check of an `extremal` CLI answer.

    P interpolates the signs at the n+1 active points.  When every dual
    weight s_i l_i(x0) is positive and |P| <= 1 on E, P(x0) = sum of the
    weights is M_n(x0, E), so the reported value must equal that sum.
    """
    n, x0, intervals = params["n"], params["x0"], params["set"]
    t = np.asarray(out["active_points"], dtype=float)
    s = np.asarray(out["active_signs"], dtype=float)
    if len(t) != n + 1:
        return f"{len(t)} active points for degree {n}"
    order = np.argsort(t)
    t, s = t[order], s[order]
    logw, signw = _bary_weights(t)
    sign, log_l = _log_lagrange_at(t, s, logw, signw, x0)
    if np.any(sign < 0):
        return f"{int((sign < 0).sum())} negative dual weights"
    log_value = float(np.logaddexp.reduce(log_l))
    if abs(log_value - math.log(out["value"])) > 1e-8:
        return f"value={out['value']!r}, active-point sum {math.exp(log_value)!r}"
    sup = dense_sup(t, s, intervals, max(2000, 40 * (n + 1)))
    if sup > 1.0 + 1e-9:
        return f"max |P| on E is {sup!r} > 1 + 1e-9"
    if len(intervals) == 1:
        lo, hi = intervals[0]
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        want = log_cheb_t(n, abs(x0 - mid) / half)
        if abs(math.log(out["value"]) - want) > 1e-9 * max(1.0, want):
            return f"value={out['value']!r}, Remez closed form exp({want!r})"
    elif len(intervals) == 2:
        (_, a), (b, _) = intervals
        g = green_gap(0.5 * (a + b), 0.5 * (b - a), x0)
        if math.log(out["value"]) > n * g + 1e-9 * max(1.0, n * g):
            return f"log value {math.log(out['value'])!r} > n*G_E(x0) = {n * g!r}"
    return None


# ----------------------------------------------------------------------
# sweep workload
# ----------------------------------------------------------------------


def check_andrievskii(params, out):
    n, x0, delta = params["n"], params["x0"], params["delta"]
    value = out["value"]
    if x0 < -1.0 + 2.0 * delta:
        remez = math.exp(log_cheb_t(n, (delta - x0) / (1.0 - delta)))
        if not _close(out["remez_value"], remez, 1e-10):
            return f"remez_value={out['remez_value']!r}, closed form {remez!r}"
        if value < remez * (1.0 - 1e-12):
            return f"L_n={value!r} below the Remez configuration {remez!r}"
    if out["best"] == "akhiezer":
        alpha = out["best_alpha"]
        if not alpha - delta < x0 < alpha + delta:
            return f"best_alpha={alpha!r} leaves x0 outside its gap"
        g = green_gap(alpha, delta, x0)
        if math.log(value) > n * g + 1e-9 * max(1.0, n * g):
            return f"log L_n={math.log(value)!r} > n*G(x0) = {n * g!r} at best_alpha"
    best_sampled = max((v for _, v in out["akhiezer_profile"]), default=0.0)
    if value < best_sampled * (1.0 - 1e-9):
        return f"L_n={value!r} below a sampled configuration {best_sampled!r}"
    return None


def check_verify(params, out):
    last = out.strip().splitlines()[-1] if out.strip() else ""
    total = last.split(" ", 1)[0]
    if not (last.endswith("checks passed") and total.count("/") == 1
            and total.split("/")[0] == total.split("/")[1]):
        return f"verify reported {last!r}"
    return None
