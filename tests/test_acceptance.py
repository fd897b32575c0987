"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 3 is expected to fail: the boundary limit it
asserts holds only at a logarithmic rate, so the stated tolerance cannot be
met at the stated offset; see the failure message for the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from chebgap.andrievskii import (
    brute_force_theorem1,
    residual_tail_slope,
    totik_widom_residuals,
)
from chebgap.chebyshev import cheb_T, remez_constant
from chebgap.envelope import delta_star, diagram, switching_point, x0_of_alpha, x_star
from chebgap.extremal import solve_extremal
from chebgap.green import (
    c_dot,
    critical_point_c,
    dalpha_green,
    green_single_interval,
    green_two_interval,
)
from chebgap.intervals import CompactSet, GapParams, Interval, make_gap_set


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {detail}  ({elapsed:.3f}s / budget {budget:g}s)")
    return ok


def test_criterion_01_delta_star_constant():
    delta_star(1e-8)  # warm-up, excluded from the timing
    t0 = time.perf_counter()
    value = delta_star(1e-8)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.543689) <= 1e-5 and elapsed < 1e-3
    assert _report(1, ok, f"delta_star = {value:.8f}", elapsed, 1e-3)


def test_criterion_02_symmetric_green_value():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 10):
        d = k / 10.0
        ref = 0.5 * math.log((1.0 + d) / (1.0 - d))
        worst = max(worst, abs(green_two_interval(0.0, d, 0.0) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    assert _report(2, ok, f"max deviation {worst:.2e}", elapsed, 1.0)


def test_criterion_03_boundary_limit():
    # Stated contract: |G(-1+delta+1e-6, delta, x) - G_single(delta, x)| <= 1e-3
    # at 10 interior x points for delta in {0.3, 0.4}.  The limit underlying
    # this criterion converges only at the capacity rate ~ 1/log(1/s): the
    # measured gap at s = 1e-6 is ~0.2, three orders above the tolerance,
    # so this criterion fails; see the decisions ledger for the analysis.
    t0 = time.perf_counter()
    worst = 0.0
    for d in (0.3, 0.4):
        alpha = -1.0 + d + 1e-6
        gap_lo, gap_hi = -1.0, -1.0 + 2.0 * d
        third = (gap_hi - gap_lo) / 3.0
        for x in np.linspace(gap_lo + third, gap_hi - third, 10):
            dev = abs(green_two_interval(alpha, d, float(x))
                      - green_single_interval(d, float(x)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 5.0
    assert _report(3, ok, f"max deviation {worst:.3f} (tolerance 1e-3)", elapsed, 5.0), (
        "boundary-limit criterion is unattainable as stated: the two-interval "
        "Green function converges to the single-interval one only like "
        "1/log(1/s) in the band width s (harmonic-measure/capacity rate), so "
        f"at s=1e-6 the deviation is {worst:.3f}, not <= 1e-3"
    )


def test_criterion_04_lp_vs_closed_forms():
    t0 = time.perf_counter()
    d = 0.4
    E = CompactSet((Interval(-1.0 + 2.0 * d, 1.0),))
    worst_a = max(
        abs(solve_extremal(E, -1.0, n, extension=False).value - remez_constant(n, d))
        / remez_constant(n, d)
        for n in range(1, 21)
    )
    E2 = make_gap_set(GapParams(0.0, 0.5))
    worst_b = max(
        abs(solve_extremal(E2, 0.0, 2 * m, extension=False).value - cheb_T(m, 5.0 / 3.0))
        / cheb_T(m, 5.0 / 3.0)
        for m in range(1, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-9 and worst_b <= 1e-9 and elapsed < 30.0
    assert _report(
        4, ok, f"rel err: boundary {worst_a:.2e}, symmetric-gap {worst_b:.2e}",
        elapsed, 30.0,
    )


def test_criterion_05_dalpha_monotonicity():
    t0 = time.perf_counter()
    pairs = [
        (frac * (d - 1.0) * 0.9, d)
        for d in (0.15, 0.3, 0.45, 0.6)
        for frac in (0.05, 0.25, 0.5, 0.75, 0.95)
    ]
    assert len(pairs) == 20
    violations = 0
    for alpha, d in pairs:
        a, b = alpha - d, alpha + d
        w = (b - a) / 200.0
        xs = np.linspace(a + w, b - w, 100)
        vals = np.array([dalpha_green(alpha, d, float(x)) for x in xs])
        violations += int(np.sum(np.diff(vals) <= 0.0))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert _report(5, ok, f"{violations} monotonicity violations on 20 pairs",
                   elapsed, 30.0)


def test_criterion_06_stationary_point_limits():
    t0 = time.perf_counter()
    z1 = x0_of_alpha(0.0, 0.5)
    z2 = x0_of_alpha(0.0, 0.4)
    boundary = x0_of_alpha(-1.0 + 0.4 + 1e-4, 0.4)
    elapsed = time.perf_counter() - t0
    ok = (abs(z1) <= 1e-8 and abs(z2) <= 1e-8
          and abs(boundary - (-0.2)) <= 0.05 and elapsed < 5.0)
    assert _report(
        6, ok,
        f"x0(0, .5)={z1:.2e}, x0(0, .4)={z2:.2e}, near-boundary x0={boundary:.4f}",
        elapsed, 5.0,
    )


def test_criterion_07_cdot_consistency_and_rate():
    t0 = time.perf_counter()
    pairs = [
        (frac * (d - 1.0) * 0.85, d)
        for d in (0.2, 0.35, 0.5, 0.65)
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert len(pairs) == 20
    h = 1e-5
    worst_fd = max(
        abs(c_dot(al, d)
            - (critical_point_c(al + h, d) - critical_point_c(al - h, d)) / (2 * h))
        for al, d in pairs
    )
    d = 0.4
    ratios = []
    for eps in (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3):
        al = -1.0 + d * (1.0 + 0.5 * eps * eps)
        ratios.append(c_dot(al, d) * (eps * math.log(eps)) ** 2)
    elapsed = time.perf_counter() - t0
    ok = (worst_fd <= 1e-6 and all(0.05 <= r <= 20.0 for r in ratios)
          and elapsed < 10.0)
    assert _report(
        7, ok,
        f"max |cdot - fd| = {worst_fd:.2e}, rate ratios "
        f"[{min(ratios):.3f}, {max(ratios):.3f}]",
        elapsed, 10.0,
    )


def test_criterion_08_totik_widom_boundary_branch():
    t0 = time.perf_counter()
    series = totik_widom_residuals(-0.95, 0.4, [25, 50, 100, 200], method="remez")
    rs = [abs(r) for _, _, r in series.entries]
    monotone = all(b < a for a, b in zip(rs, rs[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and rs[-1] < 0.05 and elapsed < 1.0
    assert _report(
        8, ok, f"|r_n| decreasing: {monotone}, |r_200| = {rs[-1]:.2e}",
        elapsed, 1.0,
    )


def test_criterion_09_totik_widom_interior_branch():
    t0 = time.perf_counter()
    series = totik_widom_residuals(-0.1, 0.4, range(10, 101, 10), method="lp")
    slope = residual_tail_slope(series, 50)
    elapsed = time.perf_counter() - t0
    ok = abs(slope) < 1e-3 and elapsed < 600.0
    assert _report(9, ok, f"tail slope {slope:.2e}", elapsed, 600.0)


def test_criterion_10_brute_force_structure_theorem():
    t0 = time.perf_counter()
    rep = brute_force_theorem1(-0.1, 0.4, 6, trials=200, seed=20250808)
    elapsed = time.perf_counter() - t0
    ok = len(rep.violations) == 0 and elapsed < 300.0
    assert _report(
        10, ok,
        f"200 trials, {len(rep.violations)} violations, max ratio {rep.max_ratio:.6f}",
        elapsed, 300.0,
    )


def test_criterion_11_diagram_structure():
    t0 = time.perf_counter()
    d = 0.4
    result = diagram(d, 120)
    xs_ok = -1.0 < result.x_star < result.x_switch < -0.2 < 0.0
    source_ok = True
    for r in result.rows:
        if r.x in (result.x_star, result.x_switch, result.gap_edge, -1.0):
            continue
        if r.region in ("a", "b") and r.source not in ("akhiezer", "tie"):
            source_ok = False
        if r.region in ("c", "d") and r.source != "remez":
            source_ok = False
        if r.region == "a" and r.alpha is not None:
            # interior maximizer must sit strictly inside the admissible range
            if not (r.x - d < r.alpha <= 0.0):
                source_ok = False
    elapsed = time.perf_counter() - t0
    ok = xs_ok and source_ok and elapsed < 120.0
    assert _report(
        11, ok,
        f"-1 < x_*={result.x_star:.4f} < x_s={result.x_switch:.4f} < -0.2; "
        f"region sources {'consistent' if source_ok else 'INCONSISTENT'}",
        elapsed, 120.0,
    )
