import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebgap import _stats, green
from chebgap.envelope import x0_many
from chebgap.errors import DomainError, QuadratureError
from chebgap.equilibrium import _equilibrium
from chebgap.green import (
    c_cdot_rows,
    c_dot,
    critical_point_c,
    dalpha_green,
    g_dg_rows,
    green_eval,
    green_single_interval,
    green_two_interval,
    integrate_adaptive,
    omega_rows,
)

from chebgap.intervals import GapParams, make_gap_set

from _oracles import graded_cdot_dgreen, graded_midpoint_green, midpoint_c, midpoint_green

# dyadic (alpha, delta) pairs: gap endpoints and arccos arguments are exact
DYADIC_PAIRS = [
    (a / 64.0, d / 64.0)
    for a in (0, -8, -16, -24, -30)
    for d in (8, 16, 24, 32, 40)
    if d / 64.0 - 1.0 < a / 64.0 <= 0.0 and a / 64.0 - d / 64.0 > -1.0
][:50]


class TestQuadratureEngine:
    def test_polynomial_exact(self):
        val, err = integrate_adaptive(lambda t: (t ** 4)[None, :], 0.0, 1.0)
        assert val[0] == pytest.approx(0.2, abs=1e-14)

    def test_multi_component(self):
        val, _ = integrate_adaptive(
            lambda t: np.stack([np.sin(t), np.cos(t)]), 0.0, math.pi
        )
        assert val[0] == pytest.approx(2.0, abs=1e-12)
        assert val[1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_range(self):
        val, err = integrate_adaptive(lambda t: t[None, :], 1.0, 1.0)
        assert val[0] == 0.0

    def test_nonconvergence_raises(self, monkeypatch):
        # 11 panel estimates reach depth 2
        monkeypatch.setattr(green, "_MAX_PANELS", 11)
        with pytest.raises(QuadratureError, match="within 11 panels") as exc_info:
            # step discontinuity with an irrational break resists depth 2
            integrate_adaptive(
                lambda t: (np.where(t < 1 / math.sqrt(2), 0.0, 1.0))[None, :],
                0.0, 1.0,
            )
        assert exc_info.value.partial is not None

    def test_tolerance_below_rounding_stops_at_the_panel_cap(self):
        # at 1e-15 this row cannot converge; under a depth cap its panels
        # doubled per level until memory ran out, so the run sits in a
        # subprocess with a 2 GB address space and a timeout
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "import numpy as np\n"
            "from chebgap import green\n"
            "green._ABS_TOL = green._REL_TOL = 1e-15\n"
            "try:\n"
            "    green.g_dg_rows(np.array([0.08191127746681023]), 0.8216638489288124,\n"
            "                    -0.45055982073913825)\n"
            "except green.QuadratureError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(green.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert f"within {green._MAX_PANELS} panels" in proc.stdout

    def test_nonfinite_estimate_raises_at_once(self):
        # bisection cannot repair a nan, so the first estimate stops the run
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.full((1,) + t.shape, np.nan)

        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0)
        assert len(calls) == 1


class TestRowEngine:
    @staticmethod
    def f(t):
        return np.stack([np.sin(3.0 * t), np.exp(-t), 1.0 / (1.0 + t * t)])

    def test_rows_match_one_row_calls(self):
        lo = np.array([0.0, 0.3, -1.0, 2.0])
        hi = np.array([math.pi, 0.31, 4.0, 2.5])
        vals, errs = integrate_adaptive(self.f, lo, hi)
        assert vals.shape == errs.shape == (3, 4)
        for r in range(4):
            one, _ = integrate_adaptive(self.f, lo[r], hi[r])
            assert vals[:, r] == pytest.approx(one, rel=1e-14, abs=1e-14)
        # closed forms of the last two components
        assert vals[1] == pytest.approx(np.exp(-lo) - np.exp(-hi), abs=1e-14)
        assert vals[2] == pytest.approx(np.arctan(hi) - np.arctan(lo), abs=1e-14)

    def test_empty_row_integrates_to_zero(self):
        vals, errs = integrate_adaptive(self.f, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert np.all(vals[:, 1] == 0.0) and np.all(errs[:, 1] == 0.0)
        assert vals[1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)


class TestArrayCores:
    # one gap per alpha; the first row is the clipped boundary alpha, whose
    # integrands spike over a psi-width of about 2e-4, and x = -0.25 lies
    # inside every gap
    DELTA = 0.4
    ALPHAS = np.array([0.4 - 1.0 + 1e-8, -0.5, -0.4, -0.3, -0.1])
    X = -0.25

    def test_c_and_cdot_match_scalar_functions(self):
        c, cd = c_cdot_rows(self.ALPHAS, self.DELTA)
        for r, al in enumerate(self.ALPHAS):
            assert c[r] == pytest.approx(critical_point_c(al, self.DELTA), rel=1e-13)
            assert cd[r] == pytest.approx(c_dot(al, self.DELTA), rel=1e-12)

    def test_g_and_dg_match_scalar_functions(self):
        c, cd = c_cdot_rows(self.ALPHAS, self.DELTA)
        g, dg = g_dg_rows(self.ALPHAS, self.DELTA, self.X, c, cd)
        for r, al in enumerate(self.ALPHAS):
            assert g[r] == pytest.approx(green_two_interval(al, self.DELTA, self.X), abs=1e-13)
            assert dg[r] == pytest.approx(dalpha_green(al, self.DELTA, self.X), abs=1e-11)
        # without c and cdot, the rows for them join the quadrature of G
        g2, dg2 = g_dg_rows(self.ALPHAS, self.DELTA, self.X)
        assert g2 == pytest.approx(g, abs=1e-13)
        assert dg2 == pytest.approx(dg, abs=1e-11)
        # at the gap ends a and b, dG/dalpha reads -inf and +inf
        al = np.array([-0.3, -0.3])
        ends = np.array([-0.3 - self.DELTA, -0.3 + self.DELTA])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, dg_end = g_dg_rows(al, self.DELTA, ends, *c_cdot_rows(al, self.DELTA))
        assert dg_end.tolist() == [-math.inf, math.inf]
        # x broadcasts: one x per row
        xs = self.ALPHAS + 0.5 * self.DELTA
        g_x = g_dg_rows(self.ALPHAS, self.DELTA, xs, c, cd)[0]
        for r, al in enumerate(self.ALPHAS):
            assert g_x[r] == pytest.approx(green_two_interval(al, self.DELTA, xs[r]), abs=1e-13)

    def test_batch_with_clip_row_is_one_quadrature(self, monkeypatch):
        sizes = []

        def spy(f, lo, hi):
            sizes.append(np.size(lo))
            return integrate_adaptive(f, lo, hi)

        monkeypatch.setattr(green, "integrate_adaptive", spy)
        c, _ = c_cdot_rows(self.ALPHAS, self.DELTA)
        g, _ = g_dg_rows(self.ALPHAS, self.DELTA, self.X)
        assert sizes == [5, 10]
        for r, al in enumerate(self.ALPHAS):
            one = np.array([al])
            assert c[r] == pytest.approx(c_cdot_rows(one, self.DELTA)[0][0], abs=1e-13)
            assert g[r] == pytest.approx(g_dg_rows(one, self.DELTA, self.X)[0][0], abs=1e-13)

    def test_g_against_midpoint_oracle(self):
        alphas = self.ALPHAS[[0, 3]]
        g, _ = g_dg_rows(alphas, self.DELTA, self.X, *c_cdot_rows(alphas, self.DELTA))
        for r, al in enumerate(alphas):
            ref, c_ref = midpoint_green(al, self.DELTA, self.X)
            assert g[r] == pytest.approx(ref, abs=1e-9)


@given(
    st.floats(0.05, 0.95),
    st.lists(
        st.tuples(st.booleans(), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_g_rows_match_one_row_calls(delta, rows):
    # near rows put 1 + a in [1e-12, 1e-2], where the psi = 0 spike is
    # narrow; the others spread alpha over (delta - 1, 0].  A batch refines
    # every row at least as finely as a one-row call; the one-row error,
    # inside the engine's 1e-11 relative tolerance, reached 2.6e-13 in 3 of
    # about 34,000 random rows (all at delta near 0.93).
    alphas = np.array([
        delta - 1.0 + 10.0 ** (-12.0 + 10.0 * u) if near else 0.999 * (1.0 - u) * (delta - 1.0)
        for near, u, _ in rows
    ])
    xs = alphas + delta * np.array([t for *_, t in rows])
    g, _ = g_dg_rows(alphas, delta, xs)
    for r in range(len(alphas)):
        assert g[r] == pytest.approx(g_dg_rows(alphas[[r]], delta, xs[r])[0][0], abs=1e-12)


class TestNearBoundary:
    # The graded oracle resolves the psi = 0 spike, about 2e-6 wide at
    # 1 + a = 1e-12, which the uniform midpoint rule cannot.
    @pytest.mark.parametrize("gap", [1e-8, 1e-12])
    def test_c_and_g_against_graded_oracle(self, gap):
        delta = 0.4
        alpha = delta - 1.0 + gap
        xs = (alpha - delta) + np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.4, 0.8 - 1e-6])
        c = c_cdot_rows(np.array([alpha]), delta)[0][0]
        g, _ = g_dg_rows(np.full(len(xs), alpha), delta, xs)
        for x, gx in zip(xs, g):
            g_ref, c_ref = graded_midpoint_green(alpha, delta, x)
            assert gx == pytest.approx(g_ref, abs=1e-9)
        assert c == pytest.approx(c_ref, abs=1e-9)

    @pytest.mark.parametrize("gap", [1e-12, 1e-8, 1e-4, 0.3])
    def test_cdot_and_dg_against_the_forms_with_c_inside(self, gap):
        # cdot from J1 = K- - V, J2 = (K- - K+)/2 and J3 = (1 + alpha) V -
        # delta U, and I1 = ((1 + c) K+ + (1 - c) K-)/2, against the graded
        # midpoint rule on the integrands that these identities replace;
        # they agreed within 2.5e-11 relative for cdot and 2.2e-10 for
        # dG/dalpha
        delta = 0.4
        alpha = delta - 1.0 + gap
        xs = (alpha - delta) + np.array([1e-9, 1e-6, 1e-3, 0.4, 0.8 - 1e-6])
        cd_ref, dg_ref = graded_cdot_dgreen(alpha, delta, xs)
        assert c_dot(alpha, delta) == pytest.approx(cd_ref, rel=1e-9)
        _, dg = g_dg_rows(np.full(len(xs), alpha), delta, xs)
        assert dg == pytest.approx(dg_ref, rel=1e-9)

    def test_alpha_within_an_ulp_of_the_clip_is_refused(self):
        # delta - 1 < alpha holds, but 1 + alpha - delta rounds to 0, which
        # leaves the tau-range of every row undefined
        alpha, delta = -0.49999999999999994, 0.5
        assert delta - 1.0 < alpha and 1.0 + alpha - delta == 0.0
        for call in (critical_point_c, c_dot):
            with pytest.raises(DomainError):
                call(alpha, delta)
        for call in (green_two_interval, dalpha_green, green_eval):
            with pytest.raises(DomainError):
                call(alpha, delta, -0.9)
        assert np.isnan(x0_many(np.array([alpha]), delta)[0])


class TestCriticalPoint:
    def test_symmetric_center(self):
        assert critical_point_c(0.0, 0.5) == pytest.approx(0.0, abs=1e-13)

    def test_against_midpoint_oracle(self):
        c = critical_point_c(-0.3, 0.4)
        assert c == pytest.approx(midpoint_c(-0.3, 0.4), abs=1e-9)
        assert -0.7 < c < 0.1

    def test_boundary_drift_toward_band(self):
        # as the gap nears -1 the critical point drifts toward -1 = a,
        # i.e. c - a shrinks while b - c grows
        d = 0.4
        gaps = []
        for s in (1e-2, 1e-4, 1e-6):
            al = -1.0 + d + s
            c = critical_point_c(al, d)
            gaps.append((c - (al - d), (al + d) - c))
        c_minus_a = [g[0] for g in gaps]
        b_minus_c = [g[1] for g in gaps]
        assert c_minus_a[0] > c_minus_a[1] > c_minus_a[2]
        assert b_minus_c[0] < b_minus_c[1] < b_minus_c[2]
        # matches the finite-difference drift direction
        al = -1.0 + d + 1e-4
        h = 1e-7
        drift = (critical_point_c(al + h, d) - critical_point_c(al - h, d)) / (2 * h)
        assert drift > 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            critical_point_c(-0.7, 0.4)  # gap reaches -1
        with pytest.raises(DomainError):
            critical_point_c(0.1, 0.4)  # positive center
        with pytest.raises(DomainError):
            critical_point_c(0.0, 1.0)


class TestGreenTwoInterval:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_symmetric_center_closed_form(self, delta):
        ref = 0.5 * math.log((1.0 + delta) / (1.0 - delta))
        assert green_two_interval(0.0, delta, 0.0) == pytest.approx(ref, abs=1e-10)

    def test_interior_vs_midpoint_oracle(self):
        g, _ = midpoint_green(-0.3, 0.4, -0.2)
        assert green_two_interval(-0.3, 0.4, -0.2) == pytest.approx(g, abs=1e-9)
        assert green_two_interval(-0.3, 0.4, -0.2) > 0.0

    @pytest.mark.parametrize("alpha,delta", DYADIC_PAIRS)
    def test_vanishes_at_gap_endpoints(self, alpha, delta):
        # dyadic parameters make the endpoint arccos argument exactly +-1
        assert abs(green_two_interval(alpha, delta, alpha - delta)) <= green._ABS_TOL
        assert abs(green_two_interval(alpha, delta, alpha + delta)) <= green._ABS_TOL

    def test_positive_inside(self):
        for alpha, delta in ((-0.25, 0.375), (-0.5, 0.25), (0.0, 0.75)):
            xs = np.linspace(alpha - delta, alpha + delta, 21)[1:-1]
            for x in xs:
                assert green_two_interval(alpha, delta, float(x)) > 0.0

    def test_symmetry_in_x(self):
        for x in (0.1, 0.25, 0.49):
            left = green_two_interval(0.0, 0.5, -x)
            right = green_two_interval(0.0, 0.5, x)
            assert left == pytest.approx(right, abs=1e-10)

    def test_outside_gap_rejected(self):
        with pytest.raises(DomainError):
            green_two_interval(-0.3, 0.4, 0.5)

    def test_symmetric_general_point_closed_form(self):
        # at alpha=0 the set is even and reduces to a single interval in x^2:
        # G(x) = arccosh((1+d^2-2x^2)/(1-d^2)) / 2
        d = 0.5
        for x in (0.1, 0.25, 0.4):
            ref = 0.5 * math.acosh((1 + d * d - 2 * x * x) / (1 - d * d))
            assert green_two_interval(0.0, d, x) == pytest.approx(ref, abs=1e-10)


class TestGreenSingleInterval:
    def test_zero_at_band_edge(self):
        for d in (0.2, 0.5, 0.8):
            assert green_single_interval(d, -1.0 + 2.0 * d) == pytest.approx(0.0, abs=1e-7)

    def test_value_at_minus_one(self):
        # arccosh(3) = log(3 + 2 sqrt(2)), frozen from the exact expression
        assert green_single_interval(0.5, -1.0) == pytest.approx(
            1.7627471740390861, rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            green_single_interval(0.4, 0.0)  # right of the band edge


class TestBoundaryLimit:
    def test_logarithmic_convergence_toward_single_interval(self):
        # The limit holds but at capacity rate ~ 1/log(1/s): the deviation
        # shrinks monotonically and roughly proportionally to 1/|log s|.
        d = 0.4
        x = -0.8
        ref = green_single_interval(d, x)
        devs = []
        for s in (1e-4, 1e-6, 1e-8, 1e-12):
            devs.append(abs(green_two_interval(-1.0 + d + s, d, x) - ref))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        ratio = devs[0] / devs[3]  # |log| ratio would be 27.6/9.2 = 3
        assert 1.5 < ratio < 6.0

    def test_fast_agreement_near_gap_right_edge(self):
        # near x = -1+2*delta both functions vanish and agree closely
        d = 0.4
        al = -1.0 + d + 1e-6
        x = al + d - 1e-5
        assert green_two_interval(al, d, x) == pytest.approx(
            green_single_interval(d, x), abs=1e-3
        )


class TestCDot:
    def test_exceeds_one(self):
        assert c_dot(0.0, 0.5) > 1.0
        assert c_dot(-0.3, 0.4) > 1.0

    @pytest.mark.parametrize(
        "alpha,delta",
        [(-0.3, 0.4), (-0.1, 0.2), (-0.45, 0.5), (-0.05, 0.6), (-0.2, 0.35)],
    )
    def test_matches_finite_differences(self, alpha, delta):
        h = 1e-5
        fd = (critical_point_c(alpha + h, delta) - critical_point_c(alpha - h, delta)) / (2 * h)
        assert abs(c_dot(alpha, delta) - fd) <= 1e-6

    def test_boundary_divergence_rate(self):
        # cdot ~ (eps log eps)^-2 as the gap nears -1
        d = 0.4
        for eps in (1e-1, 1e-2, 1e-3):
            al = -1.0 + d * (1.0 + 0.5 * eps * eps)
            ratio = c_dot(al, d) * (eps * math.log(eps)) ** 2
            assert 0.05 < ratio < 20.0

    def test_divergence_monotone(self):
        d = 0.4
        vals = [c_dot(-1.0 + d * (1.0 + 0.5 * e * e), d) for e in (1e-1, 1e-2, 1e-3)]
        assert vals[0] < vals[1] < vals[2]


class TestDalphaGreen:
    def test_symmetric_zero(self):
        assert dalpha_green(0.0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_blows_down_at_left_endpoint(self):
        a = -0.3 - 0.4
        assert dalpha_green(-0.3, 0.4, a + 1e-8) < -1e3

    def test_blows_up_at_right_endpoint(self):
        b = -0.3 + 0.4
        assert dalpha_green(-0.3, 0.4, b - 1e-8) > 1e3

    def test_matches_finite_differences(self):
        alpha, delta, x = -0.3, 0.4, -0.3  # gap midpoint
        h = 1e-5
        fd = (
            green_two_interval(alpha + h, delta, x)
            - green_two_interval(alpha - h, delta, x)
        ) / (2 * h)
        assert abs(dalpha_green(alpha, delta, x) - fd) <= 1e-6

    @pytest.mark.parametrize(
        "alpha,delta",
        [(-0.3, 0.4), (-0.1, 0.3), (0.0, 0.5), (-0.45, 0.5), (-0.02, 0.1),
         (-0.55, 0.42), (-0.2, 0.6), (0.0, 0.2), (-0.33, 0.35), (-0.15, 0.52)],
    )
    def test_strictly_increasing_and_sign_change(self, alpha, delta):
        a, b = alpha - delta, alpha + delta
        w = (b - a) / 200.0
        xs = np.linspace(a + w, b - w, 100)
        vals = np.array([dalpha_green(alpha, delta, float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] < 0.0 < vals[-1]

    def test_endpoint_refusal(self):
        with pytest.raises(DomainError):
            dalpha_green(-0.3, 0.4, -0.7 + 1e-11)
        with pytest.raises(DomainError):
            dalpha_green(-0.3, 0.4, 0.2)


class TestGreenEval:
    def test_bundle_fields(self):
        ev = green_eval(-0.3, 0.4, -0.2)
        assert ev.g == pytest.approx(green_two_interval(-0.3, 0.4, -0.2), abs=1e-12)
        assert ev.dg_dalpha == pytest.approx(dalpha_green(-0.3, 0.4, -0.2), abs=1e-12)
        assert ev.c == pytest.approx(critical_point_c(-0.3, 0.4), abs=1e-14)
        assert ev.c_dot > 1.0
        assert ev.g >= -ev.err_estimate
        assert -0.7 < ev.c < 0.1

    def test_one_quadrature_each(self):
        # the rows for c and cdot join the tails of G and dG/dalpha
        for call in (green_eval, dalpha_green):
            with _stats.collect() as counts:
                call(-0.3, 0.4, -0.2)
            assert counts["quad.calls"] == 1

    def test_endpoint_has_no_derivative(self):
        ev = green_eval(0.0, 0.5, 0.5)
        assert ev.g == 0.0
        assert ev.dg_dalpha is None

    def test_json(self):
        import json

        payload = json.loads(green_eval(-0.3, 0.4, -0.2).to_json())
        assert set(payload) == {"g", "dg_dalpha", "c", "c_dot", "err_estimate"}


class TestOmega:
    """omega(alpha), the equilibrium mass of the left band [-1, a] of
    E(alpha, delta), from the 64-point band chart of `omega_rows`."""

    @staticmethod
    def _omega(alpha, delta):
        al = np.atleast_1d(np.asarray(alpha, dtype=float))
        return omega_rows(al, delta, c_cdot_rows(al, delta)[0])

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.3, 0.5, 0.8])
    def test_half_at_the_symmetric_gap(self, delta):
        assert self._omega(0.0, delta)[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.2, 0.4, 0.6, 0.8])
    def test_64_points_match_4096(self, delta):
        # from the alpha clip of L_n_delta, where the band is 1e-4 long, to 0
        al = np.linspace(delta - 1.0 + 1e-4, 0.0, 41)
        c, _ = c_cdot_rows(al, delta)
        a, b = al - delta, al + delta
        theta = math.pi * (np.arange(4096) + 0.5) / 4096
        x = (0.5 * (a - 1.0))[:, None] - (0.5 * (a + 1.0))[:, None] * np.cos(theta)
        ref = ((c[:, None] - x) / np.sqrt((b[:, None] - x) * (1.0 - x))).mean(axis=1)
        w = omega_rows(al, delta, c)
        assert np.abs(w - ref).max() <= 1e-14
        assert np.all(np.diff(w) > 0.0)

    @pytest.mark.parametrize("delta", [0.02, 0.1, 0.2, 0.3, 0.4, 0.45])
    def test_matches_the_equilibrium_cdf(self, delta):
        # where the left band is at least 0.01 long; shorter bands, and at
        # delta = 0.8 a band of 0.01 (5e-11), are beyond the cosine charts
        # of _equilibrium
        al = np.linspace(delta - 1.0 + 1e-4, 0.0, 41)
        al = al[1.0 + al - delta >= 0.01]
        w = self._omega(al, delta)
        cdf = np.array([_equilibrium(make_gap_set(GapParams(a, delta)))[1](a) for a in al])
        assert np.abs(w - cdf).max() <= 1e-12
