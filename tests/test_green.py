import math

import numpy as np
import pytest

from chebgap import green
from chebgap.errors import DomainError, QuadratureError
from chebgap.green import (
    c_dot,
    critical_point_c,
    dalpha_green,
    green_eval,
    green_single_interval,
    green_two_interval,
    integrate_adaptive,
)

from _oracles import midpoint_c, midpoint_green

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
        monkeypatch.setattr(green, "_MAX_DEPTH", 2)
        with pytest.raises(QuadratureError) as exc_info:
            # step discontinuity with an irrational break resists depth 2
            integrate_adaptive(
                lambda t: (np.where(t < 1 / math.sqrt(2), 0.0, 1.0))[None, :],
                0.0, 1.0,
            )
        assert exc_info.value.partial is not None


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

    def test_endpoint_has_no_derivative(self):
        ev = green_eval(0.0, 0.5, 0.5)
        assert ev.g == 0.0
        assert ev.dg_dalpha is None

    def test_json(self):
        import json

        payload = json.loads(green_eval(-0.3, 0.4, -0.2).to_json())
        assert set(payload) == {"g", "dg_dalpha", "c", "c_dot", "err_estimate"}
