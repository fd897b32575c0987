import json
import math

import numpy as np
import pytest

from chebgap import andrievskii
from chebgap.andrievskii import (
    L_n_delta,
    brute_force_theorem1,
    residual_tail_slope,
    totik_widom_residuals,
)
from chebgap.chebyshev import cheb_T, remez_constant, remez_poly_value
from chebgap.errors import DomainError, SolverError
from chebgap.extremal import solve_extremal
from chebgap.intervals import GapParams, make_gap_set


class TestLnDelta:
    def test_symmetric_point_prefers_akhiezer(self):
        for m in (2, 3):
            res = L_n_delta(0.0, 0.5, 2 * m)
            assert res.best == "akhiezer"
            assert abs(res.best_alpha) < 1e-4
            assert res.value == pytest.approx(cheb_T(m, 5.0 / 3.0), rel=1e-8)
            # at delta = 1/2 the boundary candidate at 0 is the constant 1
            assert res.remez_value is None  # x0 = 0 is not left of -1+2*delta

    def test_left_endpoint_prefers_remez(self):
        res = L_n_delta(-1.0, 0.4, 10)
        assert res.best == "remez"
        assert res.value == pytest.approx(remez_constant(10, 0.4), rel=1e-12)
        assert res.best_alpha is None

    def test_value_dominates_profile(self):
        res = L_n_delta(-0.1, 0.4, 12)
        for _, v in res.akhiezer_profile:
            assert res.value >= v - 1e-9 * max(1.0, v)
        if res.remez_value is not None:
            assert res.value >= res.remez_value - 1e-12

    def test_nondecreasing_in_n(self):
        for x0, delta in ((-0.1, 0.4), (-0.5, 0.3), (-0.9, 0.45)):
            vals = [L_n_delta(x0, delta, n).value for n in range(2, 13, 2)]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9 * max(1.0, a)

    def test_degree_zero(self):
        assert L_n_delta(-0.1, 0.4, 0).value == pytest.approx(1.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            L_n_delta(0.5, 0.4, 5)
        with pytest.raises(DomainError):
            L_n_delta(-0.1, 1.0, 5)

    @pytest.mark.parametrize("n,max_solves", [(12, 38), (24, 50)])
    def test_solve_count(self, n, max_solves, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_extremal(*args, **kwargs)

        monkeypatch.setattr(andrievskii, "solve_extremal", counted)
        L_n_delta(-0.1, 0.4, n)
        assert len(calls) <= max_solves

    def test_interior_maximum_matches_fine_polish(self):
        # reference: the scan's bracket polished by golden section to an
        # alpha width of 1e-12
        res = L_n_delta(-0.25, 0.4, 12)
        assert res.value == pytest.approx(97.79414804609706, rel=1e-6)
        assert res.best_alpha == pytest.approx(-0.2248366847294816, abs=1e-6)
        assert res.value >= max(v for _, v in res.akhiezer_profile)

    def test_certificate_slope_signs(self):
        interior = L_n_delta(-0.25, 0.4, 12)
        left, right = interior.dvalue_dalpha
        assert left > 0.0 > right
        # the maximum at the right end alpha = 0 has an outward slope
        end = L_n_delta(-0.1, 0.4, 6)
        assert end.best_alpha == 0.0
        (outward,) = end.dvalue_dalpha
        assert outward > 0.0
        assert L_n_delta(-0.7, 0.4, 12).dvalue_dalpha == ()
        assert json.loads(interior.to_json())["dvalue_dalpha"] == [left, right]

    @pytest.mark.xfail(strict=True, raises=SolverError,
                       reason="D2: the simplex exceeds its iteration limit")
    def test_degree_36(self):
        assert L_n_delta(-0.1, 0.4, 36).value > L_n_delta(-0.1, 0.4, 30).value


class TestResiduals:
    def test_boundary_branch_closed_form(self):
        series = totik_widom_residuals(-0.95, 0.4, [25, 50, 100, 200], method="remez")
        rs = [r for _, _, r in series.entries]
        assert all(r > 0 for r in rs[:3])
        assert all(abs(b) < abs(a) for a, b in zip(rs, rs[1:]))
        assert abs(rs[-1]) < 0.05
        # r_n = log1p(exp(-2 n phi)) exactly
        phi = series.phi
        for n, _, r in series.entries:
            assert r == pytest.approx(math.log1p(math.exp(-2 * n * phi)), rel=1e-12)

    def test_degree_zero_entry(self):
        series = totik_widom_residuals(-0.95, 0.4, [0], method="remez")
        (n, ln, r), = series.entries
        assert (n, ln) == (0, 1.0)
        assert r == pytest.approx(math.log(2.0), rel=1e-15)

    def test_lp_matches_closed_form_in_remez_region(self):
        series = totik_widom_residuals(-0.95, 0.4, [6, 10], method="lp")
        ref = totik_widom_residuals(-0.95, 0.4, [6, 10], method="remez")
        for (n1, l1, _), (n2, l2, _) in zip(series.entries, ref.entries):
            assert l1 == pytest.approx(l2, rel=1e-8)

    def test_interior_branch_bounded(self):
        series = totik_widom_residuals(-0.1, 0.4, range(4, 25, 4), method="lp")
        rs = [r for _, _, r in series.entries]
        assert max(np.abs(rs)) < 2.0

    def test_tail_slope_helper(self):
        series = totik_widom_residuals(-0.95, 0.4, [50, 100, 150, 200], method="remez")
        assert abs(residual_tail_slope(series, 50)) < 1e-10
        with pytest.raises(DomainError):
            residual_tail_slope(series, 1000)

    def test_csv_emission(self):
        series = totik_widom_residuals(-0.95, 0.4, [10, 20], method="remez")
        lines = series.to_csv().strip().split("\n")
        assert lines[0] == "n,L_n,log2Ln,n_phi,residual"
        assert len(lines) == 3

    def test_method_validation(self):
        with pytest.raises(DomainError):
            totik_widom_residuals(-0.95, 0.4, [5], method="nope")
        with pytest.raises(DomainError):
            totik_widom_residuals(-0.1, 0.4, [5], method="remez")  # not in band


class TestBruteForce:
    def test_no_violations_smoke(self):
        rep = brute_force_theorem1(-0.1, 0.4, 6, trials=25, seed=20250808)
        assert rep.ok
        assert rep.max_ratio <= 1.0 + 1e-8

    def test_deterministic(self):
        a = brute_force_theorem1(-0.1, 0.4, 5, trials=10, seed=7)
        b = brute_force_theorem1(-0.1, 0.4, 5, trials=10, seed=7)
        assert a.max_ratio == b.max_ratio
        assert a.reference_value == b.reference_value

    def test_structured_configuration_reaches_reference(self):
        # the best one-gap configuration itself is a admissible "trial":
        # its oracle value reproduces the reference within tolerance
        res = L_n_delta(-0.1, 0.4, 6)
        assert res.best == "akhiezer"
        E = make_gap_set(GapParams(res.best_alpha, 0.4))
        direct = solve_extremal(E, -0.1, 6, extension=False).value
        assert direct / res.value == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            brute_force_theorem1(-0.1, 0.4, 6, trials=0, seed=1)


class TestArgmaxConsistency:
    def test_source_agreement_with_envelope_at_n100(self):
        # away from the switching point the finite-n winner matches the
        # asymptotic source; growth rates approach the envelope
        from chebgap.envelope import switching_point, upper_envelope

        d = 0.4
        xs_switch = switching_point(d)
        for x0 in (-0.9, -0.5, -0.1):
            assert abs(x0 - xs_switch) > 0.02
            res = L_n_delta(x0, d, 100)
            env = upper_envelope(d, x0)
            expected = "remez" if env.source == "remez" else "akhiezer"
            assert res.best == expected
            rate = math.log(2.0 * res.value) / 100.0
            assert abs(rate - env.phi) < 0.05
