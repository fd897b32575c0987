import json
import math
import re

import numpy as np
import pytest

from chebgap import _stats, andrievskii, extremal
from chebgap.andrievskii import (
    L_n_delta,
    brute_force_theorem1,
    residual_tail_slope,
    totik_widom_residuals,
)
from chebgap.chebyshev import cheb_T, remez_constant, remez_poly_value
from chebgap.envelope import _interior_max
from chebgap.errors import DomainError, SolverError
from chebgap.extremal import solve_extremal
from chebgap.green import c_rows, g_rows
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

    @pytest.mark.parametrize("n,max_solves", [(12, 24), (24, 26)])
    def test_solve_count(self, n, max_solves, monkeypatch):
        calls = self._count_solves(monkeypatch)
        L_n_delta(-0.1, 0.4, n)
        assert len(calls) <= max_solves

    @pytest.mark.parametrize("n,max_pivots", [(12, 400), (24, 1300)])
    def test_pivot_count(self, n, max_pivots):
        # one simplex pivot per active point in every exchange round took
        # 950 and 2,706 pivots; moving the whole reference at once leaves
        # the grid solves
        with _stats.collect() as counts:
            L_n_delta(-0.1, 0.4, n)
        assert counts["lp.pivots"] <= max_pivots
        assert counts["lp.round_pivots_max"] <= 10

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

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_extremal(*args, **kwargs)

        monkeypatch.setattr(andrievskii, "solve_extremal", counted)
        return calls

    def test_remez_prune_skips_the_alpha_search(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        res = L_n_delta(-0.7, 0.4, 12)
        assert calls == []
        assert res.best == "remez"
        assert res.akhiezer_profile == () and res.near_ties == ()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [6, 12, 24])
    @pytest.mark.parametrize("x0", [-0.3, -0.45, -0.7])
    def test_remez_prune_matches_full_search(self, x0, n, monkeypatch):
        # at (-0.3, 6) Remez wins but does not prune the whole scan; a sample
        # prune that started its best from Remez would skip every sample and
        # leave the bracket search a -inf end ("invalid value" warnings)
        pruned = L_n_delta(x0, 0.4, n)
        monkeypatch.setattr(andrievskii, "_PRUNE_MARGIN", math.inf)
        full = L_n_delta(x0, 0.4, n)
        assert full.akhiezer_profile
        assert (pruned.best, pruned.value) == (full.best, full.value)

    @pytest.mark.parametrize("n", [12, 24])
    @pytest.mark.parametrize("x0", [-0.1, -0.19, 0.0])
    def test_sample_prune_matches_full_scan(self, x0, n, monkeypatch):
        # Bernstein-Walsh: M_n(x0, E(alpha)) <= exp(n G_alpha(x0)); a sample is
        # skipped only when the best solved value beats that bound by the
        # prune margin, so the search ends where the full scan's does
        margin = math.log1p(andrievskii._PRUNE_MARGIN)
        with _stats.collect() as counts:
            pruned = L_n_delta(x0, 0.4, n)
        monkeypatch.setattr(andrievskii, "_PRUNE_MARGIN", math.inf)
        full = L_n_delta(x0, 0.4, n)
        assert len(full.akhiezer_profile) == andrievskii._ALPHA_COARSE
        for field in ("best", "value", "best_alpha", "dvalue_dalpha", "near_ties"):
            assert getattr(pruned, field) == getattr(full, field), field
        solved = dict(pruned.akhiezer_profile)
        skipped = np.array([a for a, _ in full.akhiezer_profile if a not in solved])
        assert len(skipped) == counts["Ln.pruned"] > 0
        bounds = n * g_rows(skipped, 0.4, x0, c_rows(skipped, 0.4))
        assert np.all(bounds + margin <= math.log(max(solved.values())))
        values = np.array([v for a, v in full.akhiezer_profile if a not in solved])
        assert np.all(np.log(values) <= bounds + 1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0, n", [(-0.1, 24), (-0.25, 12)])
    def test_pruned_bracket_end_is_solved(self, x0, n, monkeypatch):
        # a bound that skips the argmax's neighbour on the side of its slope
        # must not cost the bracket search that end
        full = L_n_delta(x0, 0.4, n)
        assert len(full.dvalue_dalpha) == 2    # an interior maximum
        alphas, vals = map(list, zip(*full.akhiezer_profile))
        i = int(np.argmax(vals))
        j = i + 1 if alphas[i] < full.best_alpha else i - 1
        real_g_rows = andrievskii.g_rows

        def g_rows_low_at_j(al, *args):
            g = real_g_rows(al, *args)
            return np.where(al == alphas[j], -1e6, g)

        monkeypatch.setattr(andrievskii, "g_rows", g_rows_low_at_j)
        res = L_n_delta(x0, 0.4, n)
        assert alphas[j] in dict(res.akhiezer_profile)
        assert (res.value, res.best_alpha, res.dvalue_dalpha) == (
            full.value, full.best_alpha, full.dvalue_dalpha)

    @pytest.mark.parametrize("x0", [-0.3, -0.45, -0.7])
    def test_prune_bound_is_the_global_green_maximum(self, x0):
        # the prune trusts envelope._interior_max to find max_alpha G; a
        # 2049-point alpha grid over the same range finds nothing higher
        delta = 0.4
        _, g_star, _ = _interior_max(delta, x0)
        alphas = np.linspace(delta - 1.0 + 1e-8, min(0.0, x0 + delta) - 1e-9, 2049)
        g = g_rows(alphas, delta, x0, c_rows(alphas, delta))
        assert g.max() <= g_star + 1e-12

    def test_degree_36(self):
        # the cold solve at alpha = -0.5 + 1e-9 used to exceed its pivot cap
        # (D2); the value is that of the alpha search run to a 1e-11 bracket
        res = L_n_delta(-0.1, 0.4, 36)
        assert res.value > L_n_delta(-0.1, 0.4, 30).value
        assert res.value == pytest.approx(2209787.19073, rel=1e-8)

    def test_iteration_cap_states_the_solver(self, monkeypatch):
        # pricing that never prices out forces the cap; the message carries
        # the state there
        def never_optimal(self, C, t, s, logw, signw):
            vals = np.full(len(self.points), 2.0)
            vals[[j >> 1 for j in self.basis]] = s
            return vals

        monkeypatch.setattr(extremal._ExchangeLP, "_price", never_optimal)
        with pytest.raises(SolverError) as exc_info:
            L_n_delta(-0.1, 0.4, 6)
        msg = str(exc_info.value)
        assert re.search(r"simplex exceeded \d+ pivots at n = 6 on \d+ grid points; "
                         r"entering reduced cost -1 at the cap", msg), msg


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
