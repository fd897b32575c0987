import json
import math
import re
from dataclasses import replace

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
from chebgap.green import c_rows, g_rows, omega_rows
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

    @pytest.mark.parametrize("n,max_solves", [(12, 3), (24, 3)])
    def test_solve_count(self, n, max_solves):
        # the 33-point scan and its bracket search took 22 and 24 solves,
        # 2 and 9 once best-first on the LP start bounds; the lattice leaves
        # the two ends of the branch holding alpha* and the winner's
        # certificate, one of whose solves is a branch end
        with _stats.collect() as counts:
            L_n_delta(-0.1, 0.4, n)
        assert counts["Ln.solves"] == counts["lp.solves"] <= max_solves

    def test_range_end_maximum_is_finished_first(self):
        # the 33-point scan took the range end alpha = 0, M_n = 69.26135,
        # for the maximum (D7); the lattice point alpha_5, n omega = 5, lies
        # between two of its samples and is higher
        with _stats.collect() as counts:
            res = L_n_delta(-0.1, 0.4, 12)
        assert res.best_alpha == pytest.approx(-0.2248366847, abs=1e-9)
        assert res.value == pytest.approx(69.79681078925, rel=1e-11)
        assert res.value > 69.26135 * 1.007
        left, right = res.dvalue_dalpha
        assert left > 0.0 > right
        assert counts["Ln.solves"] <= 3 and counts["Ln.lattice"] == 3

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

    def test_smooth_maximum_closes_on_zero_slope(self):
        # the maximum lies inside a branch, n omega = 10.02, where dM_n/dalpha
        # crosses 0 smoothly; the Illinois search on the slope takes 6 solves
        # past the branch ends, where the bracket search bisected 25 times
        with _stats.collect() as counts:
            res = L_n_delta(-0.2, 0.2, 24)
        left, right = res.dvalue_dalpha
        assert 0.0 < left < 1e-4 and -1e-4 < right < 0.0
        alpha = np.array([res.best_alpha])
        k = 24 * omega_rows(alpha, 0.2, c_rows(alpha, 0.2))[0]
        assert abs(k - round(k)) > 0.01
        for h in (-1e-4, 1e-4):
            E = make_gap_set(GapParams(res.best_alpha + h, 0.2))
            assert solve_extremal(E, -0.2, 24, extension=False).value < res.value
        assert counts["Ln.solves"] <= 10

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

    def test_remez_prune_skips_the_alpha_search(self):
        with _stats.collect() as counts:
            res = L_n_delta(-0.7, 0.4, 12)
        assert counts["Ln.solves"] == 0
        assert not any(key.startswith("lp.") for key in counts)
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
    @pytest.mark.parametrize("x0", [-0.1, -0.19, -0.24, 0.0])
    def test_sample_prune_matches_full_scan(self, x0, n):
        # every sample of the former 33-point scan, solved by LP, is at most
        # L_n; the branches left unsolved, all but the one holding alpha*,
        # are those that cosh(n G) bounds by a lattice value or, at -0.24,
        # by the Remez value
        delta = 0.4
        with _stats.collect() as counts:
            res = L_n_delta(x0, delta, n)
        lo = max(delta - 1.0 + 1e-4, x0 - delta + 1e-9)
        hi = min(0.0, x0 + delta - 1e-9)
        for alpha in np.linspace(lo, hi, 33):
            E = make_gap_set(GapParams(float(alpha), delta))
            value = solve_extremal(E, x0, n, extension=False).value
            assert value <= res.value * (1.0 + 1e-9)
        branches = counts["Ln.lattice"] + (0 if hi == 0.0 and n % 2 == 0 else 1)
        assert counts["Ln.pruned"] == branches - 1 > 0
        if x0 == -0.24:
            # x0 lies between x_* and -1+2*delta, where G has a second local
            # maximum at lo: G rises toward lo on the first branch, so its
            # lattice end does not bound it, but cosh(n G) stays below Remez
            first = np.linspace(lo, andrievskii._lattice(n, delta, lo, hi)[0][0], 9)
            g = g_rows(first, delta, x0, c_rows(first, delta))
            assert np.all(np.diff(g) < 0.0)
            assert np.cosh(n * g).max() < res.remez_value

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0, n", [(-0.1, 24), (-0.25, 12)])
    def test_pruned_bracket_end_is_solved(self, x0, n, monkeypatch):
        # a lattice winner's certificate comes from solves just beside it,
        # also where the branch holding alpha* lies elsewhere and so no
        # branch end sits next to the winner
        full = L_n_delta(x0, 0.4, n)
        assert len(full.dvalue_dalpha) == 2    # an interior maximum
        lo = 0.4 - 1.0 + 1e-4

        def alpha_star_at_lo(delta, x):
            _, g_star, at_clip = _interior_max(delta, x)
            return lo, g_star, at_clip

        monkeypatch.setattr(andrievskii, "_interior_max", alpha_star_at_lo)
        res = L_n_delta(x0, 0.4, n)
        assert (res.value, res.best_alpha, res.dvalue_dalpha) == (
            full.value, full.best_alpha, full.dvalue_dalpha)
        tol = andrievskii._ALPHA_TOL
        solved = dict(res.akhiezer_profile)
        assert res.best_alpha - 0.5 * tol in solved and res.best_alpha + 0.5 * tol in solved

    @pytest.mark.parametrize("x0", [0.0, -0.1, -0.2, -0.3, -0.45, -0.7])
    def test_prune_bound_is_the_global_green_maximum(self, x0):
        # the prune trusts envelope._interior_max to find max_alpha G; a
        # 2049-point alpha grid over the same range finds nothing higher.
        # The root polish sets the maximum at x0 = -0.2 and -0.1, the range
        # end alpha = 0 at x0 = 0, and the clip from x0 = -0.3 down
        delta = 0.4
        _, g_star, _ = _interior_max(delta, x0)
        alphas = np.linspace(delta - 1.0 + 1e-8, min(0.0, x0 + delta) - 1e-9, 2049)
        g = g_rows(alphas, delta, x0, c_rows(alphas, delta))
        assert g.max() <= g_star + 1e-12

    def test_degree_36(self):
        # the cold solve at alpha = -0.5 + 1e-9 used to exceed its pivot cap
        # (D2); the 33-point scan gave 2,209,787.19073 at alpha = -0.0764
        # (D7), and the value is that of the lattice point alpha_16, which an
        # LP solve there matches within 1.1e-14
        res = L_n_delta(-0.1, 0.4, 36)
        assert res.value > L_n_delta(-0.1, 0.4, 30).value
        assert res.value == pytest.approx(2214746.96785, rel=1e-8)
        assert res.best_alpha == pytest.approx(-0.151662708, abs=1e-9)

    def test_maximum_between_scan_samples(self):
        # D7: the 33-point scan gave 19,126.39, 10.5% below the lattice point
        # alpha_9 = -0.328131554, n omega = 9, which it stepped over
        res = L_n_delta(-0.25, 0.4, 24)
        E = make_gap_set(GapParams(-0.328131554, 0.4))
        assert res.value >= solve_extremal(E, -0.25, 24).value * (1 - 1e-8)

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


class TestLattice:
    """E(alpha, delta) is a degree-n polynomial preimage exactly where
    n omega(alpha) = k, omega the equilibrium mass of its left band; there
    M_n(x0) = cosh(n G_alpha(x0)) at every x0 in the gap."""

    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("delta", [0.2, 0.3, 0.4])
    def test_lattice_points_are_preimages(self, delta, n):
        lo = np.array([delta - 1.0 + 1e-4])
        alphas, cs = andrievskii._lattice(n, delta, lo[0], 0.0)
        # every k above n omega(lo), the last k = n/2 at alpha = 0
        k_lo = math.floor(n * omega_rows(lo, delta, c_rows(lo, delta))[0]) + 1
        k = n * omega_rows(alphas, delta, cs)
        assert np.abs(k - np.arange(k_lo, n // 2 + 1)).max() <= 1e-9
        for alpha, c in zip(alphas, cs):
            x0 = alpha - 0.5 * delta
            g = g_rows(np.array([alpha]), delta, x0, np.array([c]))[0]
            E = make_gap_set(GapParams(float(alpha), delta))
            value = solve_extremal(E, x0, n, extension=False).value
            assert value == pytest.approx(math.cosh(n * g), rel=10 * andrievskii._VALUE_TOL)


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

    def test_parked_starts_drop_their_cauchy_buffer(self, monkeypatch):
        # the starts the best-first loop leaves on its queue hold no Cauchy
        # matrix, so only the LP being refined holds one
        real, rest = andrievskii._best_first, []

        def spy(*args):
            done, left = real(*args)
            rest.extend(left.values())
            return done, left

        monkeypatch.setattr(andrievskii, "_best_first", spy)
        brute_force_theorem1(-0.1, 0.4, 6, trials=25, seed=20250808)
        assert rest and all(lp.basis is not None and lp._C is None for lp in rest)

    def test_best_first_decisions_are_pinned(self):
        # the sets that are finished, left bounded and stepped, as before
        # their starts were batched
        with _stats.collect() as counts:
            rep = brute_force_theorem1(-0.1, 0.4, 6, trials=200, seed=20250808)
        assert (rep.reference_value, rep.max_ratio, rep.violations) == (
            5.9271137026239025, 0.9926929671655236, ())
        assert (counts["lp.solves"], counts["lp.bounded"], counts["lp.start_steps"]) == (3, 199, 62)

    @pytest.mark.parametrize("x0, n, seed", [
        (-0.1, 6, 20250808), (-0.15, 8, 7), (-0.15, 12, 1), (-0.3, 10, 99)])
    def test_start_bound_keeps_the_report(self, x0, n, seed, monkeypatch):
        # a trial whose LP start bounds M_n below both the largest value so
        # far and the violation bound is left unsolved; the report must be
        # that of solving every trial
        with _stats.collect() as counts:
            cut = brute_force_theorem1(x0, 0.4, n, trials=20, seed=seed)
        monkeypatch.setattr(andrievskii, "_PRUNE_MARGIN", math.inf)
        full = brute_force_theorem1(x0, 0.4, n, trials=20, seed=seed)
        assert counts["lp.bounded"] > 0
        assert (cut.max_ratio, cut.violations) == (full.max_ratio, full.violations)

    def test_start_bound_keeps_every_violation(self, monkeypatch):
        # with the reference halved, many trials violate; none may be lost
        # to the start bound
        real = andrievskii.L_n_delta

        def halved(x0, delta, n):
            res = real(x0, delta, n)
            return replace(res, value=0.5 * res.value)

        monkeypatch.setattr(andrievskii, "L_n_delta", halved)
        with _stats.collect() as counts:
            cut = brute_force_theorem1(-0.15, 0.4, 8, trials=20, seed=3)
        monkeypatch.setattr(andrievskii, "_PRUNE_MARGIN", math.inf)
        full = brute_force_theorem1(-0.15, 0.4, 8, trials=20, seed=3)
        assert counts["lp.bounded"] > 0 and len(full.violations) > 0
        assert (cut.max_ratio, cut.violations) == (full.max_ratio, full.violations)

    @pytest.mark.parametrize("x0, n, seed", [(-0.15, 8, 5), (-0.1, 6, 11), (-0.15, 8, 17),
                                             (-0.1, 6, 23)])
    def test_violations_come_in_trial_order(self, x0, n, seed, monkeypatch):
        # the best-first loop finishes trials by their bounds, not in the
        # order they were drawn; with the reference halved several violate,
        # and the report lists them by trial, as solving every trial does
        real, finish = andrievskii.L_n_delta, andrievskii._finish

        def halved(*args):
            res = real(*args)
            return replace(res, value=0.5 * res.value)

        finished = []

        def spy(lp, extension):
            finished.append([[iv.lo, iv.hi] for iv in lp.E.intervals])
            return finish(lp, extension)

        monkeypatch.setattr(andrievskii, "L_n_delta", halved)
        monkeypatch.setattr(andrievskii, "_finish", spy)
        cut = brute_force_theorem1(x0, 0.4, n, trials=20, seed=seed)
        trials = [v["trial"] for v in cut.violations]
        assert len(trials) >= 2 and trials == sorted(trials)
        done = [finished.index(v["set"]) for v in cut.violations]
        assert done != sorted(done)     # they finished out of trial order
        monkeypatch.setattr(andrievskii, "_PRUNE_MARGIN", math.inf)
        full = brute_force_theorem1(x0, 0.4, n, trials=20, seed=seed)
        assert (cut.max_ratio, cut.violations) == (full.max_ratio, full.violations)


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
