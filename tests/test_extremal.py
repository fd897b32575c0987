import math

import numpy as np
import pytest

from chebgap import extremal
from chebgap.chebyshev import ChebPoly, cheb_T, cheb_eval, remez_constant, remez_poly_value
from chebgap.errors import DomainError, SolverError
from chebgap.extremal import (
    ExtremalResult,
    solve_extremal,
    verify_feasibility,
)
from chebgap.intervals import (
    CompactSet,
    GapParams,
    Interval,
    discretize,
    make_gap_set,
    random_multigap_set,
)

from _oracles import exact_interpolant

VALUE_TOL = 1e-9

TWO_GAP = CompactSet((Interval(-1.0, -0.55), Interval(-0.25, 0.25), Interval(0.55, 1.0)))
FOUR_GAP = CompactSet((
    Interval(-1.0, -0.8), Interval(-0.6, -0.4), Interval(-0.2, 0.2),
    Interval(0.4, 0.6), Interval(0.8, 1.0),
))


def single_interval(delta):
    return CompactSet((Interval(-1.0 + 2.0 * delta, 1.0),))


class TestClosedForms:
    def test_inside_E_short_circuits(self):
        res = solve_extremal(CompactSet((Interval(-1.0, 1.0),)), 0.3, 5)
        assert res.value == 1.0
        assert res.case_tag == "none"

    def test_remez_instance(self):
        d = 0.4
        res = solve_extremal(single_interval(d), -1.0, 6, extension=False)
        assert res.value == pytest.approx(remez_constant(6, d), rel=1e-9)

    def test_even_akhiezer_instance(self):
        res = solve_extremal(make_gap_set(GapParams(0.0, 0.5)), 0.0, 6, extension=False)
        assert res.value == pytest.approx(cheb_T(3, 5.0 / 3.0), rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 20])
    def test_remez_sweep(self, n):
        d = 0.4
        res = solve_extremal(single_interval(d), -1.0, n, extension=False)
        assert res.value == pytest.approx(remez_constant(n, d), rel=1e-9)

    def test_degree_zero(self):
        res = solve_extremal(single_interval(0.4), -1.0, 0, extension=False)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_value_at_least_one(self):
        res = solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.5, 4, extension=False)
        assert res.value >= 1.0 - 1e-12

    def test_normalization_positive(self):
        for E, x0, n in [(make_gap_set(GapParams(-0.3, 0.4)), -0.3, 9),
                         (make_gap_set(GapParams(-0.3, 0.4)), -0.3, 100),
                         (single_interval(0.4), -1.0, 50)]:
            res = solve_extremal(E, x0, n, extension=False)
            assert res.value > 0.0
            assert cheb_eval(res.poly.coeffs, x0) == pytest.approx(res.value, rel=1e-9)


class TestStructure:
    def test_active_point_count(self):
        n = 9
        res = solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.3, n, extension=False)
        assert len(res.active_points) == n + 1
        assert len(res.active_signs) == n + 1

    def test_active_points_lie_in_E(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 8, extension=False)
        for t in res.active_points:
            assert E.contains(t, tol=1e-12)

    def test_stable_evaluate_matches_coeffs_at_small_scale(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 8, extension=False)
        xs = np.linspace(-1, 1, 50)
        assert np.allclose(res.evaluate(xs), cheb_eval(res.poly.coeffs, xs),
                           rtol=1e-9, atol=1e-9)

    def test_evaluate_in_the_gap_matches_exact(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 50, extension=False)
        xs = np.linspace(-0.7, 0.1, 9)[1:-1]
        exact = np.array([float(exact_interpolant(res.active_points, res.active_signs, x))
                          for x in xs])
        assert np.allclose(res.evaluate(xs), exact, rtol=1e-12, atol=0.0)
        assert res.evaluate(-0.3) == pytest.approx(res.value, rel=1e-12)
        # exact node hits return the sign
        assert np.array_equal(res.evaluate(np.array(res.active_points)),
                              np.array(res.active_signs, dtype=float))

    def test_grid_refinement_convergence(self, monkeypatch):
        E = make_gap_set(GapParams(-0.3, 0.4))
        monkeypatch.setattr(extremal, "_grid_density", lambda n, k: 96)
        a = solve_extremal(E, -0.3, 8, extension=False)
        monkeypatch.setattr(extremal, "_grid_density", lambda n, k: 192)
        b = solve_extremal(E, -0.3, 8, extension=False)
        assert abs(a.value - b.value) <= 10 * VALUE_TOL * max(1.0, a.value)

    def test_monotone_in_E(self):
        # fewer constraints -> larger value
        big = make_gap_set(GapParams(-0.3, 0.4))
        small = CompactSet((Interval(-1.0, -0.75), Interval(0.2, 1.0)))  # subset
        x0, n = -0.4, 7
        v_big = solve_extremal(big, x0, n, extension=False).value
        v_small = solve_extremal(small, x0, n, extension=False).value
        assert v_small >= v_big - VALUE_TOL * max(1.0, v_big)

    def test_monotone_in_n(self):
        E = make_gap_set(GapParams(-0.2, 0.35))
        vals = [solve_extremal(E, -0.2, n, extension=False).value for n in range(1, 11)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - VALUE_TOL * max(1.0, a)

    def test_gap_independence(self):
        # the extremizer depends on the gap, not on which x0 inside it
        E = make_gap_set(GapParams(-0.3, 0.4))
        r1 = solve_extremal(E, -0.5, 8, extension=False)
        r2 = solve_extremal(E, -0.15, 8, extension=False)
        probes = np.linspace(-0.95, 0.95, 20)
        p1 = r1.evaluate(probes)
        p2 = r2.evaluate(probes)
        sign = 1.0 if abs(p1[-1] - p2[-1]) < abs(p1[-1] + p2[-1]) else -1.0
        assert np.allclose(p1, sign * p2, atol=1e-6)

    def test_boundary_gap_beaten_by_remez(self):
        # x0 to the left of a multi-gap set of measure 2-2*delta: strictly
        # below the single-interval closed form at the same measure
        d = 0.4
        E = CompactSet((
            Interval(-0.3, 0.1), Interval(0.15, 0.6), Interval(0.65, 1.0),
        ))
        assert E.measure == pytest.approx(2.0 - 2.0 * d, abs=1e-15)
        for x0 in (-0.7, -0.35):
            for n in (5, 8):
                v = solve_extremal(E, x0, n, extension=False).value
                assert v < remez_poly_value(n, d, x0) + VALUE_TOL * max(1.0, v)

    def test_sparse_grid_error(self):
        E = CompactSet((Interval(0.0, 0.0), Interval(0.5, 0.5)))
        with pytest.raises(SolverError):
            solve_extremal(E, -1.0, 5, extension=False)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            solve_extremal(single_interval(0.4), -1.0, -1, extension=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPricingCache:
    """The simplex prices from a Cauchy matrix kept across pivots; pricing
    from scratch at every pivot must give the same bytes."""

    CASES = {
        "interval": (single_interval(0.4), -1.0),
        "two-gap(0.3)": (TWO_GAP, -0.4),
        "four-gap(0.4)": (FOUR_GAP, -0.7),
    }

    @staticmethod
    def _price_from_scratch(monkeypatch):
        monkeypatch.setattr(
            extremal._ExchangeLP, "_price",
            lambda self, C, t, s, logw, signw: extremal._bary_values(
                t, s, logw, signw, self.points),
        )

    @staticmethod
    def _spy(monkeypatch, name):
        calls = []
        method = getattr(extremal._ExchangeLP, name)

        def spy(self, *args):
            calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(extremal._ExchangeLP, name, spy)
        return calls

    @pytest.mark.parametrize("n", [12, 50])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_scratch_pricing(self, case, n, monkeypatch):
        E, x0 = self.CASES[case]
        appended = self._spy(monkeypatch, "append_points")
        cached = solve_extremal(E, x0, n, extension=False).to_json()
        assert appended, "no exchange round re-solved after append_points"
        self._price_from_scratch(monkeypatch)
        assert solve_extremal(E, x0, n, extension=False).to_json() == cached

    @pytest.mark.parametrize("case, pick", [
        ("interval", lambda grid, r: grid[::2]),
        ("two-gap(0.3)", lambda grid, r: grid[-r:]),
    ])
    def test_warm_start_cold_retry(self, case, pick, monkeypatch):
        # these seeds lead the seeded simplex into an unbounded direction, so
        # the solve restarts from a fresh basis (lp.basis = None)
        E, x0 = self.CASES[case]
        n = 12
        grid = discretize(E, extremal._grid_density(n, len(E.intervals)))
        seeds = pick(grid, n + 1)
        starts = self._spy(monkeypatch, "_initial_basis")
        cached = solve_extremal(E, x0, n, extension=False, warm_start=seeds).to_json()
        assert [a[0] is None for a in starts] == [False, True]
        self._price_from_scratch(monkeypatch)
        assert solve_extremal(E, x0, n, extension=False, warm_start=seeds).to_json() == cached


@pytest.mark.parametrize("m", [1, 2, 7, 400])
def test_nearest_distance_matches_dense(m):
    rng = np.random.default_rng(m)
    points = rng.uniform(-1.0, 1.0, m)
    xs = np.concatenate([rng.uniform(-1.5, 1.5, 300), points[::3], [-2.0, 2.0]])
    dense = np.min(np.abs(xs[:, None] - points[None, :]), axis=1)
    assert np.array_equal(extremal._nearest_distance(points, xs), dense)


class TestNExtension:
    @pytest.mark.parametrize("alpha, delta, x0, n", [
        (-0.3, 0.4, -0.3, 30), (-0.3, 0.4, -0.3, 40), (-0.3, 0.4, -0.3, 50),
        (-0.3, 0.4, -0.3, 100), (-0.3, 0.4, -0.3, 200),
        (-0.1, 0.4, -0.2, 50), (-0.1, 0.4, -0.2, 100),
        (None, 0.4, -1.0, 12),
    ])
    def test_extension_at_moderate_degree(self, alpha, delta, x0, n):
        E = single_interval(delta) if alpha is None else make_gap_set(GapParams(alpha, delta))
        res = solve_extremal(E, x0, n)
        for iv in E.intervals:
            assert any(c.lo - 1e-6 <= iv.lo and iv.hi <= c.hi + 1e-6
                       for c in res.n_extension.intervals)
        assert not res.n_extension.contains(x0, tol=1e-9)

    @pytest.mark.parametrize("alpha, x0, n, tag", [
        (-0.3, -0.3, 30, "left_interval"), (-0.3, -0.3, 50, "none"),
        (-0.1, -0.2, 50, "right_interval"),
    ])
    def test_components_against_exact(self, alpha, x0, n, tag):
        E = make_gap_set(GapParams(alpha, 0.4))
        res = solve_extremal(E, x0, n)
        assert res.case_tag == tag
        exact = lambda x: abs(exact_interpolant(res.active_points, res.active_signs, x))
        comps = res.n_extension.intervals
        assert len(comps) == len(E.intervals) + (tag != "none")
        for c in comps:
            # A component away from E is a few ulps wide around a root where
            # |P'| ~ 1e14, so no float end reaches |P| = 1 within 1e-8
            # there; its interior and its separation are checked instead.
            if any(E.contains(b, tol=1e-9) for b in (c.lo, c.hi)):
                for b in (c.lo, c.hi):
                    assert float(exact(b)) == pytest.approx(1.0, abs=1e-8)
            assert exact(0.5 * (c.lo + c.hi)) <= 1 + 1e-9
        for left, right in zip(comps, comps[1:]):
            assert exact(0.5 * (left.hi + right.lo)) > 1

    def test_remez_instance_no_extension(self):
        d = 0.4
        res = solve_extremal(single_interval(d), -1.0, 6)
        assert res.case_tag == "none"
        # E subset of E_n
        for iv in single_interval(d).intervals:
            assert any(c.lo - 1e-6 <= iv.lo and iv.hi <= c.hi + 1e-6
                       for c in res.n_extension.intervals)

    def test_even_akhiezer_no_extension(self):
        E = make_gap_set(GapParams(0.0, 0.5))
        res = solve_extremal(E, 0.0, 6)
        assert res.case_tag == "none"
        comps = res.n_extension.intervals
        assert len(comps) == 2
        flat = [v for c in comps for v in (c.lo, c.hi)]
        assert flat == pytest.approx([-1.0, -0.5, 0.5, 1.0], abs=1e-6)

    def test_generic_instance_structure(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 7)
        assert res.case_tag in ("right_interval", "extend_right",
                                "extend_left", "left_interval")
        # exactly one extension feature and x0 outside the preimage
        outside = [c for c in res.n_extension.intervals
                   if c.lo > 1.0 + 1e-7 or c.hi < -1.0 - 1e-7]
        extended = [c for c in res.n_extension.intervals
                    if (c.hi > 1.0 + 1e-7 and c.lo <= 1.0 + 1e-7)
                    or (c.lo < -1.0 - 1e-7 and c.hi >= -1.0 - 1e-7)]
        assert len(outside) + len(extended) == 1
        assert not res.n_extension.contains(-0.3, tol=1e-9)

    def test_alpha_sweep_hits_multiple_cases(self):
        d = 0.4
        tags = set()
        for alpha in np.linspace(-0.55, 0.0, 12):
            E = make_gap_set(GapParams(float(alpha), d))
            res = solve_extremal(E, float(alpha), 7)
            tags.add(res.case_tag)
        assert len(tags) >= 2  # the case rotates as the gap moves

    def test_constant_poly(self):
        E = make_gap_set(GapParams(0.0, 0.5))
        res = solve_extremal(E, 0.0, 0)
        assert res.case_tag == "none"

    def test_bump_next_to_an_interval_end(self):
        # |P| = 1 + 9.2e-10 between the left end of the last interval and
        # the first interior scan sample, which only an end bracket sees
        E = CompactSet((
            Interval(-1.0, -0.5317800507050946),
            Interval(-0.2540935189553467, -0.018215244616132553),
            Interval(0.543235006494954, 1.0),
        ))
        res = solve_extremal(E, -0.43745905780387717, 12)
        assert res.case_tag == "left_interval"
        assert verify_feasibility(res, E).max_violation <= 0.0
        for iv in E.intervals:
            assert any(c.lo - 1e-9 <= iv.lo and iv.hi <= c.hi + 1e-9
                       for c in res.n_extension.intervals)


class TestDegreeDeficiency:
    @pytest.mark.parametrize("E, x0, n", [
        (FOUR_GAP, -0.7, 5),
        (make_gap_set(GapParams(0.0, 0.5)), 0.0, 5),  # the answer is even
    ], ids=["four-gap(0.4)", "E(0,0.5)"])
    def test_lower_degree_answers_flagged(self, E, x0, n):
        assert solve_extremal(E, x0, n, extension=False).poly.degree_deficient

    @pytest.mark.parametrize("E, x0, n", [
        (single_interval(0.4), -1.0, 50),
        (single_interval(0.4), -1.0, 100),
        (make_gap_set(GapParams(-0.3, 0.4)), -0.3, 100),
        (make_gap_set(GapParams(-0.1, 0.4)), -0.2, 100),
        (make_gap_set(GapParams(-0.5, 0.3)), -0.5, 100),
    ], ids=["remez(0.4)-50", "remez(0.4)-100", "E(-0.3,0.4)-100", "E(-0.1,0.4)-100",
            "E(-0.5,0.3)-100"])
    def test_full_degree_answers_not_flagged(self, E, x0, n):
        # huge values on [-1, 1] made the T_n coefficient look negligible
        assert not solve_extremal(E, x0, n, extension=False).poly.degree_deficient


def move_endpoint(E, e, h):
    return CompactSet(tuple(
        Interval(iv.lo + h if iv.lo == e else iv.lo, iv.hi + h if iv.hi == e else iv.hi)
        for iv in E.intervals
    ))


def central_difference(E, x0, n, e, h=1e-6):
    up = solve_extremal(move_endpoint(E, e, h), x0, n, extension=False).value
    down = solve_extremal(move_endpoint(E, e, -h), x0, n, extension=False).value
    return (up - down) / (2.0 * h)


class TestEndpointSensitivity:
    @pytest.mark.parametrize("alpha", [-0.3, -0.2, -0.1, -0.001])
    def test_gap_sets_match_central_differences(self, alpha):
        E = make_gap_set(GapParams(alpha, 0.4))
        res = solve_extremal(E, -0.1, 12, extension=False)
        for e in (-1.0, E.intervals[0].hi, E.intervals[1].lo, 1.0):
            fd = central_difference(E, -0.1, 12, e)
            assert res.dvalue_dendpoint(e) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_sets_interior_endpoints(self, seed):
        E = random_multigap_set(0.4, 3, seed)
        lo, hi = max(E.gaps(), key=lambda g: g[1] - g[0])
        x0 = 0.5 * (lo + hi)
        res = solve_extremal(E, x0, 10, extension=False)
        for e in [v for iv in E.intervals for v in (iv.lo, iv.hi) if abs(v) != 1.0]:
            fd = central_difference(E, x0, 10, e)
            assert res.dvalue_dendpoint(e) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_inactive_endpoint_gives_zero(self):
        # at alpha = -0.001 the extremal polynomial does not reach -1 at -1
        E = make_gap_set(GapParams(-0.001, 0.4))
        res = solve_extremal(E, -0.1, 12, extension=False)
        assert -1.0 not in res.active_points
        assert res.dvalue_dendpoint(-1.0) == 0.0
        assert res.dvalue_dendpoint(0.5) == 0.0

    def test_endpoint_matched_within_ulps(self):
        E = make_gap_set(GapParams(-0.2, 0.4))
        res = solve_extremal(E, -0.1, 12, extension=False)
        e = E.intervals[0].hi
        slope = res.dvalue_dendpoint(e)
        assert slope != 0.0
        assert res.dvalue_dendpoint(math.nextafter(e, 1.0)) == slope
        assert res.dvalue_dendpoint(math.nextafter(e, -1.0)) == slope

    def test_dual_weights_sum_to_value(self):
        res = solve_extremal(TWO_GAP, -0.4, 12, extension=False)
        assert len(res.dual_weights) == len(res.active_points)
        assert min(res.dual_weights) >= 0.0
        assert sum(res.dual_weights) == pytest.approx(res.value, rel=1e-12)


class TestVerifyFeasibility:
    def test_solved_instance(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 10, extension=False)
        rep = verify_feasibility(res, E, probes=100_000)
        assert rep.ok
        assert rep.max_violation <= 1e-9

    def test_large_degree_remez_instance(self):
        # coefficient evaluation would show eps*value noise here; the stable
        # active-point form must stay clean
        d = 0.4
        E = single_interval(d)
        res = solve_extremal(E, -1.0, 20, extension=False)
        rep = verify_feasibility(res, E, probes=50_000)
        assert rep.max_violation <= 1e-9

    @pytest.mark.xfail(strict=True,
                       reason="D4: |P| reaches 1 + 6.2e-6 on this set, beyond feas_tol")
    def test_seeded_four_interval_set(self):
        E = CompactSet((
            Interval(-1.0, -0.721244534446349),
            Interval(-0.6055333608644459, -0.35573206407362123),
            Interval(-0.2516300376828912, 0.5521556746812406),
            Interval(0.8363519060278394, 1.0),
        ))
        res = solve_extremal(E, -0.6810723933289962, 50, extension=False)
        assert verify_feasibility(res, E).ok

    def test_constant_one(self):
        E = make_gap_set(GapParams(0.0, 0.5))
        rep = verify_feasibility(ChebPoly(0, (1.0,)), E, probes=1000)
        assert rep.max_violation == pytest.approx(0.0, abs=1e-15)

    def test_corrupted_poly_detected(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 6, extension=False)
        coeffs = list(res.poly.coeffs)
        coeffs[2] += 0.1
        bad = ChebPoly(6, tuple(coeffs))
        rep = verify_feasibility(bad, E, probes=10_000)
        assert not rep.ok
        assert rep.max_violation > 1e-9
