import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebgap import _stats, extremal
from chebgap.chebyshev import cheb_T, remez_constant, remez_poly_value
from chebgap.errors import DomainError, SolverError
from chebgap.extremal import (
    CASE_TAGS,
    ExtremalResult,
    solve_extremal,
    verify_feasibility,
)
from chebgap.green import critical_point_c
from chebgap.intervals import (
    CompactSet,
    GapParams,
    Interval,
    discretize,
    make_gap_set,
    random_multigap_set,
)

from _oracles import (
    alternating_exchange,
    bary_values,
    equilibrium_cdf,
    exact_interpolant,
    extension_by_roots,
    fixed_point_interpolant,
    golden_max_many,
    monomial_equilibrium,
)

VALUE_TOL = 1e-9

TWO_GAP = CompactSet((Interval(-1.0, -0.55), Interval(-0.25, 0.25), Interval(0.55, 1.0)))
FOUR_GAP = CompactSet((
    Interval(-1.0, -0.8), Interval(-0.6, -0.4), Interval(-0.2, 0.2),
    Interval(0.4, 0.6), Interval(0.8, 1.0),
))

# seed 205 of an oracle benchmark mix: needs four exchange rounds (D4)
SEED205 = CompactSet((
    Interval(-1.0, -0.721244534446349),
    Interval(-0.6055333608644459, -0.35573206407362123),
    Interval(-0.2516300376828912, 0.5521556746812406),
    Interval(0.8363519060278394, 1.0),
))


def single_interval(delta):
    return CompactSet((Interval(-1.0 + 2.0 * delta, 1.0),))


class TestClosedForms:
    def test_inside_E_short_circuits(self):
        res = solve_extremal(CompactSet((Interval(-1.0, 1.0),)), 0.3, 5)
        assert res.value == 1.0
        assert res.case_tag == "none"
        assert (res.degree, res.degree_deficient) == (5, True)

    def test_inside_E_evaluates_to_one(self):
        res = solve_extremal(CompactSet((Interval(-1.0, 1.0),)), 0.3, 5)
        assert type(res.evaluate(7.0)) is float and res.evaluate(7.0) == 1.0
        out = res.evaluate(np.linspace(-3.0, 3.0, 12).reshape(3, 4))
        assert out.shape == (3, 4) and np.all(out == 1.0)

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
            assert res.evaluate(x0) == pytest.approx(res.value, rel=1e-9)


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
        exact = np.array([float(v) for v in
                          exact_interpolant(res.active_points, res.active_signs, xs)])
        assert np.allclose(res.evaluate(xs), exact, rtol=1e-9, atol=1e-9)

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
        # two points closer than the grid's merge distance leave one grid
        # point for two coefficients
        E = CompactSet((Interval(0.0, 0.0), Interval(1e-15, 1e-15)))
        with pytest.raises(SolverError, match="grid supplies 1 points"):
            solve_extremal(E, -1.0, 1, extension=False)

    def test_too_few_points_is_a_domain_error(self):
        # M_n is unbounded on a set of at most n points: bad input, refused
        # before any LP is built
        two = CompactSet((Interval(0.5, 0.5), Interval(0.7, 0.7)))
        assert solve_extremal(two, 0.0, 1).value == pytest.approx(6.0, rel=1e-14)
        assert solve_extremal(CompactSet((Interval(0.5, 0.5),)), 0.0, 0).value == 1.0
        for E, n in ((two, 2), (two, 5), (CompactSet((Interval(0.5, 0.5),)), 2)):
            with pytest.raises(DomainError, match="unbounded"):
                solve_extremal(E, 0.0, n)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            solve_extremal(single_interval(0.4), -1.0, -1, extension=False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPricingCache:
    """Each LP keeps one slot-major Cauchy matrix, refilled in place only
    in the rows whose basis node moved, and prices each basis once:
    the next reader of a basis reuses its last values of P, and a grid
    grown since prices only its new rows.  Pricing from scratch must give
    the same bytes, and every value read, reused or not, must lie within
    an ulp of a fresh pricing of its basis."""

    CASES = {
        "interval": (single_interval(0.4), -1.0),
        "two-gap(0.3)": (TWO_GAP, -0.4),
        "four-gap(0.4)": (FOUR_GAP, -0.7),
    }

    @staticmethod
    def _price_from_scratch(monkeypatch):
        monkeypatch.setattr(
            extremal._ExchangeLP, "_price",
            lambda self, C, t, s, logw, signw: bary_values(
                t, s, logw, signw, self.points[len(self.points) - C.shape[1]:]),
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

    @pytest.mark.parametrize("n", [12, 50, 100])
    @pytest.mark.parametrize("case", CASES)
    def test_reused_values_match_a_fresh_pricing(self, case, n, monkeypatch):
        # every read of P's values by exchange() and solve() against a full
        # pricing of the same basis on the same grid, in ulps of max(1, |P|)
        E, x0 = self.CASES[case]
        values = extremal._ExchangeLP._values
        ulps = []

        def spy(self):
            vals = values(self)
            fresh = self._price(self._cauchy(), *self._state())
            ulps.append(np.max(np.abs(vals - fresh) / np.spacing(np.maximum(1.0, np.abs(fresh)))))
            return vals

        monkeypatch.setattr(extremal._ExchangeLP, "_values", spy)
        with _stats.collect() as counts:
            solve_extremal(E, x0, n, extension=False)
        assert len(ulps) > counts["lp.pricings"], "no read reused a pricing"
        assert max(ulps) <= 1.0

    def test_hand_set_basis_is_priced_afresh(self):
        # the values are keyed on the basis itself: a basis assigned by hand
        # between two exchanges is priced, not read from the last pricing
        E, x0, n = TWO_GAP, -0.4, 12
        lp = extremal._ExchangeLP(E, n, x0)
        lp._initial_basis()
        start = list(lp.basis)
        while not lp.converged:
            lp.step()
        assert lp.steps < extremal._REFINE_ROUNDS
        assert lp.exchange() == 0       # the converged basis: its pricing is kept
        lp.basis = list(start)
        moved = lp.exchange()
        assert moved > 0
        TestExchangeStep._check(lp.points, x0, start, lp.basis, moved)

    @staticmethod
    def _scratch_cauchy(lp):
        """The slot-major matrix 1/(x_j - t_i) of the LP's basis, filled from
        scratch, each node's own entry 0."""
        rows = [j >> 1 for j in lp.basis]
        with np.errstate(divide="ignore"):
            C = 1.0 / (lp.points - lp.points[rows][:, None])
        C[np.arange(lp.r), rows] = 0.0
        return C

    def test_refill_writes_only_the_moved_rows(self, monkeypatch):
        # After every refill, by `_cauchy` or by a pivot's `_cauchy_column`,
        # the kept buffer holds the bytes of a fill from scratch, and
        # `_cauchy` rewrites exactly the rows of the slots whose node moved.
        # On two-gap(0.3) at n = 100 the start's steps move 84, 75, 67, 48,
        # 21, 1 and 0 nodes; E(-0.3, 0.4) at n = 100 pivots twice.
        LP = extremal._ExchangeLP
        cauchy, column, step = LP._cauchy, LP._cauchy_column, LP.step
        scratch = TestPricingCache._scratch_cauchy
        written, refills, pivots, moves = None, [], [], []

        def cauchy_spy(self):
            nonlocal written
            before, written = self._C_rows and list(self._C_rows), []
            C = cauchy(self)
            moved = [i for i, j in enumerate(self.basis) if before is None or before[i] != j >> 1]
            assert written == moved
            assert C.tobytes() == scratch(self).tobytes()
            refills.append(len(written))
            written = None
            return C

        def column_spy(self, i):
            column(self, i)
            if written is not None:
                written.append(i)
            elif self._C is not None:       # a pivot's refill
                assert self._C.tobytes() == scratch(self).tobytes()
                pivots.append(i)

        def step_spy(self):
            moved = self.moved
            step(self)
            moves.append(self.moved - moved)

        monkeypatch.setattr(LP, "_cauchy", cauchy_spy)
        monkeypatch.setattr(LP, "_cauchy_column", column_spy)
        monkeypatch.setattr(LP, "step", step_spy)
        with _stats.collect() as counts:
            solve_extremal(TWO_GAP, -0.4, 100, extension=False)
        assert moves == [84, 75, 67, 48, 21, 1, 0]
        # a first fill of all 101 rows, then one row per node moved; each
        # exchange round's re-solve fills a new buffer on the grown grid
        assert refills == [101, *moves[:-1], 101, 101]
        assert counts["lp.cauchy_rows"] == sum(refills)
        refills.clear()
        with _stats.collect() as counts:
            solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.3, 100, extension=False)
        assert len(pivots) == counts["lp.pivots"] == 2
        assert counts["lp.cauchy_rows"] == sum(refills) + len(pivots)


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
        (-0.3, -0.3, 30, "left_interval"), (-0.3, -0.3, 50, "right_interval"),
        (-0.1, -0.2, 50, "right_interval"),
    ])
    def test_components_against_exact(self, alpha, x0, n, tag):
        E = make_gap_set(GapParams(alpha, 0.4))
        res = solve_extremal(E, x0, n)
        assert res.case_tag == tag
        signed = lambda x: exact_interpolant(res.active_points, res.active_signs, x)
        exact = lambda x: abs(signed(x))
        comps = res.n_extension.intervals
        assert len(comps) == len(E.intervals) + (tag != "none")
        for c in comps:
            if any(E.contains(b, tol=1e-9) for b in (c.lo, c.hi)):
                for b in (c.lo, c.hi):
                    assert float(exact(b)) == pytest.approx(1.0, abs=1e-8)
                assert exact(0.5 * (c.lo + c.hi)) <= 1 + 1e-9
            else:
                # A component away from E is a few ulps wide around a root
                # where |P'| reaches 1e14 to 1e52, so no float end reaches
                # |P| = 1 within 1e-8 there, and the first form's rounding
                # can put it tens of ulps off the root (E(-0.3, 0.4) at
                # n = 50: 47-50 ulps); the exact P changes sign within 64.
                lo, hi = signed([c.lo - 64 * math.ulp(c.lo), c.hi + 64 * math.ulp(c.hi)])
                assert lo * hi < 0
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
        assert solve_extremal(E, x0, n, extension=False).degree_deficient

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
        assert not solve_extremal(E, x0, n, extension=False).degree_deficient


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

    def test_seeded_four_interval_set(self):
        # D4: three fixed exchange rounds left |P| = 1 + 6.2e-6 here; the
        # certified stop runs a fourth
        res = solve_extremal(SEED205, -0.6810723933289962, 50, extension=False)
        assert verify_feasibility(res, SEED205).ok

    def test_peak_beside_an_active_node_is_found(self):
        # D9: a scan sample 24 ulps left of the active node at the middle
        # interval's midpoint read P' from rounding noise, the Newton
        # polish shut out the peak at 0.02719, and the certificate said
        # |P| <= 1 + 6.2e-13 where |P| reached 1 + 2.9e-4
        E = random_multigap_set(0.4, 2, 45)
        lo, hi = E.gaps()[0]
        res = solve_extremal(E, 0.5 * (lo + hi), 24, extension=False)
        assert verify_feasibility(res, E, probes=200_000).ok
        peak = exact_interpolant(res.active_points, res.active_signs, 0.02719)
        assert abs(peak) <= 1 + 1e-9

    def test_constant_one(self):
        E = make_gap_set(GapParams(0.0, 0.5))
        res = solve_extremal(E, 0.7, 6)     # x0 in E: P = 1
        rep = verify_feasibility(res, E, probes=1000)
        assert rep.max_violation == pytest.approx(0.0, abs=1e-15)

    def test_corrupted_poly_detected(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        res = solve_extremal(E, -0.3, 6, extension=False)
        signs = list(res.active_signs)
        signs[2] = -signs[2]
        bad = dataclasses.replace(res, active_signs=tuple(signs))
        rep = verify_feasibility(bad, E, probes=10_000)
        assert not rep.ok
        assert rep.max_violation > 1e-9


def golden_peaks(nodes, los, his, signs):
    """Golden-section polish to an x-width of 1e-12, the reference."""
    return *golden_max_many(lambda u: np.abs(bary_values(*nodes, u)), los, his, 1e-12), 0


class TestNewtonPolish:
    # The peak polish `_peaks` against a golden-section reference, on the
    # benchmark's pinned oracle sets and on E(0, 0.4), whose third round
    # has a peak right next to an active node.
    CASES = {
        "E(-0.3,0.4)": (make_gap_set(GapParams(-0.3, 0.4)), -0.3),
        "E(-0.1,0.4)": (make_gap_set(GapParams(-0.1, 0.4)), -0.2),
        "remez(0.4)": (single_interval(0.4), -1.0),
        "two-gap(0.3)": (TWO_GAP, -0.4),
        "E(-0.5,0.3)": (make_gap_set(GapParams(-0.5, 0.3)), -0.5),
        "four-gap(0.4)": (FOUR_GAP, -0.7),
        "E(0,0.4)": (make_gap_set(GapParams(0.0, 0.4)), -0.1),
    }

    @pytest.fixture
    def shortfalls(self, monkeypatch):
        """golden worst - polished worst, per exchange scan."""
        scan, peaks = extremal._scan_abs_max, extremal._peaks
        out = []

        def spy(nodes, E, points, values):
            res = scan(nodes, E, points, values)
            monkeypatch.setattr(extremal, "_peaks", golden_peaks)
            ref = scan(nodes, E, points, values)
            monkeypatch.setattr(extremal, "_peaks", peaks)
            out.append(ref[1] - res[1])
            return res

        monkeypatch.setattr(extremal, "_scan_abs_max", spy)
        return out

    @pytest.mark.parametrize("case, n", [
        *((case, n) for case in list(CASES)[:-1] for n in (12, 50, 100, 200)),
        ("E(0,0.4)", 12),
    ])
    def test_newton_finds_what_golden_finds(self, case, n, shortfalls):
        E, x0 = self.CASES[case]
        res = solve_extremal(E, x0, n, extension=False)
        assert len(shortfalls) >= 2
        assert max(shortfalls) <= 1e-13
        assert verify_feasibility(res, E).ok
        assert res.rel_gap <= 1e-10

    def test_two_float_bracket_ends(self, monkeypatch):
        # Regula falsi cannot shrink a bracket of two adjacent floats, so
        # with the gain stop switched off only the ulp floor ends this lane.
        # The interpolant is the even quadratic about x = 0.25, and its
        # computed P' changes sign between 0.25 and the next float.
        t = np.array([-0.75, -0.25, 0.75, 1.25])
        s = np.array([1.0, -1.0, -1.0, 1.0])
        nodes = (t, s, *extremal._bary_logweights(t))
        a, b = 0.25, math.nextafter(0.25, 1.0)
        assert list(np.sign(extremal._bary_derivs(*nodes, [a, b])[1])) == [-1.0, 1.0]
        monkeypatch.setattr(extremal, "_PEAK_GAIN", -1.0)
        derivs, calls = extremal._bary_derivs, []

        def capped(*args):
            calls.append(args[-1])
            assert len(calls) <= 10, "the lane never ends"
            return derivs(*args)

        monkeypatch.setattr(extremal, "_bary_derivs", capped)
        xs, fs, evals = extremal._peaks(nodes, np.array([a]), np.array([b]), np.array([-1.0]))
        assert xs[0] in (a, b) and fs[0] == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert evals == len(calls) == 2

    def test_derivatives_match_chebyshev_fit(self):
        n = 12
        t = np.sort(np.concatenate([np.linspace(-1.0, -0.5, 6), np.linspace(0.3, 1.0, 7)]))
        s = np.where(np.arange(n + 1) % 3 == 0, 1.0, -1.0)
        coeffs = np.polynomial.chebyshev.chebfit(t, s, n)
        xs = np.concatenate([np.linspace(-1.0, -0.5, 41), np.linspace(0.3, 1.0, 41), t[[2, 9]]])
        P, dP = extremal._bary_derivs(t, s, *extremal._bary_logweights(t), xs)
        C = np.polynomial.chebyshev
        assert np.allclose(P, C.chebval(xs, coeffs), rtol=0, atol=1e-10)
        assert np.allclose(dP, C.chebval(xs, C.chebder(coeffs)), rtol=1e-8, atol=1e-8)


class TestExtensionBoundaries:
    # the six pinned oracle sets at n = 12, two of them at n = 50, and the
    # case tag each extension has
    CASES = [
        *((name, 12, tag) for name, tag in zip(list(TestNewtonPolish.CASES)[:6], (
            "left_interval", "left_interval", "none", "left_interval", "left_interval",
            "extend_right"))),
        ("E(-0.1,0.4)", 50, "right_interval"), ("four-gap(0.4)", 50, "left_interval"),
    ]

    @pytest.mark.parametrize("case, n, tag", CASES)
    def test_ends_are_crossings_of_the_level(self, case, n, tag):
        # Within 64 ulps of every component end the exact |P| crosses the
        # level 1 + slack that the extension bounds its components by: it
        # is above the level 64 ulps outside, and at or below it 64 ulps
        # inside, or at the midpoint of a component narrower than that.
        E, x0 = TestNewtonPolish.CASES[case]
        res = solve_extremal(E, x0, n)
        assert res.case_tag == tag
        level = 1.0 + max(0.0, res.max_abs_p - 1.0) + 1e-12
        probes = []
        for c in res.n_extension.intervals:
            mid, lo, hi = 0.5 * (c.lo + c.hi), 64 * math.ulp(c.lo), 64 * math.ulp(c.hi)
            probes += [c.lo - lo, min(c.lo + lo, mid), max(c.hi - hi, mid), c.hi + hi]
        exact = exact_interpolant(res.active_points, res.active_signs, probes)
        above = [abs(v) > level for v in exact]
        assert above == [True, False, False, True] * len(res.n_extension.intervals)

    @pytest.mark.parametrize("case, n, tag", CASES)
    def test_public_entry_matches_the_solve(self, case, n, tag):
        E, x0 = TestNewtonPolish.CASES[case]
        ext, got = extremal.n_extension(solve_extremal(E, x0, n, extension=False), E)
        res = solve_extremal(E, x0, n)
        assert (ext, got) == (res.n_extension, res.case_tag) and got == tag

    def test_peak_between_samples_is_polished(self):
        # |P| rises to 1.0047 at x = -0.2006, just left of E's interval
        # [-0.2, 0.2], between two samples below the level: the gap it
        # opens splits the extension there
        E, x0 = TestNewtonPolish.CASES["four-gap(0.4)"]
        with _stats.collect() as counts:
            res = solve_extremal(E, x0, 200)
        assert counts["ext.polished"] == 1
        left, right = [c for c in res.n_extension.intervals if -0.21 < c.hi and c.lo < -0.19]
        assert right.lo == pytest.approx(-0.2, abs=1e-12) and -0.201 < left.hi < right.lo
        assert abs(res.evaluate(0.5 * (left.hi + right.lo))) > 1.004

    def test_second_form_is_accurate_at_the_polished_peak(self, monkeypatch):
        # At the peak of the test above, |P| is about 1, so the second form
        # the polish evaluates is as accurate there as on E.
        E, x0 = TestNewtonPolish.CASES["four-gap(0.4)"]
        res = solve_extremal(E, x0, 200, extension=False)
        peaks, calls = extremal._peaks, []

        def spy(*args):
            calls.append((args, peaks(*args)))
            return calls[-1][1]

        monkeypatch.setattr(extremal, "_peaks", spy)
        extremal.n_extension(res, E)
        [((_, los, his, _), (xp, _, _))] = calls
        P, dP = extremal._bary_derivs(*res._nodes, xp)
        exact = [fixed_point_interpolant(res.active_points, res.active_signs, x)
                 for x in (xp[0], los[0], his[0])]
        assert -0.201 < xp[0] < -0.2
        assert abs(P[0] - exact[0][0]) <= 1e-13
        assert abs(dP[0] - exact[0][1]) <= 1e-12 * max(abs(e[1]) for e in exact[1:])


class TestCertificate:
    def test_bounds_bracket_the_value(self):
        res = solve_extremal(SEED205, -0.6810723933289962, 50, extension=False)
        assert res.value_hi == res.value
        assert res.value_lo <= res.value_hi
        assert 0.0 <= res.rel_gap <= 1e-10
        assert res.value_lo == pytest.approx(res.value, rel=1e-10)
        payload = json.loads(res.to_json())
        assert [payload[k] for k in ("value_lo", "value_hi", "rel_gap")] == [
            res.value_lo, res.value_hi, res.rel_gap]

    def test_inside_E_has_zero_gap(self):
        res = solve_extremal(TWO_GAP, 0.0, 5)
        assert (res.value_lo, res.value_hi, res.rel_gap) == (1.0, 1.0, 0.0)

    def test_round_cap_names_the_state(self, monkeypatch):
        # capped at one round, the solve stops on the D4 violation
        monkeypatch.setattr(extremal, "_REFINE_ROUNDS", 1)
        with pytest.raises(SolverError, match=r"exchange round 1 left max \|P\| - 1 = "
                                              r"5\.83e-06 on E at x = 0\.4232"):
            solve_extremal(SEED205, -0.6810723933289962, 50, extension=False)


# the six pinned sets of TestNewtonPolish (the benchmark's oracle sets)
PINNED = dict(list(TestNewtonPolish.CASES.items())[:6])


class TestNodeSlopes:
    """P'(t_i) = sum_{k != i} (w_k / w_i) (s_k - s_i) / (t_i - t_k) has one
    kernel, `_node_slopes`: the exchange scan reads its bracket ends at
    basis nodes from it, computed once for all nodes, instead of passing
    them to `_bary_derivs`, whose node-hit branch and `dvalue_dendpoint`
    read it too."""

    @staticmethod
    def _scans(monkeypatch, E, x0, n):
        """(nodes, points, values, result) of every exchange scan of a solve,
        and the points of each of its calls of `_bary_derivs`: the first
        at the bracket ends, then one per lockstep Illinois step."""
        scan, derivs, scans = extremal._scan_abs_max, extremal._bary_derivs, []
        calls = None

        def scan_spy(nodes, E, points, values):
            nonlocal calls
            calls = []
            res = scan(nodes, E, points, values)
            scans.append((nodes, points, values, res, calls))
            calls = None
            return res

        def derivs_spy(*args):
            if calls is not None:
                calls.append(np.asarray(args[-1], dtype=float))
            return derivs(*args)

        monkeypatch.setattr(extremal, "_scan_abs_max", scan_spy)
        monkeypatch.setattr(extremal, "_bary_derivs", derivs_spy)
        solve_extremal(E, x0, n, extension=False)
        monkeypatch.setattr(extremal, "_bary_derivs", derivs)
        monkeypatch.setattr(extremal, "_scan_abs_max", scan)
        return scans

    @pytest.mark.parametrize("n", [12, 50, 100])
    @pytest.mark.parametrize("case", PINNED)
    def test_scan_passes_no_node_to_bary_derivs(self, case, n, monkeypatch):
        # A bracket end at a node is read from the node slopes.  An
        # Illinois trial that rounds onto such an end (once on these 18
        # solves, remez(0.4) at n = 12) takes `_bary_derivs`'s node hit.
        E, x0 = PINNED[case]
        scans = self._scans(monkeypatch, E, x0, n)
        assert len(scans) >= 2
        for nodes, points, values, _, calls in scans:
            t = nodes[0]
            order = np.argsort(points)
            av = np.abs(values[order])
            # the nodes do end brackets: most are discrete peaks of |P|
            at = np.searchsorted(points[order], t)
            inner = (at > 0) & (at < av.size - 1)
            peaks = (av[at[inner]] >= av[at[inner] - 1]) & (av[at[inner]] >= av[at[inner] + 1])
            assert np.count_nonzero(peaks) >= t.size // 2
            assert calls[0].size and not np.isin(calls[0], t).any()

    @pytest.mark.parametrize("n", [12, 50, 100])
    @pytest.mark.parametrize("case", PINNED)
    def test_scan_matches_evaluating_every_bracket_end(self, case, n, monkeypatch):
        # against the scan that evaluates all four ends of each peak's two
        # brackets by `_bary_derivs`: the worst |P| within 2 ulps of
        # max(1, |P|), its x within 2 ulps and the polished peaks within 4
        E, x0 = PINNED[case]
        scans = self._scans(monkeypatch, E, x0, n)
        monkeypatch.setattr(extremal, "_end_derivs",
                            lambda nodes, xs: extremal._bary_derivs(*nodes, xs))
        for nodes, points, values, (xp, worst, worst_x), _ in scans:
            ref_xp, ref_worst, ref_x = extremal._scan_abs_max(nodes, E, points, values)
            assert abs(worst - ref_worst) <= 2.0 * np.spacing(max(1.0, ref_worst))
            assert abs(worst_x - ref_x) <= 2.0 * np.spacing(abs(ref_x))
            assert np.all(np.abs(xp - ref_xp) <= 4.0 * np.spacing(np.abs(ref_xp)))

    @pytest.mark.parametrize("n", [12, 50, 100])
    @pytest.mark.parametrize("case", PINNED)
    def test_dvalue_dendpoint_is_the_node_hit_formula(self, case, n):
        # byte for byte the arithmetic of `_bary_derivs`'s node hit that
        # `dvalue_dendpoint` went through before it read `_node_slopes`
        E, x0 = PINNED[case]
        res = solve_extremal(E, x0, n, extension=False)
        t, s, logw, signw = res._nodes
        slopes = extremal._node_slopes(t, s, logw, signw)
        for i, e in enumerate(res.active_points):
            with np.errstate(divide="ignore", invalid="ignore"):
                node = (signw * signw[[i], None] * np.exp(logw - logw[[i], None])
                        * (s - s[[i], None]) / (t[[i], None] - t))
            slope = np.where(np.isnan(node), 0.0, node).sum(axis=1)[0]
            assert slopes[i] == slope
            assert res.dvalue_dendpoint(e) == -res.dual_weights[i] * s[i] * slope


def _lambda_signs(points, basis, x0):
    """s_i l_i(x0) up to a positive factor, per slot of an encoded basis."""
    t = points[[j >> 1 for j in basis]]
    s = np.array([-1.0 if j & 1 else 1.0 for j in basis])
    return s * extremal._lagrange_scaled(t, *extremal._bary_logweights(t), x0)[0]


class TestExchangeStep:
    """Each start step and each exchange round moves every basis node at
    once to an extremum of s_i P on its side of x0, by one global
    alternating exchange (`_ExchangeLP.exchange`)."""

    @staticmethod
    def _steps(monkeypatch):
        steps = []
        exchange = extremal._ExchangeLP.exchange

        def spy(self):
            before = list(self.basis)
            moved = exchange(self)
            steps.append((self.points.copy(), self.x0, before, list(self.basis), moved))
            return moved

        monkeypatch.setattr(extremal._ExchangeLP, "exchange", spy)
        return steps

    @staticmethod
    def _check(points, x0, before, after, moved):
        """The invariants of one step, and its moves against the reference."""
        t0 = points[[j >> 1 for j in before]]
        t1 = points[[j >> 1 for j in after]]
        assert sum(a != b for a, b in zip(before, after)) == moved
        assert [j & 1 for j in after] == [j & 1 for j in before]      # signs kept
        assert np.array_equal(np.argsort(t1), np.argsort(t0))           # order kept
        assert np.array_equal(t1 < x0, t0 < x0)         # side of x0, so count per side, kept
        assert len({j >> 1 for j in after}) == len(after)               # no shared point
        assert _lambda_signs(points, after, x0).min() >= 0.0
        s = np.array([-1.0 if j & 1 else 1.0 for j in before])
        pv = bary_values(t0, s, *extremal._bary_logweights(t0), points)
        expect = alternating_exchange(points, [j >> 1 for j in before], s, pv, x0)
        if _lambda_signs(points, before, x0).min() < 0.0:
            expect = {}
        assert after == [2 * expect[i] + (j & 1) if i in expect else j
                         for i, j in enumerate(before)]
        # every moved node lands where s_i P >= 1, so the bound cannot rise
        moves = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert np.all(s[moves] * pv[[after[i] >> 1 for i in moves]] >= 1.0)

    @pytest.mark.parametrize("n", [12, 50, 100])
    @pytest.mark.parametrize("case", PINNED)
    def test_step_keeps_order_side_and_feasibility(self, case, n, monkeypatch):
        E, x0 = PINNED[case]
        steps = self._steps(monkeypatch)
        solve_extremal(E, x0, n, extension=False)
        assert steps
        for step in steps:
            self._check(*step)
        assert sum(step[-1] for step in steps) > 0

    def test_step_moves_a_node_into_the_middle_band(self, monkeypatch):
        # the equilibrium quantiles put [38, 25, 38] nodes on the bands of
        # two-gap(0.3) at n = 100, where the extremal polynomial holds
        # [38, 26, 37]: x0 = -0.4 lies left of the middle band, so a step
        # kept inside each node's window could not carry a node across the
        # gap from the right band, and the grid simplex pivoted 94 times
        E, x0, n = TWO_GAP, -0.4, 100
        steps = self._steps(monkeypatch)
        lp = extremal._ExchangeLP(E, n, x0)
        lp._initial_basis()

        def per_band():
            t = lp.points[[j >> 1 for j in lp.basis]]
            return [int(((iv.lo <= t) & (t <= iv.hi)).sum()) for iv in E.intervals]

        assert per_band() == [38, 25, 38]
        lp.step()
        assert per_band() == [38, 26, 37]
        self._check(*steps[0])

    @staticmethod
    def _exchange_with(lp, values):
        """lp.exchange() on the given values of P, checked against the
        reference; returns the moved basis."""
        before = list(lp.basis)
        state = lp._state()
        lp._price = lambda *_: values
        expect = alternating_exchange(lp.points, [j >> 1 for j in before], state[1], values,
                                      lp.x0)
        assert lp.exchange() == len(expect) > 0
        assert lp.basis == [2 * expect[i] + (j & 1) if i in expect else j
                            for i, j in enumerate(before)]
        after, lp.basis = lp.basis, before
        del lp._price
        return after

    def test_ties_take_the_first_point_outward(self):
        # P rounded to quarters ties within runs: the point nearest x0 of a
        # run's largest |P| wins
        lp = extremal._ExchangeLP(TWO_GAP, 12, -0.4)
        lp._initial_basis()
        pv = lp._price(lp._cauchy(), *lp._state())
        for values in (pv, np.round(4.0 * pv) / 4.0):
            self._exchange_with(lp, values)

    def test_cut_keeps_the_alternation(self):
        # a synthetic P on a hand-placed basis of 5 nodes left of x0 and 8
        # right of it: every point takes 0.5 times the sign of its nearest
        # node on its side, each node s_i and its outward neighbour 2 s_i.
        # Then four extra extrema: -3 nearest x0 on the left (the nearest
        # must be +1, so it leaves), -5 at the far left end (one too many
        # there: the outermost leaves, though it is the largest), and -1.5
        # then +2 between the third and fourth right nodes (two too many:
        # the smallest leaves with its smaller neighbour, the third node's
        # own extremum, which ties with the +2 and is the nearer, and that
        # node takes the +2)
        lp = extremal._ExchangeLP(TWO_GAP, 12, -0.4)
        order = np.argsort(lp.points)
        xs = lp.points[order]
        k0 = int(np.searchsorted(xs, lp.x0))          # xs[:k0] lie left of x0
        pos = np.concatenate([k0 - 8 - 6 * np.arange(5), k0 + 6 + 8 * np.arange(8)])
        t = xs[pos]
        lhat, _ = extremal._lagrange_scaled(t, *extremal._bary_logweights(t), lp.x0)
        s = np.where(lhat < 0.0, -1.0, 1.0)
        assert s.tolist() == [1, -1, 1, -1, 1, 1, -1, 1, -1, 1, -1, 1, -1]
        lp.basis = (2 * order[pos] + (s < 0.0)).tolist()
        v = np.empty(xs.size)
        for side, slots in ((np.arange(k0), np.arange(5)),
                            (np.arange(k0, xs.size), np.arange(5, 13))):
            v[side] = 0.5 * s[slots[np.argmin(np.abs(side[:, None] - pos[slots]), axis=1)]]
        v[pos], v[pos + np.where(pos < k0, -1, 1)] = s, 2.0 * s
        v[[k0 - 1, 0, pos[7] + 3, pos[7] + 5]] = -3.0, -5.0, -1.5, 2.0
        values = np.empty(xs.size)
        values[order] = v
        after = self._exchange_with(lp, values)
        to = np.argsort(order)[[j >> 1 for j in after]]     # sorted positions
        assert to.tolist() == [*(pos[:7] + np.where(pos[:7] < k0, -1, 1)), pos[7] + 5,
                               *(pos[8:] + 1)]

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("case", PINNED)
    def test_round_resolves_take_few_pivots(self, case, n):
        # one pivot per active point (41-99) before the step
        E, x0 = PINNED[case]
        with _stats.collect() as counts:
            res = solve_extremal(E, x0, n, extension=False)
        assert counts["lp.exchange_rounds"] >= 2
        assert counts["lp.round_pivots_max"] <= 10
        assert counts["lp.nodes_moved"] >= n
        assert res.rel_gap <= 1e-10

    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("case", ["two-gap(0.3)", "four-gap(0.4)"])
    def test_start_needs_no_grid_pivots(self, case, n):
        # the start moves nodes between bands on one side of x0, which a
        # step inside each node's window could not: two-gap(0.3) at n = 100
        # took 94 grid pivots after 8 start steps
        E, x0 = PINNED[case]
        with _stats.collect() as counts:
            solve_extremal(E, x0, n, extension=False)
        assert counts["lp.grid_pivots"] == 0
        assert counts["lp.start_steps"] < extremal._REFINE_ROUNDS

    @pytest.mark.parametrize("n", [8, 10])
    def test_start_moves_only_on_a_strict_gain(self, n):
        # on the oracle benchmark's [-0.2, 1] the start reaches the Remez
        # polynomial, whose runs peak at |P| = 1 on more than their node:
        # moving a node there gains nothing, and a step that did so moved a
        # node on each of its 8 steps
        with _stats.collect() as counts:
            solve_extremal(CompactSet((Interval(-0.2, 1.0),)), -1.0, n, extension=False)
        assert counts["lp.start_steps"] <= 2

    def test_start_ends_on_a_step_that_does_not_lower_its_bound(self):
        # at n = 4 two grid points have exact |P| = 1 -+ 7.1e-17 under each
        # other's basis, and the rounded pricing moved one node back and
        # forth, the bound alternating by 1 ulp, on all 8 steps of the cap
        with _stats.collect() as counts:
            res = solve_extremal(CompactSet((Interval(-0.2, 1.0),)), -1.0, 4, extension=False)
        assert counts["lp.start_steps"] <= 2
        assert res.value == 194.58024691358023     # as with the 8-step cycle

    def test_infeasible_basis_is_left_unmoved(self):
        E, x0, n = TWO_GAP, -0.4, 12
        lp = extremal._ExchangeLP(E, n, x0)
        nodes, values = lp.solve()
        peaks, worst, _ = extremal._scan_abs_max(nodes, E, lp.points, values)
        assert worst > 1.0
        lp.append_points(peaks[extremal._nearest_distance(lp.points, peaks) > 1e-13])
        k = int(np.argmax(_lambda_signs(lp.points, lp.basis, x0)))
        lp.basis[k] ^= 1                # the other sign: lam_k < 0
        assert _lambda_signs(lp.points, lp.basis, x0)[k] < 0.0
        flipped = list(lp.basis)
        assert lp.exchange() == 0
        assert lp.basis == flipped
        lp.basis[k] ^= 1                # the feasible basis does move
        assert lp.exchange() > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gaps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40),
           delta=st.floats(0.2, 0.45), where=st.floats(0.1, 0.9))
    def test_value_matches_the_simplex_alone(self, gaps, seed, n, delta, where):
        E = random_multigap_set(delta, gaps, seed)
        lo, hi = E.gaps()[seed % gaps]
        x0 = lo + (hi - lo) * where

        def value():
            try:
                return solve_extremal(E, x0, n, extension=False).value
            except SolverError:
                return None

        stepped = value()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extremal._ExchangeLP, "exchange", lambda self: 0)
            plain = value()
        assert (stepped is None) == (plain is None)
        if plain is not None:
            assert stepped == pytest.approx(plain, rel=1e-12, abs=0.0)


def test_one_blas_thread_certifies_four_gap_at_200():
    # the start basis used to take its signs from a numerically singular
    # Vandermonde solve, so with one BLAS thread the grid simplex exceeded its
    # 14,060 pivots while the default threading certified (D5)
    script = (
        "from chebgap.extremal import solve_extremal\n"
        "from chebgap.intervals import CompactSet, Interval\n"
        "E = CompactSet(tuple(Interval(a, b) for a, b in ((-1.0, -0.8), (-0.6, -0.4),\n"
        "                     (-0.2, 0.2), (0.4, 0.6), (0.8, 1.0))))\n"
        "print(solve_extremal(E, -0.7, 200, extension=False).rel_gap)\n"
    )
    src = str(Path(extremal.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
    except subprocess.TimeoutExpired:
        proc = None
    assert proc is not None, "the solve ran past the timeout"
    assert proc.returncode == 0, proc.stderr.strip().splitlines()[-1]
    assert float(proc.stdout) <= 1e-10


# Seeded three-gap sets whose cold n = 50 solves reported 'simplex direction
# unbounded' from an infeasible start basis (D6).
D6_SETS = {
    "seed61": (CompactSet((Interval(-1.0, -0.6348153906600194),
                           Interval(-0.4073350279245279, -0.13319190405515308),
                           Interval(0.5332925531738095, 1.0))), 0.3789364579648779),
    "seed113": (CompactSet((Interval(-1.0, -0.6621749999865814),
                            Interval(-0.3902037970902612, 0.20994232788286582),
                            Interval(0.7268652251389413, 1.0))), 0.3714391221584197),
}


@pytest.mark.parametrize("case", D6_SETS)
def test_cold_solve_certifies_seeded_three_gap_set(case):
    E, x0 = D6_SETS[case]
    res = solve_extremal(E, x0, 50, extension=False)
    assert res.rel_gap <= 1e-10
    assert verify_feasibility(res, E).ok


def test_infeasible_basis_names_its_slot():
    # the ratio test used to clip a negative lam_i to 0 and walk on (D6)
    E, x0, n = TWO_GAP, -0.4, 12
    lp = extremal._ExchangeLP(E, n, x0)
    lp._initial_basis()
    k = int(np.argmax(_lambda_signs(lp.points, lp.basis, x0)))
    lp.basis[k] ^= 1                # the other sign: lam_k < 0
    with pytest.raises(SolverError, match=rf"infeasible basis: slot {k} at x = \S+ has "
                                          rf"lam = -\S+ \* max lam"):
        lp.solve()


def chebyshev_preimage(k, u, v):
    """T_k^{-1}([u, v]) for -1 < u < v < 1: k bands, each of equilibrium
    mass 1/k.  Its ends are cos(theta) where k theta = +-arccos(u or v)
    mod 2 pi, theta in (0, pi)."""
    t = np.arccos([u, v])
    j = 2.0 * np.pi * np.arange(k // 2 + 1)[:, None]
    theta = np.concatenate([j + t, j - t]).ravel() / k
    ends = np.sort(np.cos(theta[(theta > 0.0) & (theta < np.pi)]))
    return CompactSet(tuple(map(tuple, ends.reshape(-1, 2))))


def per_set_equilibria(equilibrium):
    """A stand-in for `extremal._Equilibria` in the LP start, each set's
    cdf taken from equilibrium(E) = (q, cdf)."""

    class PerSet:
        def __init__(self, sets):
            self.cdfs = [equilibrium(E)[1] for E in sets]

        def cdf(self, xs):
            return [cdf(x) for cdf, x in zip(self.cdfs, xs, strict=True)]

    return PerSet


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_empty_ratio_test_states_the_solver(monkeypatch):
    # on the 100-band preimage, started from the monomial solve for q that
    # broke down there (D8), the entering direction has no positive entry,
    # so the ratio test is empty; the error states the solver as the
    # NaN-ratio error does, where "max() arg is an empty sequence" once was
    monkeypatch.setattr(extremal, "_Equilibria", per_set_equilibria(monomial_equilibrium))
    E = chebyshev_preimage(100, -0.8, 0.7)
    x0 = 0.5 * sum(E.gaps()[50])
    with pytest.raises(SolverError, match=r"simplex direction unbounded at n = 100 on \d+ grid "
                                          r"points: entering x = -?\d\.\d+"):
        solve_extremal(E, x0, 100, extension=False)


def test_48_band_preimage_matches_the_closed_form():
    # D8: M_48(x0) = |P(x0)|, P = (2 T_48 - u - v)/(v - u), in every gap;
    # the monomial solve for q broke the equilibrium start here
    k, u, v = 48, -0.2, 0.6
    E = chebyshev_preimage(k, u, v)
    assert len(E.intervals) == k
    x0 = 0.5 * sum(E.gaps()[5])
    closed = abs((2.0 * cheb_T(k, x0) - u - v) / (v - u))
    assert solve_extremal(E, x0, k, extension=False).value == pytest.approx(closed, rel=1e-9)


def test_extension_keeps_the_root_beyond_R():
    # D10, cause 1: P changes sign 6 times on [-10, 10], the last time at
    # x = 4.18373, beyond the radius R = 4 where |P(+-4)| > 2 level first
    # holds; P(4) < 0 but P > 0 at +inf, so R grows on
    res = solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.3, 6)
    assert any(c.lo - 1e-3 <= 4.18373 <= c.hi + 1e-3 for c in res.n_extension.intervals)
    assert res.case_tag == "right_interval"


def test_extension_keeps_a_component_one_ulp_wide():
    # D10, cause 2: near x = 2.635, |P'| is about 2e16, so no float has
    # |P| <= level and a midpoint test dropped the component; the crossings
    # pair up into a bracket a few ulps wide.  The first form's rounding
    # (about 10 in P there) can put the exact root an ulp or so beyond it.
    res = solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.3, 24)
    assert res.case_tag == "right_interval"
    far = res.n_extension.intervals[-1]
    assert (far.lo, far.hi) == (2.6353259462609953, 2.6353259462609966)
    ulp = math.ulp(far.lo)
    assert far.hi == far.lo + 3 * ulp
    lo, hi = exact_interpolant(res.active_points, res.active_signs,
                               [far.lo - 4 * ulp, far.hi + 4 * ulp])
    assert lo * hi < 0


def test_short_set_at_high_degree_stays_finite():
    # D11: on [0.9, 1] at n = 200 the Lagrange weights reach e^731, and
    # unscaled they overflowed: the value read inf and the extension's
    # brackets nan.  x0 = 0.85 maps to -2 on [-1, 1], so M_n = T_200(2).
    E = CompactSet((Interval(0.9, 1.0),))
    res = solve_extremal(E, 0.85, 200)
    assert res.value == pytest.approx(cheb_T(200, 2.0), rel=1e-12)
    assert res.case_tag == "none"
    assert len(res.n_extension.intervals) == 1
    ext = res.n_extension.intervals[0]
    assert ext.lo == pytest.approx(0.9, abs=1e-9) and ext.hi == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [6, 12, 24])
@pytest.mark.parametrize("seed", range(40))
def test_extension_matches_the_roots_of_P(seed, n):
    # the extension against one rebuilt root by root, on the D10 family
    gaps = 1 + seed % 4
    E = random_multigap_set(0.4 if seed % 2 else 0.25, gaps, seed)
    lo, hi = E.gaps()[seed % gaps]
    res = solve_extremal(E, 0.5 * (lo + hi), n)
    level = 1.0 + max(0.0, res.max_abs_p - 1.0) + 1e-12
    comps, tag = extension_by_roots(res, level)
    assert res.case_tag == tag and tag in CASE_TAGS
    got = [(c.lo, c.hi) for c in res.n_extension.intervals]
    assert len(got) == len(comps)
    assert np.abs(np.subtract(got, comps)).max() <= 1e-9


def _log_bound(lp):
    """log sum_i |l_i(x0)| for the LP's current basis."""
    t = lp.points[[j >> 1 for j in lp.basis]]
    lhat, L = extremal._lagrange_scaled(t, *extremal._bary_logweights(t), lp.x0)
    return math.log(np.abs(lhat).sum()) + L


class TestStartBound:
    """Any n+1 points t_i of E bound M_n: P(x0) = sum_i P(t_i) l_i(x0) <=
    sum_i |l_i(x0)| for |P| <= 1 on E.  The LP start keeps that bound of
    its basis in `log_bound` as it goes: the quantile basis
    (`_ExchangeLP._initial_basis`), then one Remez step at a time
    (`_ExchangeLP.step`), so a caller can drop it at any point."""

    @staticmethod
    def _start(E, x0, n):
        """The LP after its start, and the bound of the quantile basis and
        of each basis a Remez step reached."""
        lp = extremal._ExchangeLP(E, n, x0)
        lp._initial_basis()
        bounds = [lp.log_bound]
        while not lp.converged:
            lp.step()
            bounds.append(lp.log_bound)
            assert lp.log_bound == pytest.approx(_log_bound(lp), rel=1e-14, abs=1e-14)
        return lp, bounds

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gaps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), n=st.integers(6, 40),
           delta=st.floats(0.2, 0.45), where=st.floats(0.1, 0.9))
    def test_bound_after_every_step_dominates_the_value(self, gaps, seed, n, delta, where):
        E = random_multigap_set(delta, gaps, seed)
        lo, hi = E.gaps()[seed % gaps]
        x0 = lo + (hi - lo) * where
        lp, bounds = self._start(E, x0, n)
        assert 1 <= lp.steps == len(bounds) - 1 <= extremal._REFINE_ROUNDS
        # a Remez step keeps every sign s_i of l_i(x0) and moves nodes only
        # to where s_i P >= 1, so on the new nodes sum_i |l_i(x0)| <=
        # sum_i s_i P(t_i) |l_i(x0)| = P(x0), the old bound: it only tightens
        assert np.all(np.diff(bounds) <= 1e-12 * np.abs(bounds[1:]))
        res = solve_extremal(E, x0, n, extension=False)
        # a grid end lo + length*1.0 can miss hi by an ulp, where |P| may
        # exceed 1 by about ulp * |P'|: the 1e-6 margin of the callers'
        # cutoffs (andrievskii._PRUNE_MARGIN) covers that
        assert min(bounds) + math.log1p(1e-6) >= math.log(res.value_lo)

    @pytest.mark.parametrize("n", [1, 6, 12, 24, 50, 100])
    def test_bound_dominates_the_remez_constant(self, n):
        _, bounds = self._start(single_interval(0.4), -1.0, n)
        assert min(bounds) >= math.log(remez_constant(n, 0.4) * (1.0 - 1e-12))

    @pytest.mark.parametrize("case", PINNED)
    def test_cutoff_ends_the_start_with_no_solve(self, case):
        # a start dropped after its first step is counted as bounded, with
        # no solve; one finished from any point of its start is the solve
        E, x0 = PINNED[case]
        n = 12
        for ext in (False, True):
            full = solve_extremal(E, x0, n, extension=ext).to_json()
            for steps in (0, 1, 2):
                lp = extremal._ExchangeLP(E, n, x0)
                lp._initial_basis()
                for _ in range(steps):
                    lp.step()
                assert extremal._finish(lp, ext).to_json() == full
        lp = extremal._ExchangeLP(E, n, x0)
        lp._initial_basis()
        lp.step()
        with _stats.collect() as counts:
            lp.count()
        assert counts["lp.bounded"] == 1 and "lp.solves" not in counts
        assert counts["lp.start_steps"] == 1


class TestEquilibriumStart:
    """A cold solve starts from the grid points nearest the quantiles of the
    equilibrium measure of E (`extremal._equilibrium`), with exact signs."""

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-0.2, 1.0), (0.3, 0.7)])
    def test_one_interval_quantiles_are_chebyshev_lobatto(self, lo, hi):
        n = 24
        x = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
        _, cdf = extremal._equilibrium(CompactSet((Interval(lo, hi),)))
        assert np.abs(cdf(x) - np.arange(n + 1) / n).max() <= 1e-14

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.6])
    def test_symmetric_two_bands_closed_form(self, a):
        x = np.linspace(a, 1.0, 101)
        exact = 0.5 + 0.5 * (1.0 - np.arccos((2.0 * x**2 - 1.0 - a * a) / (1.0 - a * a)) / np.pi)
        q, cdf = extremal._equilibrium(CompactSet((Interval(-1.0, -a), Interval(a, 1.0))))
        assert np.abs(cdf(x) - exact).max() <= 1e-14
        assert np.abs(cdf(-x[::-1]) - (1.0 - exact[::-1])).max() <= 1e-14
        assert abs(q.roots()[0]) <= 1e-15

    @pytest.mark.parametrize("alpha, delta", [
        (-0.3, 0.4), (-0.1, 0.4), (-0.5 + 1e-9, 0.4), (0.0, 0.5), (-0.7, 0.25)])
    def test_gap_zero_is_the_green_critical_point(self, alpha, delta):
        q, _ = extremal._equilibrium(make_gap_set(GapParams(alpha, delta)))
        assert q.degree() == 1
        assert q.roots()[0] == pytest.approx(critical_point_c(alpha, delta), abs=1e-15)

    @pytest.mark.parametrize("case", list(PINNED) + ["seed205"])
    def test_total_mass_is_one(self, case):
        E = SEED205 if case == "seed205" else PINNED[case][0]
        q, cdf = extremal._equilibrium(E)
        assert cdf(E.hull.lo) == 0.0
        assert cdf(E.hull.hi) == pytest.approx(1.0, abs=1e-14)
        zeros = np.sort(q.roots().real)
        assert all(lo < z < hi for z, (lo, hi) in zip(zeros, E.gaps(), strict=True))

    def test_touching_and_point_intervals_carry_no_extra_mass(self):
        x = np.linspace(-1.0, 1.0, 41)
        _, whole = extremal._equilibrium(CompactSet((Interval(-1.0, 1.0),)))
        _, split = extremal._equilibrium(CompactSet((
            Interval(-1.0, 0.0), Interval(0.0, 0.5), Interval(0.5, 1.0))))
        assert np.abs(split(x) - whole(x)).max() <= 1e-14
        _, two = extremal._equilibrium(TWO_GAP)
        _, dotted = extremal._equilibrium(CompactSet(TWO_GAP.intervals + (
            Interval(-0.4, -0.4), Interval(0.25, 0.25))))
        assert np.abs(dotted(x) - two(x)).max() <= 1e-14

    BANDS = {1: single_interval(0.4), 2: make_gap_set(GapParams(-0.3, 0.4)), 3: TWO_GAP,
             4: SEED205, 5: FOUR_GAP}

    @pytest.mark.parametrize("n", [6, 12, 50, 100])
    @pytest.mark.parametrize("bands", BANDS)
    def test_cdf_matches_the_sine_matrix_sum(self, bands, n):
        # the LP grid (m = 140 to 2022 points), the band ends and points off E
        E = self.BANDS[bands]
        q, cdf = extremal._equilibrium(E)
        xs = np.concatenate([discretize(E, extremal._grid_density(n, bands)),
                             [v for iv in E.intervals for v in (iv.lo, iv.hi)],
                             np.linspace(-1.2, 1.2, 25)])
        assert 140 <= xs.size - 2 * bands - 25 <= 2022
        assert np.abs(cdf(xs) - equilibrium_cdf(E, q, xs)).max() <= 1e-15
        for x in xs[::97]:
            value = cdf(x)
            assert np.ndim(value) == 0
            assert abs(value - equilibrium_cdf(E, q, x)) <= 1e-15

    @pytest.mark.parametrize("n", [12, 50, 100, 200])
    @pytest.mark.parametrize("case", [*PINNED, "all"])
    def test_start_nodes_match_the_sine_matrix_sum(self, case, n, monkeypatch):
        # each pinned set started alone, and all of them started together,
        # against each one's start from its cdf summed by the sine matrix on its q
        sets = list(PINNED.values()) if case == "all" else [PINNED[case]]
        lps = [extremal._ExchangeLP(E, n, x0) for E, x0 in sets]
        extremal._start(lps)
        q = {E: extremal._equilibrium(E)[0] for E, _ in sets}
        monkeypatch.setattr(extremal, "_Equilibria", per_set_equilibria(
            lambda E: (q[E], lambda xs: equilibrium_cdf(E, q[E], xs))))
        for (E, x0), lp in zip(sets, lps, strict=True):
            ref = extremal._ExchangeLP(E, n, x0)
            ref._initial_basis()
            assert lp.basis == ref.basis

    # one to five bands, touching intervals, points, a set of points and
    # the 48-band preimage; each (set, x0) but the last at two degrees
    PREIMAGE = chebyshev_preimage(48, -0.2, 0.6)
    BATCH = [
        *[(E, x0, n) for E, x0 in PINNED.values() for n in (6, 50)],
        *[(E, 0.5 * sum(E.gaps()[0]), n) for E in (SEED205, FOUR_GAP) for n in (12, 24)],
        *[(CompactSet(((-1.0, 0.0), (0.0, 0.5), (0.5, 1.0))), 1.5, n) for n in (6, 12)],
        *[(CompactSet(TWO_GAP.intervals + ((-0.4, -0.4), (0.25, 0.25))), -0.1, n)
          for n in (6, 12)],
        *[(CompactSet(tuple((v, v) for v in np.linspace(-0.9, 0.9, 10))), 0.95, n)
          for n in (4, 8)],
        (PREIMAGE, 0.5 * sum(PREIMAGE.gaps()[5]), 48),
    ]

    def test_batched_start_equals_the_lone_start(self):
        for order in (self.BATCH, self.BATCH[::-1]):
            lps = [extremal._ExchangeLP(E, n, x0) for E, x0, n in order]
            extremal._start(lps)
            for (E, x0, n), lp in zip(order, lps, strict=True):
                lone = extremal._ExchangeLP(E, n, x0)
                lone._initial_basis()
                assert lp.basis == lone.basis
                assert lp.log_bound.hex() == lone.log_bound.hex()

    @pytest.mark.parametrize("n", [0, 1, 12, 50, 200])
    @pytest.mark.parametrize("case", PINNED)
    def test_cold_start_is_basic_feasible(self, case, n):
        E, x0 = PINNED[case]
        lp = extremal._ExchangeLP(E, n, x0)
        lp._initial_basis()
        assert len({j >> 1 for j in lp.basis}) == n + 1
        assert _lambda_signs(lp.points, lp.basis, x0).min() > 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(gaps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120),
           delta=st.floats(0.15, 0.5), where=st.floats(0.05, 0.95))
    def test_random_sets_certify_cold(self, gaps, seed, n, delta, where):
        E = random_multigap_set(delta, gaps, seed)
        lo, hi = E.gaps()[seed % gaps]
        x0 = lo + (hi - lo) * where
        res = solve_extremal(E, x0, n, extension=False)
        assert res.rel_gap <= 1e-10
        assert verify_feasibility(res, E, probes=10_000).ok
