import math
import tracemalloc

import numpy as np
import pytest

from chebgap import _stats, envelope
from chebgap.andrievskii import L_n_delta
from chebgap.envelope import (
    _interior_max,
    akhiezer_curve,
    delta_star,
    diagram,
    diagram_to_csv,
    diagram_to_json,
    switching_point,
    upper_envelope,
    x0_many,
    x0_of_alpha,
    x_star,
)
from chebgap.errors import DomainError, QuadratureError, SolverError
from chebgap.green import c_cdot_rows, green_single_interval, green_two_interval

from _oracles import dense_stationary_scan


class TestDeltaStar:
    def test_value(self):
        assert delta_star(1e-8) == pytest.approx(0.543689, abs=1e-5)

    def test_residual(self):
        d = delta_star(1e-10)
        assert abs(d * d - (1 - d) / (1 + d)) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_tol_below_float_spacing(self, tol):
        # floats near 0.5437 are 1.1e-16 apart: the search must stop at a
        # bracket two spacings wide
        d = delta_star(tol)
        assert abs(d * d - (1 - d) / (1 + d)) <= 1e-15

    def test_green_values_tie_at_threshold(self):
        # the threshold is exactly where the boundary branch at 0 ties the
        # symmetric two-interval value at 0
        d = delta_star(1e-12)
        assert abs(
            green_single_interval(d, 0.0) - 0.5 * math.log((1 + d) / (1 - d))
        ) <= 1e-8

    def test_above_threshold_boundary_wins_at_zero(self):
        d = 0.6
        assert green_single_interval(d, 0.0) > 0.5 * math.log((1 + d) / (1 - d))

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            delta_star(0.0)


class TestStationaryPoint:
    def test_symmetric(self):
        assert x0_of_alpha(0.0, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_near_boundary_limit(self):
        # x0(alpha) -> -1 + 2*delta as alpha -> delta - 1
        x0 = x0_of_alpha(-1.0 + 0.4 + 1e-4, 0.4)
        assert abs(x0 - (-0.2)) < 0.05

    def test_against_dense_scan_oracle(self):
        x0 = x0_of_alpha(-0.3, 0.4)
        oracle = dense_stationary_scan(-0.3, 0.4)
        assert x0 == pytest.approx(oracle, abs=5e-4)
        assert -0.7 < x0 < 0.1

    def test_root_residual(self):
        from chebgap.green import dalpha_green

        for alpha, delta in ((-0.25, 0.4), (-0.1, 0.3), (-0.4, 0.45)):
            x0 = x0_of_alpha(alpha, delta)
            assert abs(dalpha_green(alpha, delta, x0)) < 1e-6


class TestX0Many:
    # the alpha 1e-12 above the boundary shows no sign change of dG/dalpha
    # on its pulled-in bracket, and 0.1 and -0.7 are inadmissible for 0.4
    D = 0.4
    SOLVABLE = [-0.6 + 1e-8, -0.55, -0.4, -0.25, -0.1, 0.0]
    FAILING = [-0.6 + 1e-12, 0.1, -0.7]

    def test_matches_x0_of_alpha_row_by_row(self):
        x0 = x0_many(self.SOLVABLE, self.D)
        for al, v in zip(self.SOLVABLE, x0):
            assert v == pytest.approx(x0_of_alpha(al, self.D), abs=2e-10)

    def test_nan_where_no_sign_change(self):
        x0 = x0_many(self.FAILING + self.SOLVABLE[:2], self.D)
        assert np.isnan(x0[:3]).all()
        assert not np.isnan(x0[3:]).any()
        with pytest.raises(SolverError):
            x0_of_alpha(self.FAILING[0], self.D)
        with pytest.raises(DomainError):
            x0_of_alpha(self.FAILING[1], self.D)


class TestAkhLezerCurve:
    def test_endpoint_at_alpha_zero(self):
        d = 0.4
        rows = akhiezer_curve(d, [0.0])
        (x0, y), = rows
        assert x0 == pytest.approx(0.0, abs=1e-8)
        assert y == pytest.approx(0.5 * math.log((1 + d) / (1 - d)), abs=1e-8)

    def test_boundary_endpoint(self):
        # endpoint (-1+2*delta, 0) is approached, but only at the logarithmic
        # boundary rate: at alpha = -1+delta+1e-6 the y-coordinate is ~0.011
        d = 0.4
        rows = akhiezer_curve(d, [-1.0 + d + 1e-6])
        (x0, y), = rows
        assert abs(x0 - (-1.0 + 2 * d)) < 1e-2
        assert abs(y) < 2e-2
        (x0b, yb), = akhiezer_curve(d, [-1.0 + d + 1e-9])
        assert abs(x0b - (-1.0 + 2 * d)) < abs(x0 - (-1.0 + 2 * d))
        assert abs(yb) < abs(y)

    def test_failed_rows_are_none(self):
        d = 0.4
        grid = [-0.3, -0.6 + 1e-12, 0.1, 0.0]
        rows = akhiezer_curve(d, grid)
        assert rows[1] is None and rows[2] is None
        for al, row in zip((grid[0], grid[3]), (rows[0], rows[3])):
            x0 = x0_of_alpha(al, d)
            assert row[0] == pytest.approx(x0, abs=2e-10)
            assert row[1] == pytest.approx(green_two_interval(al, d, x0), abs=1e-9)

    def test_values_nonnegative(self):
        rows = akhiezer_curve(0.4, np.linspace(-0.55, 0.0, 8))
        for row in rows:
            assert row is not None
            assert row[1] >= 0.0


class TestUpperEnvelope:
    def test_at_zero_symmetric_maximizer(self):
        d = 0.4
        p = upper_envelope(d, 0.0)
        assert p.source == "akhiezer"
        assert abs(p.alpha) < 1e-4
        assert p.phi == pytest.approx(0.5 * math.log(7.0 / 3.0), abs=1e-8)

    def test_near_minus_one_boundary_branch(self):
        d = 0.4
        p = upper_envelope(d, -0.95)
        assert p.source == "remez"
        assert p.phi == pytest.approx(green_single_interval(d, -0.95), abs=1e-10)

    def test_dominates_sampled_candidates(self):
        d = 0.4
        x = -0.1
        p = upper_envelope(d, x)
        for alpha in np.linspace(x - d + 1e-3, 0.0, 20):
            assert p.phi >= green_two_interval(float(alpha), d, x) - 1e-9

    def test_dominates_boundary_branch(self):
        d = 0.4
        for x in (-0.9, -0.5, -0.25):
            p = upper_envelope(d, x)
            assert p.phi >= green_single_interval(d, x) - 1e-9

    # Grid abscissae np.linspace(-1, 0, 99)[k] at which a bracket end
    # alpha = x -+ delta of the interior maximization does not round back to
    # x, so x fell outside that alpha's gap and the envelope raised.
    @pytest.mark.parametrize("d,x", [
        (0.2, -0.9897959183673469),
        (0.2, -0.8775510204081632),
        (0.2, -0.7346938775510204),
        (0.2, -0.4897959183673469),
        (0.3, -0.37755102040816335),
        (0.3, -0.26530612244897966),
    ])
    def test_gap_edge_rounding(self, d, x):
        p = upper_envelope(d, x)
        neighbour = upper_envelope(d, math.nextafter(x, 0.0))
        assert p.source == neighbour.source
        assert p.phi == pytest.approx(neighbour.phi, abs=1e-9)

    def test_quadratures(self):
        # the maximizer is the range end alpha = 0, where dG/dalpha is 0 up
        # to rounding: the scan and a step of the polish find it, where
        # Brent's method took 31 quadratures
        with _stats.collect() as counts:
            upper_envelope(0.4, 0.0)
        assert counts["quad.calls"] <= 8

    def test_each_polish_step_is_one_quadrature(self):
        # the rows for c and cdot join the tails of G and dG/dalpha; the
        # scan takes two, one for c and cdot at the range ends beside the
        # cached grid rows and one for G and dG/dalpha
        envelope._shared_c(0.4)
        with _stats.collect() as counts:
            _interior_max(0.4, -0.2)
        assert counts["search.illinois_many.evals"] > 0
        assert counts["quad.calls"] == 2 + counts["search.illinois_many.evals"]

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_envelope(0.4, 0.5)
        with pytest.raises(DomainError):
            upper_envelope(0.4, -1.0)


    def test_memory_does_not_grow_with_points(self):
        # Nothing may be cached per (alpha, delta): memory held after the
        # 10th point of one delta stays flat through the 50th.
        d = 0.35
        xs = -np.linspace(0.02, 0.98, 50)
        tracemalloc.start()
        try:
            for i, x in enumerate(xs):
                upper_envelope(d, float(x))
                if i == 9:
                    held = tracemalloc.get_traced_memory()[0]
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024


class TestSwitchingPoint:
    def test_location_for_04(self):
        xs = switching_point(0.4)
        assert -1.0 < xs < -0.2

    def test_branches_tie_at_switch(self):
        d = 0.4
        xs = switching_point(d)
        p = upper_envelope(d, xs)
        assert p.phi == pytest.approx(green_single_interval(d, xs), abs=1e-6)

    def test_sign_change_across(self):
        d = 0.4
        xs = switching_point(d)
        lo = upper_envelope(d, xs - 1e-3)
        hi = upper_envelope(d, xs + 1e-3)
        assert lo.source == "remez"
        assert hi.source in ("akhiezer", "tie")

    def test_small_delta(self):
        xs = switching_point(0.1)
        assert -1.0 < xs < -0.8

    def test_quadratures(self):
        # bisection to _SWITCH_TOL needs 350 quadratures, and 91 were taken
        # while each polish step of the alpha maximum spent one quadrature on
        # c and cdot and one on G and dG/dalpha
        with _stats.collect() as counts:
            switching_point(0.4)
        assert counts["quad.calls"] <= 70


class TestXStar:
    def test_range(self):
        v = x_star(0.4)
        assert -1.0 < v <= -0.2

    def test_lower_bound_for_samples(self):
        d = 0.4
        v = x_star(d)
        for alpha in np.linspace(-0.59, 0.0, 12):
            assert v <= x0_of_alpha(float(alpha), d) + 1e-9

    def test_grid_refinement_stability(self):
        # brute force: a 65-point alpha scan, then 41 alphas within 0.01 of
        # its argmin; the coarse scan alone is about 3e-5 above x_*
        d = 0.4
        coarse = np.linspace(d - 1.0 + 1e-8, 0.0, 65)
        i = int(np.argmin([x0_of_alpha(float(al), d) for al in coarse]))
        fine = np.linspace(max(coarse[i] - 0.01, coarse[0]),
                           min(coarse[i] + 0.01, 0.0), 41)
        brute_min = min(x0_of_alpha(float(al), d) for al in fine)
        assert 0.0 <= brute_min - x_star(d) <= 1e-6

    def test_quadratures(self):
        # four x0 sweeps; lockstep bisection to _ROOT_TOL needs 140 quadratures
        with _stats.collect() as counts:
            x_star(0.4)
        assert counts["quad.calls"] <= 110


@pytest.fixture(scope="module")
def diagram_04():
    return diagram(0.4, 32)


class TestDiagram:
    @pytest.fixture()
    def result(self, diagram_04):
        return diagram_04

    def test_breakpoint_ordering(self, result):
        assert -1.0 < result.x_star < result.x_switch < -0.2 < 0.0
        assert result.gap_edge == pytest.approx(-0.2, abs=1e-15)

    def test_row_count_and_sorted(self, result):
        assert len(result.rows) == 35  # 32 + three breakpoints
        xs = [r.x for r in result.rows]
        assert xs == sorted(xs)

    def test_region_sources(self, result):
        for r in result.rows:
            if r.region == "a" and r.x > result.gap_edge + 1e-9:
                assert r.source in ("akhiezer", "tie")
                assert r.g_remez is None
            if r.region == "d" and r.x > -1.0:
                assert r.source == "remez"

    def test_phi_is_max_of_candidates(self, result):
        for r in result.rows:
            cands = [v for v in (r.g_remez, r.curve_y) if v is not None]
            if cands:
                assert r.phi == pytest.approx(max(cands), abs=1e-8)

    def test_envelope_continuous_at_switch(self, result):
        # the two branches tie at x_s by construction; adjacent rows may
        # differ by the local slope times the grid spacing, nothing more
        rows = result.rows
        for i, r in enumerate(rows[:-1]):
            nxt = rows[i + 1]
            if r.x <= result.x_switch <= nxt.x:
                assert abs(r.phi - nxt.phi) <= 5.0 * (nxt.x - r.x) + 1e-6

    def test_csv_shape(self, result):
        csv = diagram_to_csv(result)
        lines = csv.strip().split("\n")
        assert lines[0] == "x,g_remez,phi,source,alpha,region"
        assert len(lines) == 36
        assert csv.endswith("\n") and "\r" not in csv

    def test_json_roundtrip(self, result):
        import json

        payload = json.loads(diagram_to_json(result))
        assert payload["delta"] == 0.4
        assert len(payload["rows"]) == len(result.rows)

    def test_degenerate_delta(self):
        res = diagram(0.6, 12)
        assert res.degenerate
        assert all(r.region is None for r in res.rows)
        assert res.x_star is None and res.x_switch is None
        assert len(res.rows) == 12

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            diagram(0.4, 1)


class TestNearOneDelta:
    # The 256-row c grid of one delta (`envelope._shared_c`) ran past the
    # 4,096-panel cap at delta = 0.99 while cdot came from three more
    # integrands; on (U, V, K+, K-) it takes a few dozen panels.
    def test_delta_099_returns(self):
        assert upper_envelope(0.99, -0.5).phi > 0.0
        assert len(diagram(0.99, 40).rows) == 40
        assert L_n_delta(0.0, 0.99, 6).value > 1.0

    @pytest.mark.xfail(raises=QuadratureError, strict=True)
    def test_delta_09999_grid_rows_converge(self):
        # D12: the sinh map grades only the psi = 0 end of each row.  At
        # delta = 0.9999 the clip row alone takes 1,407 panel estimates, and
        # the grid's first two rows together exceed the cap.  So
        # upper_envelope(0.9999, -0.5) raises too, after 3.6 s and a peak
        # RSS of 1.2 GB in the 256-row batch, which is why the rows are
        # tried here and not the envelope
        rows = envelope._shared_alpha_grid(0.9999)[:2]
        c_cdot_rows(rows, 0.9999)
