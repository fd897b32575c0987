import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebgap.errors import DomainError
from chebgap.intervals import (
    CompactSet,
    GapParams,
    Interval,
    discretize,
    make_gap_set,
    random_multigap_set,
)


class TestConstruction:
    def test_interval_orders_endpoints(self):
        with pytest.raises(DomainError):
            Interval(1.0, 0.0)

    def test_degenerate_interval_allowed(self):
        assert Interval(0.3, 0.3).length == 0.0

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            CompactSet((Interval(0.0, 0.5), Interval(0.4, 1.0)))

    def test_touching_intervals_allowed(self):
        E = CompactSet((Interval(-1.0, 0.0), Interval(0.0, 1.0)))
        assert E.measure == 2.0

    def test_sorting(self):
        E = CompactSet((Interval(0.5, 1.0), Interval(-1.0, -0.5)))
        assert E.intervals[0].lo == -1.0

    def test_gap_params_validation(self):
        with pytest.raises(DomainError):
            GapParams(0.1, 0.4)  # alpha > 0
        with pytest.raises(DomainError):
            GapParams(0.0, 1.5)
        with pytest.raises(DomainError):
            GapParams(-0.7, 0.4)  # alpha <= delta-1

    def test_json_roundtrip(self):
        E = CompactSet((Interval(-1.0, -0.5), Interval(0.5, 1.0)))
        assert CompactSet.from_json(E.to_json()) == E

    def test_json_garbage(self):
        with pytest.raises(DomainError):
            CompactSet.from_json("not json")


class TestMakeGapSet:
    def test_symmetric(self):
        E = make_gap_set(GapParams(0.0, 0.5))
        assert [(iv.lo, iv.hi) for iv in E.intervals] == [(-1.0, -0.5), (0.5, 1.0)]
        assert E.measure == 1.0

    def test_shifted(self):
        E = make_gap_set(GapParams(-0.3, 0.4))
        flat = [v for iv in E.intervals for v in (iv.lo, iv.hi)]
        assert flat == pytest.approx([-1.0, -0.7, 0.1, 1.0], abs=1e-15)
        assert E.measure == pytest.approx(1.2, abs=1e-15)

    def test_measure_alpha_independent(self):
        assert make_gap_set(GapParams(-0.59, 0.4)).measure == pytest.approx(1.2, abs=1e-15)

    def test_gap_touching_minus_one_rejected(self):
        with pytest.raises(DomainError):
            make_gap_set(GapParams(-0.6 + 1e-18, 0.4))

    @pytest.mark.parametrize("alpha,delta", [(-0.1, 0.2), (-0.5, 0.45), (0.0, 0.9), (-0.05, 0.1)])
    def test_measure_exact(self, alpha, delta):
        assert abs(make_gap_set(GapParams(alpha, delta)).measure - (2 - 2 * delta)) < 1e-14


class TestMeasure:
    def test_full_interval(self):
        assert CompactSet((Interval(-1.0, 1.0),)).measure == 2.0

    def test_empty(self):
        assert CompactSet(()).measure == 0.0


class TestDiscretize:
    def test_three_nodes_on_unit(self):
        grid = discretize(CompactSet((Interval(0.0, 1.0),)), 3)
        assert grid.tolist() == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)

    def test_degenerate(self):
        grid = discretize(CompactSet((Interval(-1.0, -1.0),)), 5)
        assert grid.tolist() == [-1.0]

    def test_dedup_at_shared_endpoint(self):
        E = CompactSet((Interval(-1.0, 0.0), Interval(0.0, 1.0)))
        grid = discretize(E, 2)
        assert grid.tolist() == [-1.0, 0.0, 1.0]

    def test_density_validation(self):
        with pytest.raises(DomainError):
            discretize(CompactSet((Interval(0.0, 1.0),)), 1)

    @given(
        st.lists(
            st.tuples(st.integers(-50, 49), st.integers(1, 8)),
            min_size=1, max_size=4,
        ),
        st.integers(2, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_grid_properties(self, spans, density):
        # build disjoint intervals on a 1/100 lattice
        ivs = []
        cursor = -1.0
        for start, width in spans:
            lo = max(cursor, start / 50.0)
            hi = lo + width / 100.0
            if hi > 1.5:
                continue
            ivs.append(Interval(lo, hi))
            cursor = hi + 0.01
        if not ivs:
            return
        E = CompactSet(tuple(ivs))
        grid = discretize(E, density)
        assert np.all(np.diff(grid) > 0)  # sorted, unique
        for x in grid:
            assert E.contains(x, tol=1e-12)
        for iv in E.intervals:
            assert np.min(np.abs(grid - iv.lo)) < 1e-12
            assert np.min(np.abs(grid - iv.hi)) < 1e-12


class TestRandomMultigap:
    def test_measure_and_gap_count(self):
        for gaps in (1, 2, 3, 4):
            E = random_multigap_set(0.4, gaps, seed=123 + gaps)
            assert abs(E.measure - 1.2) < 1e-12
            assert len(E.gaps()) == gaps
            assert E.intervals[0].lo == -1.0 and E.intervals[-1].hi == 1.0

    def test_single_gap_shape(self):
        E = random_multigap_set(0.4, 1, seed=7)
        assert len(E.intervals) == 2
        (lo, hi), = E.gaps()
        assert -1.0 < lo < hi < 1.0

    def test_deterministic(self):
        a = random_multigap_set(0.4, 3, seed=99)
        b = random_multigap_set(0.4, 3, seed=99)
        assert a == b

    def test_infeasible_geometry(self):
        # total gap length 1.98 in (-1,1) with 4 gaps almost never fits
        with pytest.raises(DomainError):
            random_multigap_set(0.99, 4, seed=1)

    def test_validation(self):
        with pytest.raises(DomainError):
            random_multigap_set(0.4, 0, seed=1)
        with pytest.raises(DomainError):
            random_multigap_set(1.2, 1, seed=1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_measure_property(self, seed, gaps):
        E = random_multigap_set(0.35, gaps, seed=seed)
        assert abs(E.measure - 1.3) < 1e-12
