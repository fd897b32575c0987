import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebgap.chebyshev import akhiezer_even_value, cheb_T, remez_constant, remez_poly_value
from chebgap.errors import DomainError


def cheb_T_exact(n, x):
    """Independent oracle: three-term recurrence in exact rationals."""
    x = Fraction(x)
    t_prev, t = Fraction(1), x
    if n == 0:
        return t_prev
    for _ in range(n - 1):
        t_prev, t = t, 2 * x * t - t_prev
    return t


class TestChebT:
    def test_t2_at_2(self):
        assert cheb_T(2, 2.0) == pytest.approx(7.0, abs=1e-12)

    def test_unit_value(self):
        assert cheb_T(5, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_t3_at_5_thirds_vs_exact_recurrence(self):
        # exact rational value is 4*(5/3)^3 - 3*(5/3) = 365/27
        exact = cheb_T_exact(3, Fraction(5, 3))
        assert exact == Fraction(365, 27)
        assert cheb_T(3, 5.0 / 3.0) == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 5, 20, 100, 200])
    @pytest.mark.parametrize("x", [-10.0, -1.5, -0.875, 0.3125, 1.0 + 2**-20, 7.0 / 3.0, 10.0])
    def test_matches_exact_recurrence(self, n, x):
        exact = float(cheb_T_exact(n, Fraction(x)))
        assert cheb_T(n, x) == pytest.approx(exact, rel=1e-12)

    @given(st.floats(-1.0, 1.0), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_bounded_on_unit_interval(self, x, n):
        assert abs(cheb_T(n, x)) <= 1.0 + 1e-15

    @given(st.floats(-3.0, 3.0, allow_nan=False), st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_parity(self, x, n):
        assert cheb_T(n, -x) == pytest.approx((-1.0) ** n * cheb_T(n, x), rel=1e-12, abs=1e-12)

    def test_guard_band_near_one(self):
        assert cheb_T(7, 1.0 + 2e-16) == 1.0
        assert cheb_T(7, -1.0 - 2e-16) == -1.0

    def test_negative_degree(self):
        with pytest.raises(DomainError):
            cheb_T(-1, 0.5)


class TestRemezPoly:
    def test_value_one_at_center_for_half(self):
        for n in (1, 4, 9):
            assert remez_poly_value(n, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_equals_remez_constant(self):
        for n in (1, 7, 10):
            assert remez_poly_value(n, 0.4, -1.0) == pytest.approx(
                remez_constant(n, 0.4), rel=1e-14
            )

    def test_band_edge(self):
        assert remez_poly_value(8, 0.3, -1.0 + 0.6) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_delta(self):
        # nondecreasing in delta for fixed x0 <= -1+2*delta
        x0 = -0.8
        deltas = np.linspace(0.15, 0.9, 40)  # x0 <= -1+2d iff d >= 0.1
        vals = [remez_poly_value(12, d, x0) for d in deltas]
        assert all(b >= a - 1e-9 * abs(a) for a, b in zip(vals, vals[1:]))

    def test_delta_validation(self):
        with pytest.raises(DomainError):
            remez_poly_value(3, 1.0, 0.0)


class TestRemezConstant:
    def test_degree_one(self):
        assert remez_constant(1, 1.0 / 3.0) == pytest.approx(2.0, rel=1e-15)

    def test_degree_two(self):
        assert remez_constant(2, 1.0 / 3.0) == pytest.approx(7.0, rel=1e-14)


class TestAkhiezerEven:
    def test_center_value(self):
        for m in (1, 3, 6):
            assert akhiezer_even_value(m, 0.5, 0.0) == pytest.approx(
                cheb_T(m, 5.0 / 3.0), rel=1e-14
            )
        assert akhiezer_even_value(3, 0.5, 0.0) > 1.0

    def test_gap_edge(self):
        # argument hits exactly 1 at x = delta
        assert akhiezer_even_value(5, 0.3, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_outer_edge_magnitude(self):
        # at x = 1 the argument is exactly -1, so the value is (-1)^m
        for m in (2, 5):
            assert akhiezer_even_value(m, 0.4, 1.0) == pytest.approx(
                (-1.0) ** m, abs=1e-12
            )
