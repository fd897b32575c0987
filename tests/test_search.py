import math
import warnings

import numpy as np
import pytest

from chebgap._search import bisect_many, bisect_root, brent_max
from chebgap.errors import SolverError


def tiny(x):
    # f(lo) * f(mid) underflows to 0 on the whole bracket
    return 1e-200 * (x - 0.3)


def huge(x):
    return 1e200 * (x - 0.3)


def test_bisect_many_tiny_values():
    assert bisect_many(tiny, [0.0], [1.0])[0] == pytest.approx(0.3, abs=1e-15)


def test_bisect_root_tiny_values():
    assert bisect_root(tiny, 0.0, 1.0, 1e-12) == pytest.approx(0.3, abs=1e-12)


def test_bisect_many_huge_values_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = bisect_many(huge, np.array([0.0, -1.0]), np.array([1.0, 0.5]))
    assert roots == pytest.approx([0.3, 0.3], abs=1e-15)


def test_tiny_values_without_sign_change_rejected():
    with pytest.raises(SolverError):
        bisect_many(lambda x: 1e-200 * (x + 1.0), [0.0], [1.0])
    with pytest.raises(SolverError):
        bisect_root(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, 1e-12)


class Counted:
    def __init__(self, f):
        self.f, self.n = f, 0

    def __call__(self, x):
        self.n += 1
        return self.f(x)


def peaked_at(argmax, f):
    f.argmax = argmax
    return f


@pytest.mark.parametrize("f,lo,hi", [
    (peaked_at(0.3, lambda x: -(x - 0.3) ** 2), 0.0, 1.0),
    (peaked_at(math.atan(1.0 / 0.3), lambda x: math.sin(x) * math.exp(-0.3 * x)), 0.0, 3.0),
    (peaked_at(0.9, lambda x: 1.0 / (1.0 + 50.0 * (x - 0.9) ** 2)), 0.0, 1.0),
])
def test_brent_max_agrees_with_golden_max_in_fewer_evaluations(f, lo, hi):
    # against the closed-form argmax, and golden section's evaluation count:
    # two to start, then one per 1/phi shrink of the bracket
    xtol = 1e-8
    fb = Counted(f)
    xb, vb = brent_max(fb, lo, hi, xtol)
    assert abs(xb - f.argmax) <= xtol
    assert vb == f(xb)
    golden_evals = math.ceil(math.log((hi - lo) / xtol) / math.log((1 + math.sqrt(5)) / 2)) + 2
    assert fb.n < golden_evals


@pytest.mark.parametrize("f,end", [(lambda x: x, 1.0), (lambda x: -x, 0.0),
                                   (lambda x: math.exp(-x * x), 0.0)])
def test_brent_max_end_maximum_in_four_evaluations(f, end):
    fc = Counted(f)
    x, v = brent_max(fc, 0.0, 1.0, 1e-10)
    assert x == end and v == f(end)
    assert fc.n <= 4
    # known endpoint values are not evaluated again
    fc.n = 0
    assert brent_max(fc, 0.0, 1.0, 1e-10, f(0.0), f(1.0)) == (end, f(end))
    assert fc.n <= 2
