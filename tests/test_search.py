import warnings

import numpy as np
import pytest

from chebgap._search import illinois_many


def tiny(x):
    # a product of two values underflows to 0 on the whole bracket
    return 1e-200 * (x - 0.3)


def huge(x):
    return 1e200 * (x - 0.3)


def test_illinois_many_closes_lanes_in_lockstep():
    # cube roots of c, and huge and tiny values that must not over- or
    # underflow the trial
    c = np.array([0.001, 0.5, 2.0, 7.0])
    calls = []

    def f(x, lanes):
        calls.append(len(lanes))
        return x ** 3 - c[lanes]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = illinois_many(f, np.zeros(4), np.full(4, 2.0), -c, 8.0 - c,
                             lambda a, b, _: b - a <= 4 * np.spacing(b))
        (h,), _ = illinois_many(lambda x, _: huge(x), [0.0], [1.0], [huge(0.0)], [huge(1.0)],
                                lambda a, b, _: b - a <= 1e-15)
        (t,), _ = illinois_many(lambda x, _: tiny(x), [0.0], [1.0], [tiny(0.0)], [tiny(1.0)],
                                lambda a, b, _: b - a <= 1e-15)
    assert np.all(a <= np.cbrt(c)) and np.all(np.cbrt(c) <= b)
    assert np.all(b - a <= 4 * np.spacing(b))
    # bisection would take 52 halvings of [0, 2] to reach 4 ulps at 0.1
    assert len(calls) <= 20 and calls == sorted(calls, reverse=True)
    assert h == pytest.approx(0.3, abs=1e-15)
    assert t == pytest.approx(0.3, abs=1e-15)


def test_illinois_many_exact_root_closes_its_bracket():
    # the first trial is the root; a bracket stop with any width fires
    a, b = illinois_many(lambda x, _: x - 0.5, [0.0], [1.0], [-0.5], [0.5],
                         lambda a, b, _: b - a <= 0.0)
    assert (a[0], b[0]) == (0.5, 0.5)
