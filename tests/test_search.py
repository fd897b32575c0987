import warnings

import numpy as np
import pytest

from chebgap._search import bisect_many, bisect_root
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
