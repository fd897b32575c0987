import numpy as np

from chebgap import _stats
from chebgap._search import bisect_many, bisect_root
from chebgap.andrievskii import L_n_delta
from chebgap.green import green_eval


def test_off_by_default():
    _stats.add({"x": 1})            # nothing collects: a no-op
    with _stats.collect() as counts:
        pass
    assert counts == {}


def test_sums_maxima_and_nesting():
    with _stats.collect() as outer:
        _stats.add({"a": 2, "depth_max": 3})
        with _stats.collect() as inner:
            _stats.add({"a": 5, "depth_max": 1})
        _stats.add({"depth_max": 2})
    assert inner == {"a": 5, "depth_max": 1}
    assert outer == {"a": 7, "depth_max": 3}


def test_search_evaluations_are_counted():
    with _stats.collect() as counts:
        bisect_root(lambda x: x - 0.3, 0.0, 1.0, 2.0 ** -10)
        bisect_many(lambda x: x - 0.3, np.zeros(4), np.ones(4), iters=7)
    assert counts == {"search.bisect_root.evals": 2 + 10, "search.bisect_many.evals": 2 + 7}


def test_quadrature_counts():
    with _stats.collect() as counts:
        green_eval(-0.3, 0.4, -0.2)
    assert counts["quad.calls"] >= 1
    assert counts["quad.panels"] >= 3 * counts["quad.calls"]
    assert counts["quad.rows"] >= counts["quad.calls"]
    assert counts["quad.depth_max"] >= 0


def test_lp_solves_per_L_n():
    with _stats.collect() as counts:
        L_n_delta(-0.1, 0.4, 12)
    assert counts["Ln.calls"] == 1
    assert counts["Ln.solves"] == counts["lp.solves"]
    # the lattice points alpha_4, alpha_5 and alpha_6 = 0 are valued with no
    # LP, and of the three branches between lo and 0 two are left unsolved
    assert (counts["Ln.lattice"], counts["Ln.pruned"]) == (3, 2)
    # every LP is finished: none is dropped at its start's bound
    assert "lp.bounded" not in counts
    assert counts["lp.start_steps"] >= counts["lp.solves"]
    assert counts["lp.exchange_rounds"] >= counts["lp.solves"]
    assert counts["lp.grid_pivots"] <= counts["lp.pivots"]
