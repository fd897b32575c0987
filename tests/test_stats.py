from chebgap import _stats
from chebgap._search import illinois_many
from chebgap.andrievskii import L_n_delta
from chebgap.extremal import solve_extremal
from chebgap.green import green_eval
from chebgap.intervals import GapParams, make_gap_set


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
    # the first trial is the root, so one evaluation closes the bracket
    with _stats.collect() as counts:
        illinois_many(lambda x, _: x - 0.5, [0.0], [1.0], [-0.5], [0.5],
                      lambda a, b, _: b - a <= 0.0)
    assert counts == {"search.illinois_many.evals": 1}


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


def test_extension_counts():
    E = make_gap_set(GapParams(-0.3, 0.4))
    with _stats.collect() as counts:
        solve_extremal(E, -0.3, 12, extension=False)
    assert not any(key.startswith("ext.") for key in counts)
    with _stats.collect() as counts:
        solve_extremal(E, -0.3, 12)
    # one evaluation at +-R, one on the grid and 9 lockstep Illinois steps
    # on the 6 component ends; no sampled peak needs a polish
    ext = {key: v for key, v in counts.items() if key.startswith("ext.")}
    assert ext == {"ext.calls": 1, "ext.steps": 11, "ext.polished": 0}


def test_polish_counts():
    # three scans (two exchange rounds and the final check), each one
    # evaluation at the bracket ends and then lockstep Illinois steps, 12
    # in all
    with _stats.collect() as counts:
        solve_extremal(make_gap_set(GapParams(-0.3, 0.4)), -0.3, 50, extension=False)
    assert counts["lp.exchange_rounds"] == 2
    assert counts["lp.polish_evals"] == 15
    # five start steps and one re-solve per round: the grid simplex reuses
    # the converged step's pricing and each round's exchange the simplex's
    assert counts["lp.pricings"] == 7
    assert counts["search.illinois_many.evals"] == 12
