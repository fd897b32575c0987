"""Work counters, off by default.

The counters live in a dict held in a contextvar, so they follow the
caller's context and cost nothing when nobody collects them.  Each
instrumented call keeps its counts in locals and hands them over here once,
at its end:

    with collect() as counts:
        solve_extremal(E, x0, n)
    counts["lp.pivots"]

Keys are flat dotted names: `lp.*` for the LP oracle, `quad.*` for the
adaptive quadrature, `search.*` for the bracketed search primitives and
`Ln.*` for `L_n_delta`.  A key ending in `_max` holds a maximum, every
other key a sum.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar

_counts: ContextVar[dict | None] = ContextVar("chebgap_stats", default=None)


def add(counts: dict) -> None:
    """Add `counts` into the active counters; `_max` keys keep the larger."""
    active = _counts.get()
    if active is None:
        return
    for key, value in counts.items():
        if key.endswith("_max"):
            active[key] = max(active.get(key, value), value)
        else:
            active[key] = active.get(key, 0) + value


@contextmanager
def collect():
    """Turn the counters on for the body; yields the dict they fill.  A
    nested collection also adds its counts to the enclosing one."""
    counts: dict = {}
    token = _counts.set(counts)
    try:
        yield counts
    finally:
        _counts.reset(token)
        add(counts)


def counts_evals(key: str):
    """Decorator for a search primitive f-first: counts the calls of f
    under `key` (a vectorized primitive's call evaluates every lane)."""

    def decorate(search):
        @functools.wraps(search)
        def counted(f, *args, **kwargs):
            if _counts.get() is None:
                return search(f, *args, **kwargs)
            evals = 0

            def g(*args):
                nonlocal evals
                evals += 1
                return f(*args)

            try:
                return search(g, *args, **kwargs)
            finally:
                add({key: evals})

        return counted

    return decorate
