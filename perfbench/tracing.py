"""In-memory spans around the calls into each chebgap layer.

`install` replaces module attributes of chebgap (for example
chebgap.envelope.green_two_interval and chebgap.green.integrate_adaptive)
with wrappers that record one span per call: name, start, end, parent span,
job id and a few call attributes.  Every module that imported the same
function object by name gets the same wrapper, so calls are caught on each
path into the layer.  Nothing under src/ is modified; a target that a later
version of chebgap no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

# span fields
NAME, START, END, PARENT, JOB, ATTRS, FAILED = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def open(self, name, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job, attrs, False])
        self._stack.append(sid)
        return sid

    def close(self, sid, failed=False):
        span = self.spans[sid]
        span[END] = time.perf_counter_ns()
        span[FAILED] = failed
        self._stack.pop()

    def wrap(self, name, fn, attrs=None, counted=False):
        """Span every call of fn; `counted` also counts the evaluations of
        the callable fn receives first (integrand abscissae or search
        points)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = attrs(args, kwargs) if attrs else {}
            if counted:
                meta["evals"] = 0
                inner = args[0]

                def counting(x, *a, **k):
                    meta["evals"] += int(np.size(x))
                    return inner(x, *a, **k)

                args = (counting,) + args[1:]
            sid = self.open(name, meta)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, failed=True)
                raise
            self.close(sid)
            return out

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "job": s[JOB], "failed": s[FAILED],
                    "attrs": {k: v for k, v in (s[ATTRS] or {}).items()
                              if isinstance(v, (int, float, bool, str))},
                }) + "\n")


def _alpha_delta(args, kwargs):
    return {"ad": (float(args[0]), float(args[1]))}


def _solve_attrs(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs["n"]
    warm = args[4] if len(args) > 4 else kwargs.get("warm_start")
    return {"n": int(n), "warm": warm is not None}


# (defining module, attribute, span name, attribute extractor, counted)
TARGETS = (
    ("chebgap.green", "integrate_adaptive", "green.quad", None, True),
    ("chebgap.green", "green_two_interval", "green.g", _alpha_delta, False),
    ("chebgap.green", "dalpha_green", "green.dg", _alpha_delta, False),
    ("chebgap.green", "green_eval", "green.bundle", None, False),
    ("chebgap.envelope", "upper_envelope", "envelope.upper", None, False),
    ("chebgap.envelope", "x_star", "envelope.x_star", None, False),
    ("chebgap.envelope", "switching_point", "envelope.switch", None, False),
    ("chebgap.envelope", "x0_of_alpha", "envelope.x0", None, False),
    ("chebgap._search", "golden_max", "search.golden", None, True),
    ("chebgap._search", "bisect_root", "search.bisect", None, True),
    ("chebgap.extremal", "solve_extremal", "extremal.solve", _solve_attrs, False),
    ("chebgap.extremal", "n_extension", "extremal.ext", None, False),
    ("chebgap.andrievskii", "L_n_delta", "andrievskii.Ln", None, False),
    ("chebgap.andrievskii", "brute_force_theorem1", "andrievskii.brute", None, False),
    ("chebgap.cli", "main", "cli.main", None, False),
)


def install(tracer):
    """Swap every chebgap reference to each target for its traced wrapper."""
    modules = [m for name, m in sys.modules.items()
               if name == "chebgap" or name.startswith("chebgap.")]
    for mod_name, attr, span, attrs, counted in TARGETS:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        if fn is None:
            continue
        wrapper = tracer.wrap(span, fn, attrs, counted)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def self_times(spans):
    """Span duration minus the part of it that its child spans cover (ns)."""
    children = {}
    for sid, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for sid, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _under(spans, sid, prefix):
    """Nearest ancestor of span sid whose name starts with prefix, or None."""
    p = spans[sid][PARENT]
    while p is not None:
        if spans[p][NAME].startswith(prefix):
            return p
        p = spans[p][PARENT]
    return None


def layer_metrics(spans):
    """Per-layer counts and times; see PER_LAYER in run.py for the list."""
    own = self_times(spans)
    by = {}
    for sid, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(sid)

    def ids(name):
        return by.get(name, [])

    def dur_s(sid):
        return (spans[sid][END] - spans[sid][START]) * 1e-9

    def self_s(prefix):
        return sum(own[i] for i, s in enumerate(spans) if s[NAME].startswith(prefix)) * 1e-9

    m = {}
    quad = ids("green.quad")
    m["green.quad.calls"] = len(quad)
    m["green.quad.evals"] = sum(spans[i][ATTRS]["evals"] for i in quad)
    m["green.quad.self_s"] = sum(own[i] for i in quad) * 1e-9
    m["green.quad.us_per_call"] = (sum(dur_s(i) for i in quad) / len(quad) * 1e6
                                   if quad else 0.0)
    g, dg = ids("green.g"), ids("green.dg")
    m["green.g.calls"] = len(g)
    m["green.dg.calls"] = len(dg)
    m["green.self_s"] = sum(own[i] for i in g + dg + ids("green.bundle")) * 1e-9
    pairs = [spans[i][ATTRS]["ad"] for i in g + dg]
    m["green.ad_distinct_ratio"] = len(set(pairs)) / len(pairs) if pairs else 0.0

    upper = ids("envelope.upper")
    m["envelope.upper.ms_p50"] = _median([dur_s(i) * 1e3 for i in upper])
    g_in_upper = sum(1 for i in g if _under(spans, i, "envelope.upper") is not None)
    m["envelope.g_per_point"] = g_in_upper / len(upper) if upper else 0.0
    x0s = ids("envelope.x0")
    dg_in_x0 = sum(1 for i in dg if _under(spans, i, "envelope.x0") is not None)
    m["envelope.dg_per_x0"] = dg_in_x0 / len(x0s) if x0s else 0.0
    m["envelope.search.evals"] = sum(
        spans[i][ATTRS]["evals"] for i in ids("search.golden") + ids("search.bisect")
        if spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME].startswith("envelope.")
    )
    m["envelope.x_star_s"] = float(sum(dur_s(i) for i in ids("envelope.x_star")))
    m["envelope.switch_s"] = float(sum(dur_s(i) for i in ids("envelope.switch")))
    m["envelope.self_s"] = self_s("envelope.")

    solves = ids("extremal.solve")
    ext_in = {}
    for i in ids("extremal.ext"):
        ext_in[spans[i][PARENT]] = ext_in.get(spans[i][PARENT], 0.0) + dur_s(i)
    cold = [i for i in solves if not spans[i][ATTRS]["warm"]]
    warm = [i for i in solves if spans[i][ATTRS]["warm"]]
    for n in (12, 50, 100):
        m[f"extremal.cold.ms_p50.n{n}"] = _median(
            [(dur_s(i) - ext_in.get(i, 0.0)) * 1e3 for i in cold
             if spans[i][ATTRS]["n"] == n])
    m["extremal.cold.calls"] = len(cold)
    ext = ids("extremal.ext")
    m["extremal.ext.ms_p50"] = _median([dur_s(i) * 1e3 for i in ext])
    m["extremal.ext.fail"] = sum(1 for i in ext if spans[i][FAILED])
    m["extremal.warm.calls"] = len(warm)
    m["extremal.warm.ms_p50"] = _median([dur_s(i) * 1e3 for i in warm])
    m["extremal.self_s"] = self_s("extremal.")

    ln = ids("andrievskii.Ln")
    m["andrievskii.Ln.s_p50"] = _median([dur_s(i) for i in ln])
    in_ln = sum(1 for i in solves if _under(spans, i, "andrievskii.Ln") is not None)
    m["andrievskii.solves_per_Ln"] = in_ln / len(ln) if ln else 0.0
    m["andrievskii.self_s"] = self_s("andrievskii.")

    m["cli.calls"] = len(ids("cli.main"))
    m["cli.self_s"] = self_s("cli.")
    return m
