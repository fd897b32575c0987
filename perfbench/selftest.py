"""Self-tests of the benchmark's own arithmetic.  Needs numpy only.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class MetricNames(unittest.TestCase):
    def test_charset_and_uniqueness(self):
        bench = _bench()
        names = [w["name"] for w in bench["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in bench[group]:
                names.append(m["name"])
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_manifest_workloads_exist(self):
        self.assertEqual({w["name"] for w in _bench()["workloads"]}, set(WORKLOADS))

    def test_summary_covers_end_to_end_list(self):
        produced = set(run.summarize([], 1.0)) | {"setup_s", "peak_rss_mb"}
        self.assertLessEqual(set(run.metric_units("end_to_end")), produced)

    def test_layer_metrics_cover_per_layer_list(self):
        produced = set(tracing.layer_metrics([])) | {"trace.overhead_pct",
                                                     "defects.reproduced"}
        self.assertEqual(produced, set(run.metric_units("per_layer")))


def _job(outcome, t0, t1):
    return {"label": "j", "kind": "k", "t0": t0, "t1": t1, "outcome": outcome, "reason": None}


class FailCounting(unittest.TestCase):
    def test_failed_and_wrong_jobs_cost_time_and_add_no_work(self):
        jobs = [_job("ok", 0.0, 1.0), _job("error", 1.0, 2.0),
                _job("wrong", 2.0, 3.0), _job("ok", 3.0, 3.5)]
        s = run.summarize(jobs, elapsed_s=4.0)
        self.assertEqual((s["attempted"], s["failed"]), (4, 2))
        self.assertEqual(s["fail_frac"], 0.5)
        self.assertEqual(s["ok_jobs_per_s"], 0.5)
        self.assertEqual(s["job_p50_ms"], 750.0)

    def test_speed_scale_shrinks_times_and_raises_rates(self):
        jobs = [_job("ok", 0.0, 1.0), _job("error", 1.0, 2.0)]
        plain, fast = run.summarize(jobs, 2.0), run.summarize(jobs, 2.0, [0.5, 0.5])
        self.assertEqual(fast["ok_jobs_per_s"], 2 * plain["ok_jobs_per_s"])
        self.assertEqual(fast["job_p50_ms"], 0.5 * plain["job_p50_ms"])
        self.assertEqual(fast["fail_frac"], plain["fail_frac"])
        mixed = run.summarize(jobs, 2.0, [0.5, 1.5])
        self.assertEqual(mixed["job_p50_ms"], 500.0)
        self.assertEqual(mixed["ok_jobs_per_s"], 0.5)

    def test_job_scales_use_the_probes_around_each_job(self):
        ref = run.REFERENCE_S[WORKLOADS["oracle"].probe]
        probes = [(0.5 * t, ref * (1.0 if t < 40 else 2.0)) for t in range(80)]
        jobs = [_job("ok", 3.0, 3.1), _job("ok", 35.0, 35.1), _job("ok", 18.5, 19.0),
                _job("ok", 19.0, 20.5)]
        child = {"workload": "oracle", "probes": probes, "jobs": jobs}
        scales = [round(s, 12) for s in run.job_scales(child)]
        self.assertEqual(scales, [1.0, 0.5, 1.0, round(1.0 / 1.5, 12)])
        sparse = dict(child, probes=probes[::20], jobs=jobs[:2])
        self.assertEqual(run.job_scales(sparse), [1.0, 0.5])

    def test_declared_errors_stay_correct_wrong_answers_do_not(self):
        self.assertTrue(run.is_correct([_job("ok", 0, 1), _job("error", 1, 2)]))
        self.assertFalse(run.is_correct([_job("ok", 0, 1), _job("wrong", 1, 2)]))
        self.assertFalse(run.is_correct([_job("crash", 0, 1)]))

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertAlmostEqual(run.percentile(list(range(11)), 90), 9.0)
        self.assertEqual(run.percentile([], 90), 0.0)


class KnownDefects(unittest.TestCase):
    def test_defect_inputs_stay_out_of_the_rounds(self):
        for name, w in WORKLOADS.items():
            pinned = {job.label for job in w.defects}
            self.assertTrue(pinned, name)
            for seed in (1, 2):
                labels = {job.label for r in range(3) for job in w.rounds(seed, r)}
                self.assertFalse(labels & pinned, name)

    def test_seeded_envelope_points_round_trip(self):
        self.assertTrue(all(not workloads.round_trips(d, x)
                            for d, x in workloads.GAP_EDGE_ROUNDING))
        points = [job.params for seed in (1, 2, 3) for r in range(200)
                  for job in workloads.envelope_round(seed, r) if job.kind == "upper"]
        self.assertEqual(len(points), 3 * 200 * 3)
        for p in points:
            self.assertTrue(workloads.round_trips(p["delta"], p["x"]), p)
            self.assertTrue(-1.0 < p["x"] <= 0.0, p)

    def test_defect_lines_say_reproduced_or_fixed(self):
        lines = run.defect_lines([dict(_job("error", 0, 1), reason="exit 3: cycling"),
                                  _job("ok", 1, 2)])
        self.assertEqual(lines, ["# known defect j: reproduced, error: exit 3: cycling",
                                 "# known defect j: fixed, output checks out"])


def _span(name, start, end, parent=None):
    return [name, start, end, parent, "job", {}, False]


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [_span("a", 0, 100), _span("b", 10, 30, 0), _span("c", 40, 90, 0),
                 _span("d", 50, 60, 2)]
        self.assertEqual(tracing.self_times(spans), [30, 20, 40, 10])

    def test_overlapping_children_count_once(self):
        spans = [_span("a", 0, 100), _span("b", 10, 50, 0), _span("c", 40, 70, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 40)

    def test_layer_self_time_telescopes(self):
        spans = [_span("cli.main", 0, 100), _span("extremal.solve", 10, 90, 0),
                 _span("extremal.ext", 60, 80, 1)]
        spans[1][5] = {"n": 12, "warm": False}
        m = tracing.layer_metrics(spans)
        self.assertAlmostEqual(m["cli.self_s"], 20e-9)
        self.assertAlmostEqual(m["extremal.self_s"], 80e-9)
        self.assertAlmostEqual(m["extremal.cold.ms_p50.n12"], 60e-6)

    def test_wrapper_records_nesting_and_counts(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("green.quad", lambda f, lo, hi: f([lo, hi]) + f([0.0]),
                            counted=True)
        outer = tracer.wrap("green.g", lambda a, d: inner(lambda x: len(x), a, d))
        self.assertEqual(outer(0.1, 0.2), 3)
        (g, quad) = tracer.spans
        self.assertEqual(quad[tracing.PARENT], 0)
        self.assertEqual(quad[tracing.ATTRS]["evals"], 3)
        self.assertIsNone(g[tracing.PARENT])


class References(unittest.TestCase):
    def test_midpoint_green_matches_closed_form(self):
        for d in (0.2, 0.4, 0.6):
            self.assertAlmostEqual(reference.green_gap(0.0, d, 0.0),
                                   reference.green_symmetric(d), places=12)

    def test_single_interval_check_accepts_chebyshev(self):
        n, x0 = 6, -1.0
        t = [0.4 + 0.6 * math.cos(math.pi * k / n) for k in range(n + 1)]
        s = [(-1) ** k for k in range(n + 1)]
        value = math.exp(reference.log_cheb_t(n, 1.4 / 0.6))
        out = {"value": value, "active_points": t, "active_signs": s}
        params = {"n": n, "x0": x0, "set": ((-0.2, 1.0),)}
        self.assertIsNone(reference.check_extremal(params, out))
        self.assertIsNotNone(reference.check_extremal(params, dict(out, value=value * 1.01)))


if __name__ == "__main__":
    unittest.main()
