"""chebgap benchmark: entry point.

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the checkout is the directory above this file and chebgap
is imported from its src/.  Each run starts a fresh single-threaded child
(child.py) so chebgap's caches start cold.  With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced child, plus the tracing overhead measured
against an untraced child over the same jobs.  After its timed loop, the
untraced child runs the workload's pinned known-defect jobs once; they are
reported on `# known defect` lines and in the per-layer metric
defects.reproduced, and never count in `attempted` or `failed`.  Job and
set-up times in the end-to-end metrics are scaled to the reference speed of
the gauges in probe.py; the unscaled wall-clock figures are printed and
stored beside them.
Metric names and units come from BENCHMARK.json.  `--workload all` runs
every workload and prints a table instead.  Raw records and spans go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from probe import REFERENCE_S, REFERENCE_START_S, START_CODE  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PAIRS = 10
PROBE_WINDOW_S = 2.0
PROBE_MIN = 3
RUN_LIMIT_S = 170.0
_SETUP_CODE = "import chebgap, time; print(repr(time.monotonic()))"
_NUMBER = re.compile(r"-?\d+(\.\d+)?(e-?\d+)?")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def machine_info():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def metric_units(group):
    """{name: unit} of the "end_to_end" or "per_layer" metrics of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def start_seconds(code):
    """Time from interpreter start to the end of `code`, which prints the clock."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - t0


def setup_seconds(pairs):
    """Set-up time at the reference speed, and its raw median.

    Each pair times one fresh interpreter that imports chebgap and one that
    runs the frozen START_CODE of probe.py, in alternating order, after one
    unmeasured start that warms the byte code and the file cache as a repeat
    CLI user finds them.  The scaled figure is REFERENCE_START_S times the
    median ratio of the two, so a slow stretch of the machine, which slows
    both alike, cancels out.
    """
    start_seconds(_SETUP_CODE)
    raw, ratios = [], []
    for i in range(pairs):
        if i % 2:
            setup = start_seconds(_SETUP_CODE)
            gauge = start_seconds(START_CODE)
        else:
            gauge = start_seconds(START_CODE)
            setup = start_seconds(_SETUP_CODE)
        raw.append(setup)
        ratios.append(setup / gauge)
    return REFERENCE_START_S * statistics.median(ratios), statistics.median(raw)


def run_child(workload, seed, seconds, trace, rounds, deadline):
    """Run one child; the untraced one also runs the known-defect jobs."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}-r{rounds or 0}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--defects", str(1 - trace), "--out", str(out)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def job_scales(child):
    """Speed scale of each job of a child: the reference kernel time over the
    median kernel time of the probes taken from PROBE_WINDOW_S before the job
    to PROBE_WINDOW_S after it, or of the PROBE_MIN probes nearest to it when
    fewer fall there.

    The machine's speed drifts within one run, so a window of a few seconds
    tracks it better than one scale for the whole run.
    """
    reference = REFERENCE_S[WORKLOADS[child["workload"]].probe]
    times = [t for t, _ in child["probes"]]
    secs = [s for _, s in child["probes"]]
    k = min(PROBE_MIN, len(secs))
    scales = []
    for j in child["jobs"]:
        lo = bisect.bisect_left(times, j["t0"] - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, j["t1"] + PROBE_WINDOW_S)
        if hi - lo < k:
            i = bisect.bisect(times, 0.5 * (j["t0"] + j["t1"]))
            lo = min(max(0, i - k // 2), len(secs) - k)
            hi = lo + k
        scales.append(reference / statistics.median(secs[lo:hi]))
    return scales


def summarize(jobs, elapsed_s, scales=None):
    """End-to-end figures of one child's job records.

    A failed or wrong job spends its time and adds no work; latencies are
    over the successful jobs only.  Job i's time is multiplied by
    scales[i], and the elapsed time by the time-weighted mean scale.
    """
    if scales is None:
        scales = [1.0] * len(jobs)
    spans = [j["t1"] - j["t0"] for j in jobs]
    busy = sum(spans)
    mean_scale = sum(d * s for d, s in zip(spans, scales)) / busy if busy else 1.0
    ok_ms = [d * s * 1e3 for j, d, s in zip(jobs, spans, scales) if j["outcome"] == "ok"]
    attempted = len(jobs)
    failed = attempted - len(ok_ms)
    return {
        "attempted": attempted,
        "failed": failed,
        "ok_jobs_per_s": len(ok_ms) / (elapsed_s * mean_scale),
        "job_p50_ms": percentile(ok_ms, 50),
        "job_p90_ms": percentile(ok_ms, 90),
        "fail_frac": failed / attempted if attempted else 1.0,
        "ok_samples": len(ok_ms),
        "mean_scale": mean_scale,
    }


def is_correct(jobs):
    """True unless some job gave a wrong answer or broke the harness.

    Declared failures (chebgap raising its own errors, CLI exit 2 or 3)
    count in `failed` but are honest answers, not wrong ones.
    """
    return not any(j["outcome"] in ("wrong", "crash") for j in jobs)


def failure_lines(jobs):
    """One line per kind of failure, numbers masked so that alike ones merge."""
    seen = {}
    for j in jobs:
        if j["outcome"] != "ok":
            reason = _NUMBER.sub("#", j["reason"] or "")[:100]
            key = (j["outcome"], j["kind"], reason)
            seen[key] = seen.get(key, 0) + 1
    return [f"# {n} x {o} {k}: {r}" for (o, k, r), n in seen.items()]


def defect_lines(defects):
    """One line per pinned known-defect job: still failing, or fixed."""
    return [f"# known defect {d['label']}: "
            + (f"reproduced, {d['outcome']}: {(d['reason'] or '')[:100]}"
               if d["outcome"] != "ok" else "fixed, output checks out")
            for d in defects]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    info = machine_info()
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds} trace={trace} "
          + " ".join(f"{k}={v!r}" for k, v in info.items()))
    setup_raw = None
    if trace:
        rounds = WORKLOADS[workload].trace_rounds
        plain = run_child(workload, seed, seconds, 0, rounds, deadline)
        traced = run_child(workload, seed, seconds, 1, rounds, deadline)
        base = summarize(plain["jobs"], plain["elapsed_s"], job_scales(plain))
        tr = summarize(traced["jobs"], traced["elapsed_s"], job_scales(traced))
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            base["ok_jobs_per_s"] - tr["ok_jobs_per_s"]) / base["ok_jobs_per_s"]
        defects = plain["defects"]
        layers["defects.reproduced"] = sum(d["outcome"] != "ok" for d in defects)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in metric_units("per_layer").items()}
        jobs, summary, raw = traced["jobs"], tr, traced
        correct = is_correct(plain["jobs"]) and is_correct(traced["jobs"])
    else:
        setup, setup_raw = setup_seconds(SETUP_PAIRS)
        print(f"# setup_s={setup:.6g} (median of {SETUP_PAIRS} ratios to the start gauge, "
              f"reference {REFERENCE_START_S} s); unscaled median {setup_raw:.6g} s")
        raw = run_child(workload, seed, seconds, 0, None, deadline)
        jobs, defects = raw["jobs"], raw["defects"]
        summary = summarize(jobs, raw["elapsed_s"], job_scales(raw))
        values = dict(summary, setup_s=setup, peak_rss_mb=raw["peak_rss_mb"])
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("end_to_end").items()}
        correct = is_correct(jobs)
    wall = summarize(jobs, raw["elapsed_s"])
    kind = WORKLOADS[workload].probe
    probe_ms = statistics.median(s for _, s in raw["probes"]) * 1e3
    print(f"# speed_scale={summary['mean_scale']:.4f} ({kind} reference kernel "
          f"{REFERENCE_S[kind] * 1e3} ms, median {probe_ms:.4f} ms over "
          f"{len(raw['probes'])} probes); unscaled wall clock: "
          + " ".join(f"{k}={wall[k]:.6g}" for k in ("ok_jobs_per_s", "job_p50_ms", "job_p90_ms")))
    print(f"# rounds={raw['rounds']} elapsed_s={raw['elapsed_s']:.3f} "
          f"attempted={summary['attempted']} ok={summary['ok_samples']} "
          f"failed={summary['failed']} fail_frac={summary['fail_frac']:.4f} "
          f"correct={correct}")
    for line in failure_lines(jobs) + defect_lines(defects):
        print(line)
    result = {"correct": correct, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  machine=info, fail_frac=summary["fail_frac"], rounds=raw["rounds"],
                  speed_scale=summary["mean_scale"], wall_clock=wall,
                  setup_unscaled_s=setup_raw, known_defects=defects)
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def report(seed, seconds):
    """Every end-to-end metric of every workload, with units and checks."""
    rows = {name: run_workload(name, seed, seconds, 0) for name in WORKLOADS}
    print(f"{'workload':<10} {'metric':<14} {'value':>14}  unit")
    for name, res in rows.items():
        for key, m in res["metrics"].items():
            print(f"{name:<10} {key:<14} {m['value']:>14.6g}  {m['unit']}")
        frac = res["failed"] / res["attempted"]
        print(f"{name:<10} {'fail_frac':<14} {frac:>14.6g}  frac "
              f"({res['failed']}/{res['attempted']}, outputs correct: {res['correct']})")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chebgap" / "__init__.py").is_file():
        print(f"perfbench: no chebgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return report(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
