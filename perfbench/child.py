"""One benchmark run in a fresh process: import chebgap, run jobs, check them.

Started by run.py; not meant to be called by hand.  The process starts cold,
so chebgap's lru_cache cores are empty as they are for a CLI user.  Jobs run
back to back (a closed loop with one client); whole rounds run, stopping at
the round boundary nearest to `--seconds`, or exactly `--rounds` rounds
when given.  Between jobs, at most every PROBE_EVERY_S, the workload's
reference kernel from probe.py is timed and recorded with its start time;
the probing is left out of the loop's elapsed time.  The output checks run
after the timed loop and are not part of any timing.  With `--defects 1`
the workload's pinned known-defect jobs then run once each, are checked the
same way and are recorded apart from the timed jobs.  The raw record is
written as JSON to `--out`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import reference
import tracing
from probe import PROBE_EVERY_S, speed_probe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _library_calls(chebgap):
    env = chebgap.envelope

    def upper(p):
        pt = env.upper_envelope(p["delta"], p["x"])
        return {"phi": pt.phi, "source": pt.source, "alpha": pt.alpha}

    return {
        "x_star": lambda p: env.x_star(p["delta"]),
        "switch": lambda p: env.switching_point(p["delta"]),
        "upper": upper,
    }


def _check(job, out, results):
    p = job.params
    if job.kind == "green":
        return reference.check_green_bundle(p, out)
    if job.kind == "x_star":
        return reference.check_x_star(p, out)
    if job.kind == "switch":
        return reference.check_switch(p, out, results.get(f"x_star({p['delta']})"))
    if job.kind == "upper":
        return reference.check_envelope_point(p, out)
    if job.kind == "extremal":
        return reference.check_extremal(p, out)
    if job.kind == "andrievskii":
        return reference.check_andrievskii(p, out)
    if job.kind == "verify":
        return reference.check_verify(p, out)
    raise ValueError(f"no check for job kind {job.kind!r}")


def run_job(job, chebgap, calls, tracer):
    """Run one job; returns (record, raw output or None)."""
    declared = (chebgap.DomainError, chebgap.SolverError,
                chebgap.QuadratureError, chebgap.ConsistencyError)
    out = None
    outcome, reason = "ok", None
    sid = None
    if tracer is not None:
        tracer.job = job.label
        sid = tracer.open("job", {"kind": job.kind})
    t0 = time.perf_counter()
    try:
        if job.argv is None:
            out = calls[job.kind](job.params)
        else:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = chebgap.cli.main(list(job.argv))
            out = stdout.getvalue()
            if rc in (2, 3):
                outcome, reason = "error", f"exit {rc}: {stderr.getvalue().strip()}"
            elif rc == 4:
                outcome, reason = "wrong", f"exit 4: {out.strip()}"
            elif rc != 0:
                outcome, reason = "crash", f"exit {rc}: {stderr.getvalue().strip()}"
    except declared as exc:
        outcome, reason = "error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # an API the benchmark no longer matches
        outcome, reason = "crash", f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close(sid, failed=outcome != "ok")
        tracer.job = None
    record = {"label": job.label, "kind": job.kind, "t0": t0, "t1": t1,
              "outcome": outcome, "reason": reason}
    return record, out


def check_job(job, record, out, results):
    """Check a job that ran without failing; marks its record "wrong" when
    the output fails the check, else keeps the output in `results`."""
    if record["outcome"] != "ok":
        return
    try:
        if job.argv is not None and job.kind != "verify":
            out = json.loads(out)
        reason = _check(job, out, results)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None:
        results[job.label] = out
    else:
        record["outcome"], record["reason"] = "wrong", reason


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--defects", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.defects and args.trace:
        ap.error("--defects runs only in an untraced child")

    import chebgap
    import chebgap.cli  # noqa: F401  (the CLI module is not imported by chebgap)
    src = (ROOT / "src").resolve()
    if Path(chebgap.__file__).resolve().parent.parent != src:
        print(f"chebgap imported from {chebgap.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload]
    calls = _library_calls(chebgap)

    records, outputs, jobs, probes = [], [], [], []
    last_probe = -PROBE_EVERY_S
    probing_s = 0.0
    start = time.perf_counter()
    r = 0
    while True:
        if args.rounds is not None:
            if r >= args.rounds:
                break
        elif r > 0:
            # Stop at the round boundary nearest to --seconds.
            spent = time.perf_counter() - start
            if spent + 0.5 * spent / r > args.seconds:
                break
        for job in workload.rounds(args.seed, r):
            now = time.perf_counter()
            if now - last_probe >= PROBE_EVERY_S:
                probes.append((now, speed_probe(workload.probe)))
                last_probe = time.perf_counter()
                probing_s += last_probe - now
            record, out = run_job(job, chebgap, calls, tracer)
            records.append(record)
            outputs.append(out)
            jobs.append(job)
        r += 1
    elapsed = time.perf_counter() - start - probing_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the timed loop.
    results = {}
    for job, record, out in zip(jobs, records, outputs):
        check_job(job, record, out, results)

    defects = []
    if args.defects:
        for job in workload.defects:
            record, out = run_job(job, chebgap, calls, None)
            check_job(job, record, out, {})
            defects.append(record)

    payload = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": r, "elapsed_s": elapsed,
        "peak_rss_mb": peak_rss_mb, "jobs": records, "probes": probes,
        "defects": defects,
        "chebgap_file": str(Path(chebgap.__file__).relative_to(ROOT)),
    }
    if tracer is not None:
        payload["layers"] = tracing.layer_metrics(tracer.spans)
        spans_path = Path(args.out).with_suffix(".spans.jsonl")
        tracer.dump(spans_path)
        payload["spans_file"] = str(spans_path.relative_to(ROOT))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
