"""Seeded job streams for the three benchmark workloads.

A workload is an endless sequence of rounds; round r is a fixed list of jobs
drawn from numpy's generator seeded with (seed, workload, r), so one seed
always yields the same inputs.  A timed run executes whole rounds, which keeps
the job mix of a run independent of where the clock stops.  A traced run
executes the first `trace_rounds` rounds, so its counts repeat exactly.

No job of a round is expected to fail.  The inputs that trigger the known
defects are pinned instead in each workload's `defects` list, which every
run executes once after its timed loop, whatever the seed, and reports
apart from the timed jobs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ENVELOPE_DELTAS = (0.2, 0.3, 0.4)

# Diagram-grid abscissae np.linspace(-1, 0, 99)[k] at which upper_envelope
# raises "x outside the closed gap": the bracket ends x -+ delta of the
# interior maximization do not round-trip back to x.
GAP_EDGE_ROUNDING = (
    (0.2, -0.9897959183673469),
    (0.2, -0.8775510204081632),
    (0.2, -0.7346938775510204),
    (0.2, -0.4897959183673469),
    (0.3, -0.37755102040816335),
    (0.3, -0.26530612244897966),
)

# Interval sets every oracle round solves: the two one-gap sets of the
# n-extension defect D1, the single-interval set whose value is the Remez
# constant, and three more.  Seeded sets are solved at n = 12 only: at n = 50
# about 1 in 20 of them cycles out of the simplex (defect D2) after several
# seconds, and at n = 100 2 of 40 did after about 15 s.
PINNED_SETS = (
    ("E(-0.3,0.4)", ((-1.0, -0.7), (0.1, 1.0)), -0.3),
    ("E(-0.1,0.4)", ((-1.0, -0.5), (0.3, 1.0)), -0.2),
    ("remez(0.4)", ((-0.2, 1.0),), -1.0),
    ("two-gap(0.3)", ((-1.0, -0.55), (-0.25, 0.25), (0.55, 1.0)), -0.4),
    ("E(-0.5,0.3)", ((-1.0, -0.8), (-0.2, 1.0)), -0.5),
    ("four-gap(0.4)", ((-1.0, -0.8), (-0.6, -0.4), (-0.2, 0.2), (0.4, 0.6), (0.8, 1.0)), -0.7),
)

# (set, n) pairs of PINNED_SETS on which the n-extension fails (D1); the
# oracle rounds run the extension on the others.
EXTENSION_FAILS = {
    ("E(-0.3,0.4)", 50), ("E(-0.1,0.4)", 50), ("E(-0.5,0.3)", 50),
    ("remez(0.4)", 12), ("remez(0.4)", 50),
}

SWEEP_DELTA = 0.4

# Random sets per brute-force verify (the CLI default is 200).  The suite's
# cost grows with the sets and depends on the seed.  On a 2-vCPU Xeon virtual
# machine it took 3.2-3.7 s with 200 sets, more than L_24 (2.6 s), so that
# the sweep's job_p90_ms fell on it; with 20 it took 1.0-1.15 s, as long as
# an L_12 job.  job_p90_ms then falls on L_24, and job_p50_ms among the L_12
# jobs and the suite.
BRUTE_FORCE_TRIALS = 20

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Job:
    kind: str                       # selects the call and the output check
    label: str                      # stable name for reports
    params: dict = field(default_factory=dict)
    argv: tuple | None = None       # CLI arguments, None for library calls


def _rng(seed, stream, r):
    return np.random.default_rng([seed, stream, r])


def _f(x):
    return repr(float(x))


# ----------------------------------------------------------------------
# envelope
# ----------------------------------------------------------------------


def green_job(alpha, delta, x):
    return Job(
        "green", f"green({_f(alpha)},{_f(delta)},{_f(x)})",
        {"alpha": float(alpha), "delta": float(delta), "x": float(x)},
        ("green", f"--alpha={_f(alpha)}", f"--delta={_f(delta)}", f"--x={_f(x)}"),
    )


def upper_job(delta, x):
    return Job("upper", f"upper({delta},{_f(x)})", {"delta": delta, "x": float(x)})


def round_trips(delta, x):
    """True when x - delta + delta and x + delta - delta both give x back.

    upper_envelope raises "x outside the closed gap" at exactly the x where
    this fails and a bracket end x -+ delta is used (the GAP_EDGE_ROUNDING
    defect).
    """
    return (x - delta) + delta >= x and (x + delta) - delta <= x


def seeded_point(delta, x):
    """x, or the next float towards 0 when x does not round-trip; one step
    is always enough (checked over 1e5 draws)."""
    while not round_trips(delta, x):
        x = math.nextafter(x, 0.0)
    return x


def envelope_round(seed, r):
    """x_* and x_s per delta, then envelope points and Green bundles.

    The envelope points of a delta follow a golden-ratio sequence with a
    seeded offset, so any run covers (-1, 0] evenly; a point that would hit
    the gap-edge rounding defect moves one float towards 0 (see
    seeded_point); the workload's pinned `defects` show that defect instead.
    One Green bundle per round lands at a fresh (alpha, delta, x).
    """
    jobs = []
    if r == 0:
        for d in ENVELOPE_DELTAS:
            jobs.append(Job("x_star", f"x_star({d})", {"delta": d}))
            jobs.append(Job("switch", f"switch({d})", {"delta": d}))
        jobs += [green_job(0.0, d, 0.0) for d in (0.2, 0.4)]
    offsets = _rng(seed, 1, 0).uniform(0.0, 1.0, len(ENVELOPE_DELTAS))
    for d, u0 in zip(ENVELOPE_DELTAS, offsets):
        jobs.append(upper_job(d, seeded_point(d, -((u0 + r * _GOLDEN) % 1.0))))
    rng = _rng(seed, 1, r + 1)
    delta = rng.uniform(0.15, 0.6)
    alpha = rng.uniform(delta - 0.95, 0.0)
    jobs.append(green_job(alpha, delta, alpha + delta * rng.uniform(-0.98, 0.98)))
    return jobs


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def random_gap_set(rng, gaps):
    """Subset of [-1, 1] with `gaps` gaps of total length 2*delta.

    Interval and gap lengths are floored Dirichlet splits, so no piece is
    shorter than a fifth of its even share; x0 falls in the middle 80% of
    a random gap.
    """
    delta = float(rng.uniform(0.2, 0.45))
    pieces = (2.0 - 2.0 * delta) * (0.2 / (gaps + 1)
                                    + 0.8 * rng.dirichlet(np.full(gaps + 1, 2.0)))
    holes = 2.0 * delta * (0.2 / gaps + 0.8 * rng.dirichlet(np.full(gaps, 2.0)))
    intervals = []
    lo = -1.0
    for i in range(gaps + 1):
        hi = 1.0 if i == gaps else float(lo + pieces[i])
        intervals.append((lo, hi))
        if i < gaps:
            lo = float(hi + holes[i])
    j = int(rng.integers(gaps))
    a, b = intervals[j][1], intervals[j + 1][0]
    x0 = float(a + (b - a) * rng.uniform(0.1, 0.9))
    return tuple(intervals), x0


def extremal_job(name, intervals, x0, n, extension):
    argv = ["extremal", f"--set={json.dumps([list(iv) for iv in intervals])}",
            f"--x0={_f(x0)}", f"--n={n}"]
    if not extension:
        argv.append("--no-extension")
    tag = "ext" if extension else "noext"
    return Job(
        "extremal", f"extremal({name},n={n},{tag})",
        {"set": intervals, "x0": x0, "n": n, "extension": extension},
        tuple(argv),
    )


def oracle_round(seed, r):
    """Cold LP solves at n = 12, 50 and 100 on pinned and seeded sets.

    Every pinned set is solved without the extension at n = 12, 50 and 100,
    and with it wherever it does not fail; five seeded sets, the first with
    one gap (checked against Bernstein-Walsh), the others with two to four,
    are solved at n = 12 with and without it.  That is 35 jobs a round: the
    job median falls among the n = 12 solves with the extension, and the
    90th percentile, 3.5 jobs a round from the top, in the middle of the
    n = 100 solves of one set (two-gap(0.3), the fourth slowest), so
    neither sits on the edge between two sets of different cost.
    """
    rng = _rng(seed, 2, r)
    seeded = [(f"rand{r}.1", *random_gap_set(rng, 1))]
    for i in range(2, 6):
        seeded.append((f"rand{r}.{i}", *random_gap_set(rng, int(rng.integers(2, 5)))))
    jobs = []
    for name, ivs, x0 in PINNED_SETS:
        for n in (12, 50, 100):
            jobs.append(extremal_job(name, ivs, x0, n, False))
        jobs += [extremal_job(name, ivs, x0, n, True) for n in (12, 50)
                 if (name, n) not in EXTENSION_FAILS]
    for name, ivs, x0 in seeded:
        jobs += [extremal_job(name, ivs, x0, 12, ext) for ext in (False, True)]
    return jobs


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def andrievskii_job(x0, n):
    return Job(
        "andrievskii", f"andrievskii(x0={_f(x0)},n={n})",
        {"x0": float(x0), "delta": SWEEP_DELTA, "n": n},
        ("andrievskii", f"--x0={_f(x0)}", f"--delta={SWEEP_DELTA}", f"--n={n}"),
    )


def sweep_round(seed, r):
    """L_n(x0, 0.4) sweeps plus the brute-force and closed-form suites.

    x0 = -0.7 is boundary dominated; the seeded x0 lies right of
    -1+2*delta, where only one-gap configurations compete.  n = 36 at
    x0 = -0.1, the simplex-cycling defect, is in sweep_defects.
    """
    rng = _rng(seed, 3, r)
    x0 = float(rng.uniform(-0.19, -0.01))
    suite_seed = int(rng.integers(1, 2**31 - 1))
    return [
        andrievskii_job(-0.1, 12),
        andrievskii_job(-0.1, 24),
        andrievskii_job(-0.7, 12),
        andrievskii_job(x0, 12),
        Job("verify", f"verify(brute-force,seed={suite_seed})", {},
            ("verify", "--suite=brute-force", "--n=6", f"--trials={BRUTE_FORCE_TRIALS}",
             f"--seed={suite_seed}")),
        Job("verify", "verify(closed-forms)", {}, ("verify", "--suite=closed-forms")),
    ]


# ----------------------------------------------------------------------
# known defects: pinned inputs that fail on this version of chebgap
# ----------------------------------------------------------------------

# A seeded set (seed 205 of an earlier oracle mix) on which solve_extremal at
# n = 50 returns a P with |P| up to 1 + 6.3e-6 on E, though feas_tol
# promises 1 + 1e-9.
LOOSE_FEASIBILITY = (
    "rand205", ((-1.0, -0.721244534446349), (-0.6055333608644459, -0.35573206407362123),
                (-0.2516300376828912, 0.5521556746812406), (0.8363519060278394, 1.0)),
    -0.6810723933289962,
)


@dataclass(frozen=True)
class Workload:
    rounds: object                  # (seed, r) -> list[Job]
    trace_rounds: int
    probe: str                      # reference kernel of probe.py like its hot path
    defects: tuple                  # known-defect jobs, run once after the timed loop


WORKLOADS = {
    "envelope": Workload(envelope_round, 121, "small",
                         tuple(upper_job(d, x) for d, x in GAP_EDGE_ROUNDING)),
    "oracle": Workload(oracle_round, 1, "large",
                       tuple(extremal_job(name, ivs, x0, n, True)
                             for name, ivs, x0 in PINNED_SETS for n in (12, 50)
                             if (name, n) in EXTENSION_FAILS)
                       + (extremal_job(*LOOSE_FEASIBILITY, 50, False),)),
    "sweep": Workload(sweep_round, 1, "small", (andrievskii_job(-0.1, 36),)),
}
