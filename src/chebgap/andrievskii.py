"""The extremal-over-configurations layer.

For a point x0 in (-1, 0] and half-gap delta, the quantity of interest is

    L_n(x0, delta) = sup over admissible E of M_n(x0, E),  |E| = 2 - 2*delta,

and by the structure theory the supremum is attained either by the
single-interval (Remez) configuration [-1+2*delta, 1], whose value has the
closed form T_n((delta - x0)/(1 - delta)), or by a one-gap (Akhiezer)
configuration E(alpha, delta) with x0 inside the gap, found here by a
coarse alpha scan plus a bracket search on dM_n/dalpha, which each LP
oracle solve gives for free through its dual weights.  The Bernstein-Walsh
bound M_n(x0, E) <= exp(n g_E(x0)) skips the scan where Remez beats it on
every Akhiezer value.  Otherwise the scan is best-first (`_best_first`):
each sample is keyed by an upper bound on log M_n, Bernstein-Walsh until
its LP start takes over with the interpolation bound of its basis (see
`extremal`), and only the top one is refined, so the samples that cannot
win are dropped with no simplex run.

Two experiment drivers sit on top: residual series log(2 L_n) - n Phi(x0)
against the envelope growth rate (vanishing for boundary points, merely
bounded for interior ones), and a seeded brute-force search for random
multi-gap sets that would beat the best structured configuration (the
structure theorem predicts none), whose trials go through the same
best-first loop, which drops the sets that can neither set a new maximum
nor violate.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _stats
from .chebyshev import remez_poly_value
from .envelope import _interior_max, upper_envelope
from .errors import DomainError
from .extremal import _ExchangeLP, _finish, solve_extremal
from .green import c_rows, g_rows, green_single_interval
from .intervals import CompactSet, GapParams, make_gap_set, random_multigap_set

BEST_REMEZ = "remez"
BEST_AKHIEZER = "akhiezer"

_ALPHA_COARSE = 33        # coarse scan points over admissible alpha
_ALPHA_TOL = 1e-9         # final bracket width in alpha
_GAP_MARGIN = 1e-9        # keep x0 strictly inside candidate gaps
_BOUNDARY_CLIP = 1e-4     # keep alpha away from delta-1 (dominated there)
_VALUE_TOL = 1e-9         # relative accuracy of the oracle values
_PRUNE_MARGIN = 1e-6      # Remez must beat the Akhiezer bound by this factor


@dataclass(frozen=True)
class AndrievskiiResult:
    value: float
    best: str                       # remez | akhiezer
    best_alpha: float | None
    # dM_n/dalpha at the Akhiezer maximum: the two one-sided slopes (+, -)
    # of the final bracket, or the one outward slope of an end maximum;
    # empty when Remez wins
    dvalue_dalpha: tuple[float, ...]
    remez_value: float | None
    akhiezer_profile: tuple[tuple[float, float], ...]   # (alpha, M_n) samples
    near_ties: tuple[float, ...]    # alphas within 10*_VALUE_TOL of the winner

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "best": self.best,
                "best_alpha": self.best_alpha,
                "dvalue_dalpha": list(self.dvalue_dalpha),
                "remez_value": self.remez_value,
                "akhiezer_profile": [list(p) for p in self.akhiezer_profile],
                "near_ties": list(self.near_ties),
            }
        )


@dataclass(frozen=True)
class ResidualSeries:
    delta: float
    x0: float
    phi: float                      # envelope growth rate at x0
    entries: tuple[tuple[int, float, float], ...]   # (n, L_n, residual)

    def to_csv(self) -> str:
        lines = ["n,L_n,log2Ln,n_phi,residual"]
        for n, ln, r in self.entries:
            log2ln = math.log(2.0 * ln) if ln > 0 and math.isfinite(ln) else math.nan
            lines.append(
                f"{n},{ln:.12g},{log2ln:.12g},{n * self.phi:.12g},{r:.12g}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta,
                "x0": self.x0,
                "phi": self.phi,
                "entries": [
                    {"n": n, "L_n": ln, "residual": r} for n, ln, r in self.entries
                ],
            }
        )


@dataclass(frozen=True)
class BruteForceReport:
    delta: float
    x0: float
    n: int
    trials: int
    seed: int
    reference_value: float
    max_ratio: float
    violations: tuple[dict, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta,
                "x0": self.x0,
                "n": self.n,
                "trials": self.trials,
                "seed": self.seed,
                "reference_value": self.reference_value,
                "max_ratio": self.max_ratio,
                "violations": list(self.violations),
            }
        )


def _check_point(x0, delta):
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not (-1.0 <= x0 <= 0.0):
        raise DomainError(f"x0 must lie in [-1, 0], got {x0}")


def _branch_crossing(a, fa, ga, ca, b, fb, gb, cb):
    """Where the quadratic branch models of the two bracket ends cross.

    The model at a is fa + ga*(x-a) + ca*(x-a)**2/2, likewise at b.  Returns
    None when they do not cross inside (a, b); a crossing is kept
    _ALPHA_TOL/2 inside the bracket, so that a trial next to the kink falls
    across it and the bracket closes.
    """
    h = b - a
    # the difference of the models in t = x - a: q2 t^2 + q1 t + q0
    q2 = 0.5 * (ca - cb)
    q1 = ga - gb + cb * h
    q0 = fa - fb + gb * h - 0.5 * cb * h * h
    disc = q1 * q1 - 4.0 * q2 * q0
    if q1 <= 0.0 or disc < 0.0:
        return None
    t = -2.0 * q0 / (q1 + math.sqrt(disc))   # the root next to -q0/q1
    if not 0.0 < t < h:
        return None
    return a + min(max(t, 0.5 * _ALPHA_TOL), h - 0.5 * _ALPHA_TOL)


def _alpha_max(solve, alphas, vals, slopes):
    """Maximum over alpha from the scan samples and their slopes dM/dalpha.

    Returns (alpha, M, slopes certificate).  An end argmax whose slope
    points out of the range is taken as it is.  Otherwise the half-bracket
    beside the argmax on the side its slope points to is narrowed on the
    sign of dM/dalpha, + kept at the left end and - at the right, down to
    _ALPHA_TOL.  The maxima are kinks where two smooth branches cross, so
    the trial point is where the branch models of the two ends cross (see
    _branch_crossing), each end's curvature taken from the slopes at its
    last two positions (0 before it has moved).  It is the midpoint when
    the models do not cross inside the bracket or neither of the last two
    steps halved it.  The profile is not concave between samples, so the
    models bound nothing: only the bracket width stops the search.
    A range end can be a kink whose solve reports the inward slope; when
    the search closes on it, the other bracket end's slope is its certificate.
    """
    i = int(np.argmax(vals))
    last = len(alphas) - 1
    if (i == 0 and slopes[0] <= 0.0) or (i == last and slopes[last] >= 0.0):
        return alphas[i], vals[i], (slopes[i],)
    k = i if slopes[i] >= 0.0 and i < last else i - 1
    a, fa, ga = alphas[k], vals[k], slopes[k]
    b, fb, gb = alphas[k + 1], vals[k + 1], slopes[k + 1]
    ca = cb = 0.0
    best_alpha, best_val = alphas[i], vals[i]
    halved = (True, True)       # did the last step, and the one before, halve it
    while b - a > _ALPHA_TOL:
        x = None
        if halved[0] or halved[1]:
            x = _branch_crossing(a, fa, ga, ca, b, fb, gb, cb)
        if x is None:
            x = 0.5 * (a + b)
        fx, gx = solve(x)
        width = b - a
        if gx >= 0.0:
            a, fa, ga, ca = x, fx, gx, (gx - ga) / (x - a)
        else:
            b, fb, gb, cb = x, fx, gx, (gb - gx) / (b - x)
        halved = (b - a <= 0.5 * width, halved[0])
        if fx > best_val:
            best_alpha, best_val = x, fx
    if best_alpha == b == alphas[last]:
        return best_alpha, best_val, (ga,)
    if best_alpha == a == alphas[0]:
        return best_alpha, best_val, (gb,)
    return best_alpha, best_val, (ga, gb)


def _best_first(x0, n, sets, keys, cap=math.inf):
    """Finish, highest bound first, the sets whose M_n(x0, E) may exceed
    min(largest value finished, cap).

    keys[i] bounds log M_n(x0, sets[i]) before its LP start (inf for no
    bound).  Each pass refines the set on top of the queue: an unstarted
    one gets its quantile basis and a started one a Remez step, each
    re-keyed by its basis's bound log sum_i |l_i(x0)|; a converged one is
    finished (`extremal._finish`).  The loop stops once the top key +
    log1p(_PRUNE_MARGIN) is at most the log of that minimum, so no set left
    can reach it.  Returns {i: result} of the finished sets and {i: LP} of
    the started ones left.
    """
    heap = [(-key, i) for i, key in enumerate(keys)]
    heapq.heapify(heap)
    done, started = {}, {}
    log_top = -math.inf
    while heap and math.log1p(_PRUNE_MARGIN) - heap[0][0] > min(log_top, math.log(cap)):
        _, i = heapq.heappop(heap)
        lp = started.get(i)
        if lp is None:
            lp = started[i] = _ExchangeLP(sets[i], n, x0)
            lp._initial_basis()
        elif lp.converged:
            done[i] = _finish(started.pop(i), extension=False)
            log_top = max(log_top, math.log(done[i].value))
            continue
        else:
            lp.step()
        heapq.heappush(heap, (-lp.log_bound, i))
    return done, started


def L_n_delta(x0: float, delta: float, n: int) -> AndrievskiiResult:
    """Best value over the two structured configuration families.

    The Remez candidate is the closed form (present when x0 < -1+2*delta);
    Akhiezer candidates M_n(x0, E(alpha, delta)) are scanned on a coarse
    alpha grid over all gaps containing x0, and the best is refined on the
    sign of dM_n/dalpha, the sum of the dual sensitivities to the two gap
    ends (see _alpha_max), which the result reports as its certificate.
    By Bernstein-Walsh M_n(x0, E(alpha, delta)) <= exp(n G_alpha(x0)), so
    when Remez exceeds exp(n max_alpha G) (1 + _PRUNE_MARGIN) it wins with
    no LP solve, and `akhiezer_profile` is empty.  Otherwise the samples go
    through `_best_first`, keyed by n G_alpha(x0) until their LP starts
    bound M_n by sum_i |l_i(x0)|, until the best solved value beats every
    bound left by that factor.  The samples left out can neither win nor
    tie, so argmax and bracket are those of the full scan, and
    `akhiezer_profile` holds the solved samples (with the argmax's
    neighbour that starts the bracket, which finishes its start if it has
    one).
    """
    _check_point(x0, delta)
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")

    remez_val = None
    if x0 < -1.0 + 2.0 * delta:
        remez_val = remez_poly_value(n, delta, x0)

    # Near alpha = delta-1 the two-interval configuration degenerates and is
    # dominated by the closed-form boundary candidate, so the scan is
    # clipped a fixed distance away from that edge.
    lo = max(delta - 1.0 + _BOUNDARY_CLIP, x0 - delta + _GAP_MARGIN)
    hi = min(0.0, x0 + delta - _GAP_MARGIN)
    if remez_val is not None:
        top = _interior_max(delta, x0)  # max G over a range holding [lo, hi]
        if top and math.log(remez_val) >= n * top[1] + math.log1p(_PRUNE_MARGIN):
            hi = lo   # no Akhiezer value reaches Remez: skip the scan
    profile = []
    best_alpha = None
    best_val = -math.inf
    slopes = ()
    solves = pruned = 0
    if hi > lo:

        def slope(E, res):
            # dM_n/dalpha: the sensitivities to the two gap ends
            left, right = E.intervals
            return res.dvalue_dendpoint(left.hi) + res.dvalue_dendpoint(right.lo)

        def solve(alpha):
            nonlocal solves
            solves += 1
            E = make_gap_set(GapParams(alpha, delta))
            res = solve_extremal(E, x0, n, extension=False)
            return res.value, slope(E, res)

        alphas = np.linspace(lo, hi, _ALPHA_COARSE)
        bounds = n * g_rows(alphas, delta, x0, c_rows(alphas, delta))
        alphas = alphas.tolist()
        sets = [make_gap_set(GapParams(a, delta)) for a in alphas]
        done, rest = _best_first(x0, n, sets, bounds)
        i = int(np.argmax([done[j].value if j in done else -math.inf
                           for j in range(_ALPHA_COARSE)]))
        # the bracket end beside the argmax that _alpha_max starts from
        j = i + 1 if slope(sets[i], done[i]) >= 0.0 else i - 1
        if 0 <= j < _ALPHA_COARSE and j not in done:
            done[j] = _finish(rest.pop(j, None) or _ExchangeLP(sets[j], n, x0), False)
        for lp in rest.values():
            lp.count()
        vals, ders = zip(*[(done[j].value, slope(sets[j], done[j])) if j in done
                           else (-math.inf, math.nan) for j in range(_ALPHA_COARSE)])
        profile = [(alphas[j], done[j].value) for j in sorted(done)]
        solves = len(done)
        pruned = _ALPHA_COARSE - solves
        best_alpha, best_val, slopes = _alpha_max(solve, alphas, vals, ders)
    _stats.add({"Ln.calls": 1, "Ln.solves": solves, "Ln.pruned": pruned})

    if remez_val is None and best_alpha is None:
        raise DomainError(
            f"no admissible configuration for x0={x0}, delta={delta}"
        )

    tie_band = 10.0 * _VALUE_TOL * max(1.0, abs(best_val))
    near_ties = tuple(
        float(a) for a, v in profile if best_val - v <= tie_band and a != best_alpha
    )
    if remez_val is not None and remez_val >= best_val:
        return AndrievskiiResult(
            value=float(remez_val), best=BEST_REMEZ, best_alpha=None,
            dvalue_dalpha=(), remez_value=float(remez_val),
            akhiezer_profile=tuple(profile), near_ties=near_ties,
        )
    return AndrievskiiResult(
        value=float(best_val), best=BEST_AKHIEZER, best_alpha=float(best_alpha),
        dvalue_dalpha=tuple(float(g) for g in slopes),
        remez_value=None if remez_val is None else float(remez_val),
        akhiezer_profile=tuple(profile), near_ties=near_ties,
    )


def totik_widom_residuals(x0: float, delta: float, n_list,
                          method: str = "lp") -> ResidualSeries:
    """Residuals r_n = log(2 L_n) - n Phi(x0) along a degree list.

    method "lp" maximizes over configurations with the LP oracle and uses
    the envelope value for Phi.  method "remez" restricts to the boundary
    configuration in closed form: L_n = T_n((delta-x0)/(1-delta)) and
    Phi = arccosh of the same argument, with the residual computed as
    log1p(exp(-2n arccosh)) so that no precision is lost to cancellation;
    this is exact when the boundary branch is the extremal one.
    """
    _check_point(x0, delta)
    n_list = sorted(int(n) for n in n_list)
    if any(n < 0 for n in n_list):
        raise DomainError("degrees must be >= 0")

    if method == "remez":
        if not (x0 < -1.0 + 2.0 * delta):
            raise DomainError(
                f"closed-form residuals need x0 < -1+2*delta, got x0={x0}"
            )
        phi = green_single_interval(delta, x0)
        entries = []
        for n in n_list:
            ln = remez_poly_value(n, delta, x0)
            r = math.log1p(math.exp(-2.0 * n * phi)) if n > 0 else math.log(2.0)
            entries.append((n, float(ln), float(r)))
        return ResidualSeries(delta=delta, x0=x0, phi=phi, entries=tuple(entries))

    if method != "lp":
        raise DomainError(f"unknown residual method {method!r}")
    phi = upper_envelope(delta, x0).phi
    entries = []
    for n in n_list:
        ln = L_n_delta(x0, delta, n).value
        r = math.log(2.0 * ln) - n * phi
        entries.append((n, float(ln), float(r)))
    return ResidualSeries(delta=delta, x0=x0, phi=phi, entries=tuple(entries))


def residual_tail_slope(series: ResidualSeries, n_min: int) -> float:
    """Least-squares slope of r_n over entries with n >= n_min.

    The boundedness claim for interior-configuration points has no explicit
    constant, so a vanishing trend of the residuals over the top of the
    degree range is the falsifiable proxy used by the acceptance suite.
    """
    pts = [(n, r) for n, _, r in series.entries if n >= n_min]
    if len(pts) < 2:
        raise DomainError(f"need at least 2 entries with n >= {n_min}")
    ns = np.array([p[0] for p in pts], dtype=float)
    rs = np.array([p[1] for p in pts], dtype=float)
    return float(np.polyfit(ns, rs, 1)[0])


def brute_force_theorem1(x0: float, delta: float, n: int, trials: int,
                         seed: int) -> BruteForceReport:
    """Random multi-gap sets against the structured maximum.

    Draws `trials` seeded random sets with measure 2-2*delta and 1 to 4
    gaps, keeping only draws where x0 falls strictly inside a gap, and
    checks M_n(x0, E) <= L_n + 10*_VALUE_TOL.  Violations are collected and
    reported, never raised: they would indicate either solver inaccuracy or
    a counterexample to the structure theorem, and both deserve eyes.
    The trials go through `_best_first` with no bound before their LP
    starts, which leaves unsolved every set whose start bounds M_n by at
    most min(largest value, violation bound) / (1 + _PRUNE_MARGIN): it can
    change neither `max_ratio` nor the violations, which are listed in
    trial order.
    """
    _check_point(x0, delta)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    reference = L_n_delta(x0, delta, n).value
    bound = reference + 10.0 * _VALUE_TOL * max(1.0, reference)

    rng = np.random.default_rng(seed)
    draws = []      # (gap_count, sub_seed, E) of each trial
    attempts = 0
    while len(draws) < trials:
        attempts += 1
        if attempts > 1000 * trials:
            raise DomainError(
                f"could not draw {trials} sets containing x0={x0} in a gap"
            )
        gap_count = int(rng.integers(1, 5))
        sub_seed = int(rng.integers(0, 2**63 - 1))
        E = random_multigap_set(delta, gap_count, sub_seed)
        if any(lo + _GAP_MARGIN < x0 < hi - _GAP_MARGIN for lo, hi in E.gaps()):
            draws.append((gap_count, sub_seed, E))
    done, rest = _best_first(x0, n, [E for _, _, E in draws], [math.inf] * trials, bound)
    for lp in rest.values():
        lp.count()
    top = max(res.value for res in done.values())
    violations = [
        {
            "trial": i + 1,
            "seed": draws[i][1],
            "gap_count": draws[i][0],
            "value": done[i].value,
            "excess": done[i].value - reference,
            "set": [[iv.lo, iv.hi] for iv in draws[i][2].intervals],
        }
        for i in sorted(done) if done[i].value > bound
    ]
    return BruteForceReport(
        delta=delta, x0=x0, n=n, trials=trials, seed=seed,
        reference_value=reference, max_ratio=top / reference,
        violations=tuple(violations),
    )
