"""The extremal-over-configurations layer.

For a point x0 in (-1, 0] and half-gap delta, the quantity of interest is

    L_n(x0, delta) = sup over admissible E of M_n(x0, E),  |E| = 2 - 2*delta,

and by the structure theory the supremum is attained either by the
single-interval (Remez) configuration [-1+2*delta, 1], whose value has the
closed form T_n((delta - x0)/(1 - delta)), or by a one-gap (Akhiezer)
configuration E(alpha, delta) with x0 inside the gap, sought on the
lattice of alphas where E(alpha, delta) is a degree-n polynomial preimage
and M_n has a closed form, and by LP on the one stretch between lattice
points that can beat them (see `L_n_delta`).

Two experiment drivers sit on top: residual series log(2 L_n) - n Phi(x0)
against the envelope growth rate (vanishing for boundary points, merely
bounded for interior ones), and a seeded brute-force search for random
multi-gap sets that would beat the best structured configuration (the
structure theorem predicts none).  Its trials go through a best-first loop
(`_best_first`) on upper bounds of log M_n: each trial is keyed by the
interpolation bound of its LP start, all started in one pass (see
`extremal`), and the trials that can neither set a new maximum nor
violate are dropped with no simplex run.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _stats
from ._search import illinois_many
from .chebyshev import remez_poly_value
from .envelope import _interior_max, upper_envelope
from .errors import DomainError
from .extremal import _ExchangeLP, _finish, _start, solve_extremal
from .green import c_rows, g_rows, green_single_interval, omega_rows
from .intervals import CompactSet, GapParams, make_gap_set, random_multigap_set

BEST_REMEZ = "remez"
BEST_AKHIEZER = "akhiezer"

_ALPHA_TOL = 1e-9         # bracket width of a smooth maximum in alpha
_GAP_MARGIN = 1e-9        # keep x0 strictly inside candidate gaps
_BOUNDARY_CLIP = 1e-4     # keep alpha away from delta-1 (dominated there)
_VALUE_TOL = 1e-9         # relative accuracy of the oracle values
_PRUNE_MARGIN = 1e-6      # Remez must beat the Akhiezer bound by this factor


@dataclass(frozen=True)
class AndrievskiiResult:
    value: float
    best: str                       # remez | akhiezer
    best_alpha: float | None
    # dM_n/dalpha at the Akhiezer maximum: the one-sided slopes (+, -) beside
    # it, or the one outward slope of a range end; empty when Remez wins
    dvalue_dalpha: tuple[float, ...]
    remez_value: float | None
    akhiezer_profile: tuple[tuple[float, float], ...]   # (alpha, M_n) evaluated
    near_ties: tuple[float, ...]    # other maxima within 10*_VALUE_TOL of the winner

    def to_json(self) -> str:
        return json.dumps(asdict(self))


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
        return json.dumps(asdict(self))


def _check_point(x0, delta):
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not (-1.0 <= x0 <= 0.0):
        raise DomainError(f"x0 must lie in [-1, 0], got {x0}")


def _best_first(x0, n, sets, cap=math.inf):
    """Finish, highest bound first, the sets whose M_n(x0, E) may exceed
    min(largest value finished, cap).

    Every set's LP start is placed first, all in one `extremal._start`,
    and keyed by its basis's bound log sum_i |l_i(x0)|, an upper bound on
    log M_n.  Each pass refines the set on top of the queue: a Remez step,
    re-keyed by its new bound, or, once converged, `extremal._finish`.  An
    LP parked on the queue keeps its values of P but drops its Cauchy
    buffer, so only the one being refined holds one.
    The loop stops once the top key +
    log1p(_PRUNE_MARGIN) is at most the log of that minimum, so no set left
    can reach it.  Returns {i: result} of the finished sets and {i: LP} of
    the started ones left.
    """
    started = dict(enumerate(_ExchangeLP(E, n, x0) for E in sets))
    _start(list(started.values()))
    heap = sorted((-lp.log_bound, i) for i, lp in started.items())   # sorted, so a heap
    done, log_top = {}, -math.inf
    while heap and math.log1p(_PRUNE_MARGIN) - heap[0][0] > min(log_top, math.log(cap)):
        _, i = heapq.heappop(heap)
        lp = started[i]
        if lp.converged:
            done[i] = _finish(started.pop(i), extension=False)
            log_top = max(log_top, math.log(done[i].value))
            continue
        lp.step()
        lp.drop_cauchy()
        heapq.heappush(heap, (-lp.log_bound, i))
    return done, started


def _lattice(n, delta, lo, hi):
    """The preimage lattice in (lo, hi]: the alphas with n omega(alpha) = k
    an integer, omega the equilibrium mass of the left band
    (`green.omega_rows`), increasing from 0 to 1/2 at alpha = 0.

    Every k strictly between n omega(lo) and n omega(hi) is found by one
    lockstep Illinois search on n omega - k, one `c_rows` quadrature per
    step, to |n omega - k| <= _VALUE_TOL/10.  hi joins when it is alpha = 0
    at even n, as omega(0) = 1/2.  Returns (alphas, c(alphas)), ascending.
    """
    ends = np.array([lo, hi])
    f_lo, f_hi = n * omega_rows(ends, delta, c_rows(ends, delta))
    if hi == 0.0:
        f_hi = 0.5 * n
    ks = np.arange(math.floor(f_lo) + 1, math.ceil(f_hi), dtype=float)
    x, cx = np.empty(len(ks)), np.empty(len(ks))

    def f(xs, lanes):
        x[lanes], cx[lanes] = xs, c_rows(xs, delta)
        return n * omega_rows(xs, delta, cx[lanes]) - ks[lanes]

    illinois_many(f, np.full(len(ks), lo), np.full(len(ks), hi), f_lo - ks, f_hi - ks,
                  lambda a, b, fx: np.abs(fx) <= 0.1 * _VALUE_TOL)
    if hi == 0.0 and n % 2 == 0:
        x, cx = np.append(x, hi), np.append(cx, c_rows(ends[1:], delta))
    return x, cx


def L_n_delta(x0: float, delta: float, n: int) -> AndrievskiiResult:
    """Best value over the two structured configuration families.

    The Remez candidate is the closed form (present when x0 < -1+2*delta);
    the Akhiezer ones are M_n(x0, E(alpha, delta)), alpha in [lo, hi].  For
    real x0, M_n(x0, E) <= cosh(n g_E(x0)), with equality exactly when E is
    a degree-n polynomial preimage, as E(alpha, delta) is at the lattice
    points alpha_k (`_lattice`), each valued so with no LP.  On a branch,
    between consecutive points of {lo, alpha_k..., hi}, M_n is smooth.
    G_alpha(x0) rises toward its maximizer alpha* (`_interior_max`), so on
    a branch not holding alpha* cosh(n G) stays below the value at its
    lattice end nearer alpha* (`Ln.pruned` counts these).  G is not
    unimodal, though, for x0 in (x_*, -1+2*delta): it also rises toward
    lo, to about 0.8 of its boundary limit G_delta(x0), so the branch at lo
    is not bounded by its lattice end.  There cosh(n G) stays below the
    Remez candidate cosh(n G_delta(x0)), which keeps the prune exact.  The
    branch holding alpha* is solved by LP at its ends, _ALPHA_TOL/2 inside a
    lattice end; where their slopes dM_n/dalpha, the sums of the dual
    sensitivities to the two gap ends, point inward, `illinois_many` on the
    slope closes on a smooth maximum, and a range end whose slope points
    out of the range is a candidate.  When Remez beats cosh(n G(alpha*)) by
    a factor 1 + _PRUNE_MARGIN, it wins with no lattice and no LP.

    `dvalue_dalpha` holds (+, -) from solves at a lattice winner
    -+ _ALPHA_TOL/2 (the - side alone at alpha = hi = 0), the final
    bracket's slopes at a smooth maximum, or the outward slope at a range
    end.  `akhiezer_profile` holds every lattice point and LP finished, and
    `near_ties` the other candidates within 10*_VALUE_TOL of the best.
    """
    _check_point(x0, delta)
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")

    remez_val = None
    if x0 < -1.0 + 2.0 * delta:
        remez_val = remez_poly_value(n, delta, x0)

    # Near alpha = delta-1 the two-interval configuration degenerates and is
    # dominated by the closed-form boundary candidate, so the range is
    # clipped a fixed distance away from that edge.
    lo = max(delta - 1.0 + _BOUNDARY_CLIP, x0 - delta + _GAP_MARGIN)
    hi = min(0.0, x0 + delta - _GAP_MARGIN)
    if hi > lo:
        alpha_star, g_star, _ = _interior_max(delta, x0)  # max G over a range holding [lo, hi]
        alpha_star = min(max(alpha_star, lo), hi)
        bound = np.logaddexp(n * g_star, -n * g_star) - math.log(2.0)   # log cosh(n G*)
        if remez_val is not None and math.log(remez_val) >= bound + math.log1p(_PRUNE_MARGIN):
            hi = lo   # no Akhiezer value reaches Remez
    profile = {}    # alpha -> M_n of every lattice point and finished LP
    cands = []      # (M_n, alpha, slopes): lattice points and branch maxima
    slope = {}      # alpha -> dM_n/dalpha of every finished LP
    pruned = lattice = 0

    def solve(alpha):
        if alpha not in slope:
            gap = GapParams(alpha, delta)
            res = solve_extremal(make_gap_set(gap), x0, n, extension=False)
            profile[alpha] = res.value
            slope[alpha] = res.dvalue_dendpoint(gap.a) + res.dvalue_dendpoint(gap.b)
        return profile[alpha], slope[alpha]

    if hi > lo:
        alphas, cs = _lattice(n, delta, lo, hi)
        lattice = len(alphas)
        if lattice:
            profile.update(zip(alphas.tolist(), np.cosh(n * g_rows(alphas, delta, x0, cs)).tolist()))
        cands = [(v, a, None) for a, v in profile.items()]
        # only the branch (p, q) holding alpha* can beat a lattice value
        pts = [lo, *profile] + ([] if hi in profile else [hi])
        pruned = len(pts) - 2
        j = min(bisect.bisect_right(pts, alpha_star), len(pts) - 1)
        p, q = pts[j - 1], pts[j]
        u = p + 0.5 * _ALPHA_TOL if p in profile else p
        v = q - 0.5 * _ALPHA_TOL if q in profile else q
        (fu, gu), (fv, gv) = solve(u), solve(v)
        if u == lo and gu <= 0.0:
            cands.append((fu, u, (gu,)))
        if v == hi and gv >= 0.0:
            cands.append((fv, v, (gv,)))
        if gu > 0.0 > gv:   # a smooth maximum inside
            (a,), (b,) = illinois_many(
                lambda xs, _: np.array([-solve(float(x))[1] for x in xs]),
                [u], [v], [-gu], [-gv], lambda a, b, _: b - a <= _ALPHA_TOL, 0.5 * _ALPHA_TOL)
            a, b = float(a), float(b)
            cands.append((*max((profile[a], a), (profile[b], b)), (slope[a], slope[b])))

    if remez_val is None and not cands:
        raise DomainError(f"no admissible configuration for x0={x0}, delta={delta}")
    best_val, best_alpha, slopes = max(cands, key=lambda c: c[0],
                                       default=(-math.inf, None, ()))
    tie_band = 10.0 * _VALUE_TOL * max(1.0, abs(best_val))
    near_ties = tuple(sorted(a for v, a, _ in cands
                             if best_val - v <= tie_band and a != best_alpha))
    best = BEST_AKHIEZER
    if remez_val is not None and remez_val >= best_val:
        best, best_val, best_alpha, slopes = BEST_REMEZ, remez_val, None, ()
    elif slopes is None:    # a lattice winner: the slopes beside its kink
        slopes = tuple(solve(best_alpha + s)[1] for s in (-0.5 * _ALPHA_TOL, 0.5 * _ALPHA_TOL)
                       if best_alpha + s <= hi)
    _stats.add({"Ln.calls": 1, "Ln.solves": len(slope), "Ln.pruned": pruned,
                "Ln.lattice": lattice})
    return AndrievskiiResult(
        value=float(best_val), best=best, best_alpha=best_alpha,
        dvalue_dalpha=tuple(float(g) for g in slopes),
        remez_value=None if remez_val is None else float(remez_val),
        akhiezer_profile=tuple(sorted(profile.items())), near_ties=near_ties,
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
    The trials go through `_best_first`, which starts all their LPs in one
    pass and leaves unsolved every set whose start bounds M_n by at
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
    done, rest = _best_first(x0, n, [E for _, _, E in draws], bound)
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
