"""The asymptotic layer: stationary points, the parametric curve, and the
upper envelope of the two-interval Green functions.

For a fixed half-gap delta the envelope is

    Phi_delta(x) = sup over alpha in (delta-1, 0] of G_{alpha,delta}(x),

for x in (-1, 0].  Two branches compete: the boundary limit alpha -> delta-1
is the single-interval Green function G_delta(x) (the "remez" branch), and
interior maximizers satisfy dG/dalpha = 0, which places x on the parametric
curve (x0(alpha), G_{alpha,delta}(x0(alpha))) (the "akhiezer" branch).  The
stationary point x0(alpha) is the unique zero in the gap of the strictly
increasing map x -> dG/dalpha.

The boundary branch is always evaluated through the closed form, never by
pushing the two-interval quadrature to alpha = delta - 1; the interior
search is clipped a small distance away from that boundary and a maximizer
landing on the clip is treated as boundary-dominated.

Key scalar landmarks: the envelope switching abscissa x_s(delta) where the
two branches tie, the leftmost stationary point x_*(delta) = inf x0(alpha),
and the threshold half-gap delta_* (root of d^2 = (1-d)/(1+d)) above which
the boundary branch wins even at x = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._search import illinois_many
from .errors import DomainError, SolverError
from .green import (
    _admissible,
    _check_gap,
    c_cdot_rows,
    g_dg_rows,
    green_single_interval,
)

SOURCE_REMEZ = "remez"
SOURCE_AKHIEZER = "akhiezer"
SOURCE_TIE = "tie"

_COARSE_ALPHA = 64        # coarse grid points per maximization
_ALPHA_TOL = 1e-7         # bracket width of the alpha maximizer; G is
                          # quadratic there, so it ends within about
                          # 1e-14 of its maximum
_TIE_TOL = 1e-9           # branch values closer than this tie
_BOUNDARY_CLIP = 1e-8     # keep alpha >= delta-1+clip
_ROOT_TOL = 1e-10         # bracket width for x0(alpha)
_SWITCH_TOL = 1e-9        # bracket width for x_s


@dataclass(frozen=True)
class EnvelopePoint:
    """One envelope sample: Phi_delta(x), which branch won, and where."""

    x: float
    phi: float
    source: str                    # remez | akhiezer | tie
    alpha: float | None = None     # interior maximizer for akhiezer / tie
    region: str | None = None      # a | b | c | d, filled by diagram()


@dataclass(frozen=True)
class DiagramRow:
    x: float
    g_remez: float | None
    curve_x0: float | None
    curve_y: float | None
    phi: float
    source: str
    alpha: float | None
    region: str | None


@dataclass(frozen=True)
class DiagramResult:
    delta: float
    rows: tuple[DiagramRow, ...]
    gap_edge: float                 # -1 + 2*delta
    x_star: float | None
    x_switch: float | None
    degenerate: bool                # True when delta >= 1/2 (no region taxonomy)


def delta_star(tol: float = 1e-8) -> float:
    """Threshold half-gap: unique root in (0,1) of d^2 = (1-d)/(1+d).

    Below it the symmetric two-interval value at x=0 beats the boundary
    branch; numerically 0.543689...  Illinois steps on the increasing
    d^2 - (1-d)/(1+d) close [0, 1] to a width of tol, or of two float
    spacings when tol is below them; the midpoint is returned.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    a, b = illinois_many(lambda d, _: d * d - (1.0 - d) / (1.0 + d), [0.0], [1.0], [-1.0], [1.0],
                         lambda a, b, _: b - a <= np.maximum(tol, 2.0 * np.spacing(b)))
    return float(0.5 * (a[0] + b[0]))


def x0_many(alphas, delta: float):
    """x0(alpha) for an array of alphas by lockstep Illinois steps.

    Each bracket is the gap pulled in by max(1e-8*(b-a), 2e-10) at both
    ends, where the strictly increasing map x -> dG/dalpha goes from
    negative to positive.  c and cdot come from one quadrature for the whole
    batch, and each `illinois_many` step evaluates dG/dalpha at the trials
    of all open brackets in one quadrature, until a bracket is _ROOT_TOL
    wide; its midpoint is the root.  Rows with an inadmissible alpha, or
    without that sign change (numerical breakdown near the boundary), come
    back as nan.
    """
    alphas = np.asarray(alphas, dtype=float)
    out = np.full(alphas.shape, np.nan)
    ok = np.flatnonzero((0.0 < delta < 1.0) & _admissible(alphas, delta))
    if ok.size == 0:
        return out
    al = alphas[ok]
    c, cd = c_cdot_rows(al, delta)
    a, b = al - delta, al + delta
    h = np.maximum(1e-8 * (b - a), 2e-10)
    lo, hi = a + h, b - h
    # both bracket ends of every row in one quadrature
    _, f = g_dg_rows(np.concatenate([al, al]), delta, np.concatenate([lo, hi]),
                     np.concatenate([c, c]), np.concatenate([cd, cd]))
    f_lo, f_hi = f[: al.size], f[al.size :]
    rows = np.flatnonzero((f_lo < 0.0) & (0.0 < f_hi))
    al, c, cd = al[rows], c[rows], cd[rows]
    lo, hi = illinois_many(lambda x, lanes: g_dg_rows(al[lanes], delta, x, c[lanes], cd[lanes])[1],
                           lo[rows], hi[rows], f_lo[rows], f_hi[rows],
                           lambda a, b, _: b - a <= _ROOT_TOL)
    out[ok[rows]] = 0.5 * (lo + hi)
    return out


def x0_of_alpha(alpha: float, delta: float) -> float:
    """Unique zero of x -> dG/dalpha in the gap (alpha-delta, alpha+delta).

    The map is strictly increasing from -inf to +inf, so a bracket pulled
    slightly inside the gap always holds it (see x0_many).
    """
    _check_gap(alpha, delta)
    x0 = x0_many(np.array([float(alpha)]), delta)[0]
    if math.isnan(x0):
        raise SolverError(
            f"dG/dalpha shows no sign change on the gap for alpha={alpha}, "
            f"delta={delta} (numerical breakdown near the boundary)"
        )
    return float(x0)


def akhiezer_curve(delta, alpha_grid):
    """Parametric curve (x0(alpha), G(x0(alpha))) sampled on an alpha grid.

    Rows where the stationary-point solve breaks down are returned as None
    rather than aborting the whole sweep.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    x0 = x0_many(alphas, delta)
    ok = np.flatnonzero(~np.isnan(x0))
    out = [None] * len(alphas)
    if ok.size:
        y = g_dg_rows(alphas[ok], delta, x0[ok])[0]
        for i, yi in zip(ok, y):
            out[i] = (float(x0[i]), float(yi))
    return out


@lru_cache(maxsize=256)
def _shared_alpha_grid(delta: float):
    return np.linspace(delta - 1.0 + _BOUNDARY_CLIP, 0.0, 4 * _COARSE_ALPHA)


@lru_cache(maxsize=256)
def _shared_c(delta: float):
    """(c, cdot) rows on _shared_alpha_grid(delta), reused by every x of one
    delta."""
    return np.array(c_cdot_rows(_shared_alpha_grid(delta), delta))


def _interior_max(delta: float, x: float):
    """Maximize alpha -> G_{alpha,delta}(x) over admissible interior alpha.

    About 66 alphas are scanned for G and dG/dalpha in one quadrature (c and
    cdot from the cached shared grid where it applies).  The maximizer lies
    where the slope turns from + to - beside the best of them; a gap end at
    x counts as slope +-inf, and a best alpha at a range end whose slope
    points out of the range is the maximum.  One-lane `illinois_many` steps
    on -dG/dalpha close that bracket to _ALPHA_TOL, each at the cost of one
    quadrature for c, cdot, G and dG/dalpha, and the best G seen is kept.

    Returns (alpha, value, at_clip) or None when no alpha admits x in its
    gap.  at_clip flags maximizers stuck at the clipped left boundary, where
    the supremum is really the boundary (single-interval) limit.
    """
    clip_lo = delta - 1.0 + _BOUNDARY_CLIP
    lo = max(clip_lo, x - delta)
    hi = min(0.0, x + delta)
    if hi - lo < 1e-12:
        return None
    # x - delta + delta need not round back to x: step each bracket end one
    # ulp inward until x lies in that alpha's closed gap.  Every alpha in
    # between then admits x too, since float addition rounds monotonically.
    while not (lo - delta <= x <= lo + delta):
        lo = math.nextafter(lo, hi)
    while not (hi - delta <= x <= hi + delta):
        hi = math.nextafter(hi, lo)

    grid = _shared_alpha_grid(delta)
    inside = (grid > lo) & (grid < hi)
    cand, cc_cand = grid[inside], _shared_c(delta)[:, inside]
    if cand.size > int(1.5 * _COARSE_ALPHA):
        stride = int(math.ceil(cand.size / _COARSE_ALPHA))
        cand, cc_cand = cand[::stride], cc_cand[:, ::stride]
    if cand.size < 16:
        alphas = np.linspace(lo, hi, _COARSE_ALPHA)
        vals, slopes = g_dg_rows(alphas, delta, x)
    else:
        alphas = np.concatenate(([lo], cand, [hi]))
        cc_ends = np.array(c_cdot_rows(alphas[[0, -1]], delta))
        cc = np.concatenate([cc_ends[:, :1], cc_cand, cc_ends[:, 1:]], axis=1)
        vals, slopes = g_dg_rows(alphas, delta, x, *cc)
    i = int(np.argmax(vals))
    best = [alphas[i], vals[i]]
    j, k = sorted((i, i + 1 if slopes[i] > 0.0 else i - 1))
    if 0 <= j and k < len(alphas) and slopes[j] > 0.0 > slopes[k]:

        def neg_slope(al, _):
            g, s = g_dg_rows(al, delta, x)
            if g[0] > best[1]:
                best[:] = al[0], g[0]
            return -s

        illinois_many(neg_slope, [alphas[j]], [alphas[k]], [-slopes[j]], [-slopes[k]],
                      lambda a, b, _: b - a <= _ALPHA_TOL)
    alpha_star, g_star = best
    at_clip = alpha_star - clip_lo < 1e-6
    return float(alpha_star), float(g_star), at_clip


def upper_envelope(delta: float, x: float) -> EnvelopePoint:
    """Phi_delta(x) with its source tag, for x in (-1, 0].

    The interior maximum (`_interior_max`: one batched alpha scan of G and
    dG/dalpha, then Illinois steps to the root of dG/dalpha) against the
    closed-form boundary branch; branches closer than _TIE_TOL are tagged
    tie.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not (-1.0 < x <= 0.0):
        raise DomainError(f"x must lie in (-1, 0], got {x}")

    interior = _interior_max(delta, x)
    g_rem = None
    if x <= -1.0 + 2.0 * delta:
        g_rem = green_single_interval(delta, x)

    if interior is None or (interior[2] and g_rem is not None):
        if g_rem is None:
            raise SolverError(
                f"no admissible configuration at x={x}, delta={delta}"
            )
        return EnvelopePoint(x=x, phi=max(g_rem, 0.0), source=SOURCE_REMEZ)

    alpha_star, g_int, _ = interior
    if g_rem is None or g_int > g_rem + _TIE_TOL:
        return EnvelopePoint(x=x, phi=max(g_int, 0.0), source=SOURCE_AKHIEZER,
                             alpha=alpha_star)
    if g_rem > g_int + _TIE_TOL:
        return EnvelopePoint(x=x, phi=max(g_rem, 0.0), source=SOURCE_REMEZ)
    return EnvelopePoint(x=x, phi=max(g_rem, g_int, 0.0), source=SOURCE_TIE,
                         alpha=alpha_star)


def switching_point(delta: float) -> float:
    """Abscissa x_s where the boundary branch ties the interior branch.

    Illinois steps (`illinois_many`, one lane) on the interior branch minus
    the boundary branch over (-1, -1+2*delta), until the bracket is
    _SWITCH_TOL wide; raises when no crossing exists (large delta regime).
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    edge = -1.0 + 2.0 * delta

    def gain(x):
        interior = _interior_max(delta, x)
        best = interior[1] if interior is not None else 0.0
        return best - green_single_interval(delta, x)

    lo = -1.0 + 1e-4
    hi = min(edge, 0.0) - 1e-6
    f_lo, f_hi = gain(lo), gain(hi)
    if not (f_lo < 0.0 < f_hi):
        raise SolverError(
            f"no switching point for delta={delta}: interior minus boundary "
            f"branch is {f_lo:.3g} at {lo} and {f_hi:.3g} at {hi}"
        )
    (a,), (b,) = illinois_many(lambda xs, _: np.array([gain(float(x)) for x in xs]),
                               [lo], [hi], [f_lo], [f_hi], lambda a, b, _: b - a <= _SWITCH_TOL)
    return float(0.5 * (a + b))


def x_star(delta: float) -> float:
    """Leftmost stationary point x_*(delta) = inf over alpha of x0(alpha).

    Coarse alpha scan refined around the minimizer; alphas where the
    stationary solve fails (hard against the boundary) are skipped.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    lo = delta - 1.0 + _BOUNDARY_CLIP

    def sweep(alphas):
        x0 = x0_many(alphas, delta)
        if np.isnan(x0).all():
            raise SolverError(f"x0(alpha) failed on the whole grid for delta={delta}")
        i = int(np.nanargmin(x0))
        return alphas[i], x0[i]

    grid = np.linspace(lo, 0.0, 65)
    best_alpha, best_x0 = sweep(grid)
    width = grid[1] - grid[0]
    for _ in range(3):
        a0 = max(lo, best_alpha - width)
        a1 = min(0.0, best_alpha + width)
        al, x0 = sweep(np.linspace(a0, a1, 17))
        if x0 < best_x0:
            best_alpha, best_x0 = al, x0
        width = (a1 - a0) / 8.0
    return best_x0


def _classify(x, x_st, x_sw, edge):
    if x >= edge:
        return "a"
    if x >= x_sw:
        return "b"
    if x >= x_st:
        return "c"
    return "d"


def diagram(delta: float, x_grid_size: int = 400) -> DiagramResult:
    """Tabulate the envelope over [-1, 0] with region classification.

    For delta < 1/2 the breakpoints {x_*, x_s, -1+2*delta} are inserted into
    the grid exactly and each row is classified into the four regions
    (a: interior-only, b: interior wins, c: boundary wins but a stationary
    point exists, d: boundary wins, no stationary point).  For delta >= 1/2
    the envelope is still well defined and emitted, but regions are unset
    and the result is flagged degenerate.
    """
    if x_grid_size < 2:
        raise DomainError(f"x_grid_size must be >= 2, got {x_grid_size}")
    edge = -1.0 + 2.0 * delta
    degenerate = delta >= 0.5
    xs = list(np.linspace(-1.0, 0.0, x_grid_size))
    x_st = x_sw = None
    if not degenerate:
        x_st = x_star(delta)
        x_sw = switching_point(delta)
        for bp in (x_st, x_sw, edge):
            if bp not in xs:
                xs.append(bp)
        xs.sort()

    rows = []
    for x in xs:
        g_rem = green_single_interval(delta, x) if x <= edge else None
        if x <= -1.0 + 4.0 * _BOUNDARY_CLIP:
            point = EnvelopePoint(x=x, phi=max(g_rem, 0.0), source=SOURCE_REMEZ)
        else:
            point = upper_envelope(delta, x)
        region = None if degenerate else _classify(x, x_st, x_sw, edge)
        interior_won = point.source in (SOURCE_AKHIEZER, SOURCE_TIE)
        rows.append(
            DiagramRow(
                x=x,
                g_remez=g_rem,
                curve_x0=x if interior_won else None,
                curve_y=point.phi if interior_won else None,
                phi=point.phi,
                source=point.source,
                alpha=point.alpha,
                region=region,
            )
        )
    return DiagramResult(
        delta=delta,
        rows=tuple(rows),
        gap_edge=edge,
        x_star=x_st,
        x_switch=x_sw,
        degenerate=degenerate,
    )


def _fmt(v):
    return "" if v is None else f"{v:.12g}"


def diagram_to_csv(result: DiagramResult) -> str:
    lines = ["x,g_remez,phi,source,alpha,region"]
    for r in result.rows:
        lines.append(
            f"{_fmt(r.x)},{_fmt(r.g_remez)},{_fmt(r.phi)},{r.source},"
            f"{_fmt(r.alpha)},{r.region or ''}"
        )
    return "\n".join(lines) + "\n"


def diagram_to_json(result: DiagramResult) -> str:
    return json.dumps(
        {
            "delta": result.delta,
            "gap_edge": result.gap_edge,
            "x_star": result.x_star,
            "x_switch": result.x_switch,
            "degenerate": result.degenerate,
            "rows": [
                {
                    "x": r.x,
                    "g_remez": r.g_remez,
                    "curve_x0": r.curve_x0,
                    "curve_y": r.curve_y,
                    "phi": r.phi,
                    "source": r.source,
                    "alpha": r.alpha,
                    "region": r.region,
                }
                for r in result.rows
            ],
        }
    )
