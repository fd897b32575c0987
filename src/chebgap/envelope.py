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

from ._search import bisect_root, golden_max
from .errors import DomainError, SolverError
from .green import dalpha_green, green_single_interval, green_two_interval

SOURCE_REMEZ = "remez"
SOURCE_AKHIEZER = "akhiezer"
SOURCE_TIE = "tie"

_COARSE_ALPHA = 64        # coarse grid points per maximization
_ALPHA_TOL = 1e-10        # golden-section width in alpha
_TIE_TOL = 1e-9           # branch values closer than this tie
_BOUNDARY_CLIP = 1e-8     # keep alpha >= delta-1+clip
_ROOT_TOL = 1e-10         # bisection width for x0(alpha)
_SWITCH_TOL = 1e-9        # bisection width for x_s


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
    branch; numerically 0.543689...
    """
    if tol <= 0:
        raise DomainError("tol must be positive")

    def f(d):
        return d * d - (1.0 - d) / (1.0 + d)

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def x0_of_alpha(alpha: float, delta: float, tol: float = _ROOT_TOL) -> float:
    """Unique zero of x -> dG/dalpha in the gap (alpha-delta, alpha+delta).

    The map is strictly increasing from -inf to +inf, so bisection on a
    bracket pulled slightly inside the gap always applies.
    """
    a = alpha - delta
    b = alpha + delta
    h = max(1e-8 * (b - a), 2e-10)
    lo, hi = a + h, b - h
    f = lambda x: dalpha_green(alpha, delta, x)
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise SolverError(
            f"dG/dalpha shows no sign change on [{lo}, {hi}] for alpha={alpha}, "
            f"delta={delta} (numerical breakdown near the boundary)"
        )
    return bisect_root(f, lo, hi, tol, f_lo, f_hi)


def akhiezer_curve(delta, alpha_grid):
    """Parametric curve (x0(alpha), G(x0(alpha))) sampled on an alpha grid.

    Rows where the stationary-point solve breaks down are returned as None
    rather than aborting the whole sweep.
    """
    out = []
    for alpha in alpha_grid:
        try:
            x0 = x0_of_alpha(alpha, delta)
            out.append((x0, green_two_interval(alpha, delta, x0)))
        except (SolverError, DomainError):
            out.append(None)
    return out


@lru_cache(maxsize=256)
def _shared_alpha_grid(delta: float):
    return np.linspace(delta - 1.0 + _BOUNDARY_CLIP, 0.0, 4 * _COARSE_ALPHA)


def _interior_max(delta: float, x: float):
    """Maximize alpha -> G_{alpha,delta}(x) over admissible interior alpha.

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
    cand = grid[(grid > lo) & (grid < hi)]
    if cand.size > int(1.5 * _COARSE_ALPHA):
        stride = int(math.ceil(cand.size / _COARSE_ALPHA))
        cand = cand[::stride]
    if cand.size < 16:
        cand = np.linspace(lo, hi, _COARSE_ALPHA)[1:-1]
    alphas = np.concatenate(([lo], cand, [hi]))

    g = lambda al: green_two_interval(al, delta, x)
    vals = np.array([g(al) for al in alphas])
    i = int(np.argmax(vals))
    blo = alphas[max(i - 1, 0)]
    bhi = alphas[min(i + 1, len(alphas) - 1)]
    alpha_star, g_star = golden_max(g, blo, bhi, _ALPHA_TOL)
    if vals[i] > g_star:
        alpha_star, g_star = alphas[i], vals[i]
    at_clip = alpha_star - clip_lo < 1e-6
    return float(alpha_star), float(g_star), at_clip


def upper_envelope(delta: float, x: float) -> EnvelopePoint:
    """Phi_delta(x) with its source tag, for x in (-1, 0].

    Interior maximization (coarse grid + golden section) against the
    closed-form boundary branch; branches closer than _TIE_TOL are tagged tie.
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

    Bisection on the signed branch difference over (-1, -1+2*delta); raises
    when no crossing exists (large delta regime).
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    edge = -1.0 + 2.0 * delta

    def diff(x):
        interior = _interior_max(delta, x)
        best = interior[1] if interior is not None else 0.0
        return green_single_interval(delta, x) - best

    lo = -1.0 + 1e-4
    hi = min(edge, 0.0) - 1e-6
    f_lo, f_hi = diff(lo), diff(hi)
    if not (f_lo > 0.0 > f_hi):
        raise SolverError(
            f"no switching point for delta={delta}: branch difference is "
            f"{f_lo:.3g} at {lo} and {f_hi:.3g} at {hi}"
        )
    return bisect_root(diff, lo, hi, _SWITCH_TOL, f_lo, f_hi)


def x_star(delta: float) -> float:
    """Leftmost stationary point x_*(delta) = inf over alpha of x0(alpha).

    Coarse alpha scan refined around the minimizer; alphas where the
    stationary solve fails (hard against the boundary) are skipped.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    lo = delta - 1.0 + _BOUNDARY_CLIP

    def sweep(alphas):
        best_alpha, best_x0 = None, math.inf
        for al in alphas:
            try:
                x0 = x0_of_alpha(al, delta)
            except (SolverError, DomainError):
                continue
            if x0 < best_x0:
                best_alpha, best_x0 = al, x0
        if best_alpha is None:
            raise SolverError(f"x0(alpha) failed on the whole grid for delta={delta}")
        return best_alpha, best_x0

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
