"""Finite-degree extremal values M_n(x0, E) by semi-infinite LP.

M_n(x0, E) is the largest value at x0 among degree-n polynomials bounded by
1 in modulus on the compact set E.  Discretizing E on Chebyshev-node grids
turns this into a finite LP

    maximize  sum_k p_k T_k(x0)   subject to  |sum_k p_k T_k(x_j)| <= 1,

whose dual is the standard-form problem

    minimize 1'lam   s.t.  sum_j lam_j s_j T(x_j) = T(x0),  lam >= 0,

with one column per (grid point, sign) pair.  A feasible basis is just a
set of n+1 points t_i with signs s_i, and because both signs of every
column are available no phase 1 is needed: interpolating T(x0) on any n+1
spread points and folding the weight signs into the column choice is
already basic feasible.

The simplex runs entirely in Lagrange form.  With l_i the Lagrange basis
of the current points, the basic solution is lam_i = s_i l_i(x0), the
entering direction is u_i = s_e s_i l_i(x_e), and the pricing values are
the interpolant values P(x_j) = sum_i l_i(x_j) s_i (second barycentric
form).  All of these are relative-precision stable no matter how large the
extremal value grows, which matters: expanding the same polynomial in
Chebyshev coefficients and evaluating near |P| = 1 loses eps * value
absolutely, and the value reaches 1e13 already at degree 20 on the sets of
interest.  The optimal value sum_i s_i l_i(x0) is a same-sign sum, computed
through logs, so the reported value keeps full relative precision.
A pivot moves one basis node, so the pricing values come from a Cauchy
matrix 1/(x_j - t_i) built once per solve and updated by one column per
pivot.

Exchange rounds then locate the true local maxima of |P| on E by golden
section, append them as grid columns, and re-optimize; the previous basis
stays feasible, so re-solves take only a few pivots.

The answer is its active points and signs (t, s), with the dual weights
lam_i = s_i l_i(x0), which sum to the value and give dM/de for an endpoint
e of E by the envelope theorem (`dvalue_dendpoint`).  Off E it is evaluated
in the first barycentric form l(x) sum_i s_i w_i / (x - t_i), l(x) kept in
logs; the second form loses all digits in the gaps at degree 100.  The
n-extension P^{-1}([-1,1]) comes from the peaks of |P| (P has n real roots,
so every critical point is a peak of |P|), the crossings of P = +-1
between them, and the component structure relative to [-1, 1].  The JSON
T_k coefficients are a cosine transform of values at Chebyshev points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._search import bisect_many, golden_max_many
from .chebyshev import ChebPoly, cheb_interp
from .errors import DomainError, SolverError
from .intervals import CompactSet, Interval, discretize

CASE_TAGS = ("right_interval", "extend_right", "extend_left", "left_interval", "none")

# An interpolant of (t_i, s_i) whose leading coefficient sum_i s_i w_i is
# below this fraction of sum_i |w_i| has lower effective degree.
DEGREE_DEFICIENCY_REL = 1e-10

_REFINE_ROUNDS = 3        # exchange rounds after the grid solve
_FEAS_TOL = 1e-9          # promised bound 1 + _FEAS_TOL on |P| over E
_ENDPOINT_ULPS = 4        # match of an endpoint against the active points


@dataclass(frozen=True)
class ExtremalResult:
    value: float
    poly: ChebPoly
    active_points: tuple[float, ...]
    active_signs: tuple[int, ...]
    n_extension: CompactSet | None
    case_tag: str
    dual_weights: tuple[float, ...] = ()   # lam_i = s_i l_i(x0) per active point

    def evaluate(self, x):
        """P(x) from the active points in the first barycentric form, which
        stays accurate off E (gaps included), unlike the coefficients and
        the second form; P = 1 when x0 lies in E (no active points)."""
        if not self.active_points:
            return self.poly(x)
        return _lagrange_values(*self._nodes, x)

    def dvalue_dendpoint(self, e: float) -> float:
        """dM/de for an endpoint e of E, by the envelope theorem for the dual.

        -lam_e s_e P'(e) when e is an active point, 0.0 otherwise.  e is
        matched within a few ulps, since a grid end computed as
        lo + length*1.0 can miss hi by one.
        """
        if not self.active_points:
            return 0.0
        t, s, logw, signw = self._nodes
        gap = np.abs(t - e)
        i = int(np.argmin(gap))
        if gap[i] > _ENDPOINT_ULPS * math.ulp(max(1.0, abs(e))):
            return 0.0
        k = np.arange(len(t)) != i
        # P'(t_i) = sum_{k != i} (w_k / w_i) (s_k - s_i) / (t_i - t_k)
        ratio = signw[k] * signw[i] * np.exp(logw[k] - logw[i])
        dp = float(np.sum(ratio * (s[k] - s[i]) / (t[i] - t[k])))
        return -self.dual_weights[i] * s[i] * dp

    @cached_property
    def _nodes(self):
        t = np.asarray(self.active_points)
        return (t, np.asarray(self.active_signs, dtype=float), *_bary_logweights(t))

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "coeffs": list(self.poly.coeffs),
                "degree": self.poly.degree,
                "degree_deficient": self.poly.degree_deficient,
                "active_points": list(self.active_points),
                "active_signs": list(self.active_signs),
                "n_extension": None
                if self.n_extension is None
                else [[iv.lo, iv.hi] for iv in self.n_extension.intervals],
                "case_tag": self.case_tag,
            }
        )


@dataclass(frozen=True)
class FeasibilityReport:
    max_violation: float
    worst_x: float
    probes: int
    feas_tol: float

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.feas_tol


def _cheb_vandermonde(xs, n):
    xs = np.asarray(xs, dtype=float)
    V = np.empty((len(xs), n + 1))
    V[:, 0] = 1.0
    if n >= 1:
        V[:, 1] = xs
    for k in range(2, n + 1):
        V[:, k] = 2.0 * xs * V[:, k - 1] - V[:, k - 2]
    return V


# ----------------------------------------------------------------------
# Barycentric helpers
# ----------------------------------------------------------------------


def _bary_logweights(t):
    """log|w_i| and sign(w_i) for w_i = 1/prod_{k!=i}(t_i - t_k)."""
    diff = t[:, None] - t[None, :]
    ad = np.abs(diff)
    np.fill_diagonal(ad, 1.0)
    logw = -np.log(ad).sum(axis=1)
    signw = np.where((diff < 0).sum(axis=1) % 2 == 0, 1.0, -1.0)
    return logw, signw


def _bary_values(t, s, logw, signw, xs):
    """Second-form barycentric values of the interpolant of (t_i, s_i).

    Exact node hits surface as non-finite entries and are patched after the
    fact; scanning for them upfront would cost more than the evaluation.
    """
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    wt = signw * np.exp(logw - logw.max())
    d = xs_arr[:, None] - t[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1.0 / d
        vals = (C @ (wt * s)) / (C @ wt)
    bad = ~np.isfinite(vals)
    if bad.any():
        for i in np.flatnonzero(bad):
            vals[i] = s[int(np.argmin(np.abs(d[i])))]
    if np.isscalar(xs) or np.ndim(xs) == 0:
        return float(vals[0])
    return vals


def _lagrange_scaled(t, logw, signw, x):
    """(l_i(x) * exp(-L(x)), L(x)) with L(x) = sum_k log|x - t_k|.

    The common factor exp(L(x)) is dropped so the entries stay O(1) even
    when the Lagrange basis itself reaches the (huge) extremal value scale;
    ratios and signs are preserved exactly.  x of shape (m, 1) gives m rows.
    """
    d = x - t
    ad = np.abs(d)
    if np.any(ad == 0.0):
        raise SolverError(f"evaluation point {x} coincides with a basis node")
    log_ad = np.log(ad)
    L = log_ad.sum(axis=-1)
    sign_prod = np.where((d < 0.0).sum(axis=-1) % 2 == 0, 1.0, -1.0)
    lhat = signw * sign_prod[..., None] * np.sign(d) * np.exp(logw - log_ad)
    return lhat, L


def _lagrange_values(t, s, logw, signw, xs):
    """First-form barycentric values exp(L) * sum_i s_i l_i exp(-L) of the
    interpolant of (t_i, s_i), the log of the sum added to L so that neither
    overflows alone.  An exact node hit returns its sign."""
    x = np.asarray(xs, dtype=float)
    flat = x.ravel()
    vals = np.empty(flat.size)
    for lo in range(0, flat.size, 1024):  # bounds the (points x nodes) arrays
        block = flat[lo:lo + 1024]
        hit = block[:, None] == t
        v = s[hit.argmax(axis=1)]
        free = ~hit.any(axis=1)
        lhat, L = _lagrange_scaled(t, logw, signw, block[free, None])
        S = lhat @ s
        with np.errstate(divide="ignore"):
            v[free] = np.sign(S) * np.exp(np.log(np.abs(S)) + L)
        vals[lo:lo + 1024] = v
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


# ----------------------------------------------------------------------
# The exchange LP
# ----------------------------------------------------------------------


class _ExchangeLP:
    """Lagrange-form simplex for min 1'lam, sum lam_j s_j T(x_j) = T(x0).

    Columns are encoded as 2*point_index + (0 for +, 1 for -), so appending
    grid points never invalidates an existing basis.
    """

    _EPS_RC = 1e-11      # dual feasibility threshold on reduced costs

    def __init__(self, points, n, x0):
        self.n = n
        self.r = n + 1
        self.x0 = float(x0)
        self.points = np.asarray(points, dtype=float)
        self.basis = None

    def append_points(self, new_points):
        self.points = np.concatenate([self.points, new_points])

    def _initial_basis(self, seed_points=None):
        # Folding the weight signs of T(x0) interpolated on n+1 nodes into
        # the columns is basic feasible in exact arithmetic.  The Vandermonde
        # signs are wrong on up to 21 of 51 nodes at n = 50 and 68-143 of 201
        # at n = 200 on the benchmark's pinned sets, yet the simplex converges;
        # exact signs (_lagrange_scaled) stall it on every one at n >= 100.
        # The start needs well-spread nodes.  Seeds (active points of
        # a neighbouring solve) snap to their nearest grid points; the rest,
        # or everything without seeds, comes from a greedy farthest-point
        # subsample, which stays solvable even when the grid crams hundreds
        # of points into a near-degenerate interval.
        pts = self.points
        m = len(pts)
        chosen = []
        if seed_points is not None and self.r > 1:
            order = np.argsort(pts)
            near = order[
                np.clip(np.searchsorted(pts[order], seed_points), 0, m - 1)
            ]
            # clustered nodes wreck the barycentric weights; keep seeds only
            # when they stay separated
            min_sep = 1e-9 * (float(pts.max()) - float(pts.min()) + 1.0)
            kept = []
            for i in sorted(set(int(i) for i in near), key=lambda i: pts[i]):
                if not kept or pts[i] - pts[kept[-1]] > min_sep:
                    kept.append(i)
            chosen = kept[: self.r]
        if self.r == 1:
            chosen = chosen[:1] or [0]
        elif len(chosen) < self.r:
            if not chosen:
                chosen = [int(np.argmin(pts)), int(np.argmax(pts))]
            dist = np.full(m, math.inf)
            for i in chosen:
                dist = np.minimum(dist, np.abs(pts - pts[i]))
            dist[chosen] = -1.0
            while len(chosen) < self.r:
                j = int(np.argmax(dist))
                if dist[j] <= 0.0:
                    used = set(chosen)
                    chosen.extend(i for i in range(m) if i not in used)
                    chosen = chosen[: self.r]
                    break
                chosen.append(j)
                dist = np.minimum(dist, np.abs(pts - pts[j]))
                dist[j] = -1.0
        idx = sorted(chosen)
        t = pts[idx]
        try:
            mu = np.linalg.solve(
                _cheb_vandermonde(t, self.n).T, _cheb_vandermonde([self.x0], self.n)[0]
            )
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"degenerate starting grid: {exc}") from exc
        self.basis = [2 * p + (0 if w >= 0.0 else 1) for p, w in zip(idx, mu)]

    def _state(self):
        t = self.points[[j >> 1 for j in self.basis]]
        s = np.array([1.0 if j % 2 == 0 else -1.0 for j in self.basis])
        logw, signw = _bary_logweights(t)
        return t, s, logw, signw

    def _cauchy(self):
        """Pricing matrix C[j, i] = 1/(x_j - t_i) over grid points and slots.

        The grid points are distinct, so the only exact node hit in column i
        is the row of basis node i itself; it is stored as 0 instead of inf
        and its pricing value is set by index in `_price`.
        """
        rows = [j >> 1 for j in self.basis]
        with np.errstate(divide="ignore"):
            C = 1.0 / (self.points[:, None] - self.points[rows][None, :])
        C[rows, np.arange(self.r)] = 0.0
        return C

    def _cauchy_column(self, C, i):
        """Refill column i of C after basis slot i changed node."""
        p = self.basis[i] >> 1
        with np.errstate(divide="ignore"):
            C[:, i] = 1.0 / (self.points - self.points[p])
        C[p, i] = 0.0

    def _price(self, C, t, s, logw, signw):
        """Interpolant values at every grid point, as `_bary_values` gives
        them, from the cached pricing matrix."""
        wt = signw * np.exp(logw - logw.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (C @ (wt * s)) / (C @ wt)
        vals[[j >> 1 for j in self.basis]] = s
        bad = ~np.isfinite(vals)
        if bad.any():
            for j in np.flatnonzero(bad):
                vals[j] = s[int(np.argmin(np.abs(self.points[j] - t)))]
        return vals

    def solve(self, seed_points=None):
        m = len(self.points)
        if m < self.r:
            raise SolverError(
                f"grid supplies {m} points for {self.r} coefficients"
            )
        if self.basis is None:
            self._initial_basis(seed_points)
        C = self._cauchy()
        max_iter = 2000 + 60 * self.r
        seen = set()
        bland_left = 0
        for _ in range(max_iter):
            # Degenerate pivots are routine here; a revisited basis is the
            # real cycling signal, and only then is Bland's rule worth its
            # slowness (for a window, to break the loop).
            sig = hash(frozenset(self.basis))
            if sig in seen and bland_left == 0:
                bland_left = 3 * self.r
                seen.clear()
            seen.add(sig)
            bland = bland_left > 0
            if bland:
                bland_left -= 1
            t, s, logw, signw = self._state()
            pv = self._price(C, t, s, logw, signw)
            d_plus = 1.0 - pv
            d_minus = 1.0 + pv
            # Basic columns have reduced cost exactly 0; mask out roundoff.
            for j in self.basis:
                if j % 2 == 0:
                    d_plus[j >> 1] = math.inf
                else:
                    d_minus[j >> 1] = math.inf
            if bland:
                cand_p = np.flatnonzero(d_plus < -self._EPS_RC)
                cand_m = np.flatnonzero(d_minus < -self._EPS_RC)
                enter = None
                best = math.inf
                if cand_p.size:
                    enter = best = 2 * int(cand_p[0])
                if cand_m.size and 2 * int(cand_m[0]) + 1 < best:
                    enter = 2 * int(cand_m[0]) + 1
                if enter is None:
                    return t, s, logw, signw
            else:
                ip = int(np.argmin(d_plus))
                im = int(np.argmin(d_minus))
                if d_plus[ip] <= d_minus[im]:
                    enter, dent = 2 * ip, d_plus[ip]
                else:
                    enter, dent = 2 * im + 1, d_minus[im]
                if dent >= -self._EPS_RC:
                    return t, s, logw, signw
            x_e = self.points[enter >> 1]
            s_e = 1.0 if enter % 2 == 0 else -1.0
            lam_hat, _ = _lagrange_scaled(t, logw, signw, self.x0)
            lam_hat = np.maximum(s * lam_hat, 0.0)
            u_hat_l, _ = _lagrange_scaled(t, logw, signw, x_e)
            u_hat = s_e * s * u_hat_l
            pos = u_hat > 0.0
            if not np.any(pos):
                raise SolverError(
                    "simplex direction unbounded; the grid does not pin the "
                    "polynomial at x0"
                )
            ratios = np.where(pos, lam_hat / np.where(pos, u_hat, 1.0), math.inf)
            theta = float(ratios.min())
            ties = np.flatnonzero(ratios <= theta * (1.0 + 1e-12) + 1e-300)
            if bland:
                leave = min(ties, key=lambda i: self.basis[i])
            else:
                leave = max(ties, key=lambda i: u_hat[i])
            self.basis[leave] = enter
            self._cauchy_column(C, leave)
        raise SolverError(f"simplex exceeded {max_iter} iterations")


def _grid_density(n, k_intervals):
    """Grid points per interval for the initial LP."""
    return max(64, int(math.ceil(20 * (n + 1) / max(k_intervals, 1))))


def _nearest_distance(points, xs):
    """Distance from each x to the nearest of `points`, found among its two
    neighbours in sorted order."""
    pts = np.sort(points)
    right = np.clip(np.searchsorted(pts, xs), 1, len(pts) - 1)
    return np.minimum(np.abs(xs - pts[right - 1]), np.abs(xs - pts[right]))


def _scan_abs_max(evaluate, E, n, known=None):
    """Local maxima of |P| on E: dense Chebyshev-spaced scan per interval,
    each discrete peak, end samples included, polished by golden section.

    A peak bracket may straddle an active constraint point (where |P| = 1
    exactly) next to a genuine violation, which breaks the unimodality
    golden section needs; brackets are therefore split at every `known`
    constraint point they contain and each piece is polished separately.
    Raw scan samples witnessing |P| > 1 are kept as a safety net.
    """
    found = []
    brackets = []
    worst = -math.inf
    K = max(257, 8 * (n + 1))
    theta = np.linspace(0.0, math.pi, K)
    base = 0.5 * (1.0 - np.cos(theta))  # ascending in [0, 1]
    known = np.sort(known) if known is not None else None
    for iv in E.intervals:
        if iv.length == 0.0:
            worst = max(worst, abs(evaluate(iv.lo)))
            continue
        xs = iv.lo + iv.length * base
        vals = np.abs(evaluate(xs))
        worst = max(worst, float(vals.max()))
        found.extend(xs[vals > 1.0 + 1e-10].tolist())
        interior = np.flatnonzero(
            (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
        ) + 1
        left, right = interior - 1, interior + 1
        # an end sample that is a discrete peak may hide a bump before the
        # next sample
        if vals[0] >= vals[1]:
            left, right = np.append(left, 0), np.append(right, 1)
        if vals[-1] >= vals[-2]:
            left, right = np.append(left, K - 2), np.append(right, K - 1)
        if known is not None:
            first = np.searchsorted(known, xs[left], side="right")
            stop = np.searchsorted(known, xs[right], side="left")
        for k, (i, j) in enumerate(zip(left, right)):
            cuts = [xs[i], xs[j]]
            if known is not None:
                cuts = [xs[i], *known[first[k]:stop[k]].tolist(), xs[j]]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                if hi - lo >= 1e-15:
                    brackets.append((lo, hi))
    if brackets:
        los, his = np.array(brackets).T
        xp, vp = golden_max_many(lambda u: np.abs(evaluate(u)), los, his, 1e-12)
        worst = max(worst, float(vp.max()))
        found.extend(xp.tolist())
    return np.array(found), worst


def solve_extremal(E: CompactSet, x0: float, n: int, *, extension: bool = True,
                   warm_start=None) -> ExtremalResult:
    """M_n(x0, E) with the extremal polynomial, active points and extension.

    x0 inside E short-circuits to value 1 (the constant polynomial);
    otherwise the dual LP is solved on a Chebyshev grid and sharpened by
    exchange rounds.  The returned polynomial satisfies P(x0) = value > 0
    and |P| <= 1 + _FEAS_TOL on E.  `extension` also computes the
    n-extension P^{-1}([-1, 1]) and its case tag.

    `warm_start` takes the active points of a solve on a nearby instance;
    sweeps over slowly moving sets converge in a handful of pivots from it.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if not E.intervals:
        raise DomainError("E must be nonempty")
    if E.contains(x0):
        poly = ChebPoly(n, (1.0,) + (0.0,) * n, degree_deficient=n > 0)
        return ExtremalResult(
            value=1.0, poly=poly, active_points=(), active_signs=(),
            n_extension=E, case_tag="none",
        )

    grid = discretize(E, _grid_density(n, len(E.intervals)))
    lp = _ExchangeLP(grid, n, x0)
    seeds = np.asarray(warm_start, dtype=float) if warm_start is not None else None
    try:
        t, s, logw, signw = lp.solve(seeds)
    except SolverError:
        if seeds is None:
            raise
        lp.basis = None
        t, s, logw, signw = lp.solve()

    for _ in range(_REFINE_ROUNDS):
        ev = lambda xs: _bary_values(t, s, logw, signw, xs)
        peaks, worst = _scan_abs_max(ev, E, n, known=lp.points)
        if worst <= 1.0 + 10.0 * _ExchangeLP._EPS_RC or peaks.size == 0:
            break
        peaks = np.sort(peaks)
        peaks = peaks[np.concatenate(([True], np.diff(peaks) > 1e-12))]
        fresh = peaks[_nearest_distance(lp.points, peaks) > 1e-13]
        if fresh.size == 0:
            break
        lp.append_points(fresh)
        t, s, logw, signw = lp.solve()

    # value = sum_i s_i l_i(x0): same-sign terms at the optimum, so the log
    # form keeps full relative precision at any magnitude.
    lam_hat, L0 = _lagrange_scaled(t, logw, signw, lp.x0)
    raw = s * lam_hat
    if seeds is not None and float(raw.min()) < -1e-6 * max(float(raw.max()), 1e-300):
        # a corrupted warm basis shows up as a visibly infeasible solution;
        # one cold retry restores the invariant
        return solve_extremal(E, x0, n, extension=extension)
    lam = np.maximum(raw, 0.0)
    total = float(lam.sum())
    value = float(math.exp(math.log(total) + L0)) if total > 0.0 else 0.0
    with np.errstate(divide="ignore"):
        lam = np.exp(np.log(lam) + L0)

    coeffs = cheb_interp(lambda xs: _lagrange_values(t, s, logw, signw, xs), n)
    # sum_i s_i w_i is the leading coefficient of the interpolant
    wt = np.exp(logw - logw.max())
    lead = abs(float(np.sum(s * signw * wt))) / float(wt.sum())
    poly = ChebPoly(n, tuple(coeffs), degree_deficient=lead <= DEGREE_DEFICIENCY_REL)

    order = np.argsort(t)
    result = ExtremalResult(
        value=value,
        poly=poly,
        active_points=tuple(float(v) for v in t[order]),
        active_signs=tuple(int(v) for v in s[order]),
        n_extension=None,
        case_tag="none",
        dual_weights=tuple(float(v) for v in lam[order]),
    )
    if extension:
        ext, tag = n_extension(result, E)
        result = replace(result, n_extension=ext, case_tag=tag)
    return result


def n_extension(result: ExtremalResult, E: CompactSet):
    """Preimage P^{-1}([-1,1]) of a solved result's P and its case tag.

    Components are bounded by transversal crossings of P with the levels
    +-(1 + slack), slack being the (tiny) feasibility excess of |P| on E,
    so that E itself is never notched by roundoff at active points.  The
    tag classifies the structure relative to [-1, 1]: a separated interval
    beyond one of the endpoints, an extension attached at an endpoint, or
    no extension at all.
    """
    # equal signs at all nodes interpolate a constant
    if len(set(result.active_signs)) <= 1:
        return E, "none"
    deg = len(result.active_points) - 1
    evaluate = result.evaluate
    abs_p = lambda u: np.abs(evaluate(u))

    _, worst_on_E = _scan_abs_max(evaluate, E, deg)
    slack = max(0.0, worst_on_E - 1.0) + 1e-12
    level = 1.0 + slack

    R = 4.0
    while abs_p(-R) <= 2.0 * level or abs_p(R) <= 2.0 * level:
        R *= 4.0
        if R > 1e9:
            raise SolverError(
                "could not bracket the n-extension: |P| stays small far out "
                "(severe degree deficiency?)"
            )

    # critical points of P = peaks of |P| (log|P| is concave between roots)
    interior = np.cos(np.linspace(math.pi, 0.0, max(1024, 30 * deg)))
    s_out = np.linspace(0.0, math.acosh(R), max(257, 6 * deg))
    right = np.cosh(s_out)
    grid = np.unique(np.concatenate([-right[::-1], interior, right]))
    av = abs_p(grid)
    peak = np.flatnonzero((av[1:-1] >= av[:-2]) & (av[1:-1] >= av[2:])) + 1
    crit = golden_max_many(abs_p, grid[peak - 1], grid[peak + 1], 1e-12)[0]

    nodes = np.unique(np.concatenate([[-R], crit, [R]]))
    levels = np.array([level, -level])
    g = evaluate(nodes) - levels[:, None]
    k, idx = np.nonzero(np.sign(g[:, :-1]) * np.sign(g[:, 1:]) < 0)
    boundaries = np.sort(bisect_many(lambda u: evaluate(u) - levels[k],
                                     nodes[idx], nodes[idx + 1]))

    comps = []
    cuts = np.concatenate([[-R], boundaries, [R]])
    inside = abs_p(0.5 * (cuts[:-1] + cuts[1:])) <= level
    for lo, hi, keep in zip(cuts[:-1].tolist(), cuts[1:].tolist(), inside):
        if hi - lo <= 0 or not keep:
            continue
        if comps and lo - comps[-1][1] < 1e-12:
            comps[-1] = (comps[-1][0], hi)
        else:
            comps.append((lo, hi))
    if not comps:
        raise SolverError("n-extension came out empty; root isolation failed")

    cover_tol = max(1e-6, 10.0 * _FEAS_TOL)
    for iv in E.intervals:
        if not any(lo - cover_tol <= iv.lo and iv.hi <= hi + cover_tol
                   for lo, hi in comps):
            raise SolverError(
                f"E interval [{iv.lo}, {iv.hi}] is not covered by the computed "
                f"n-extension {comps}; clustered +-1 crossings beyond tol"
            )

    edge = max(_FEAS_TOL, 1e-7)
    tag = "none"
    if any(lo > 1.0 + edge for lo, hi in comps):
        tag = "right_interval"
    elif any(hi < -1.0 - edge for lo, hi in comps):
        tag = "left_interval"
    elif any(hi > 1.0 + edge and lo <= 1.0 + edge for lo, hi in comps):
        tag = "extend_right"
    elif any(lo < -1.0 - edge and hi >= -1.0 - edge for lo, hi in comps):
        tag = "extend_left"
    return CompactSet(tuple(Interval(lo, hi) for lo, hi in comps)), tag


def verify_feasibility(result, E: CompactSet, probes: int = 100_000,
                       feas_tol: float = _FEAS_TOL) -> FeasibilityReport:
    """Dense sampling check of |P| <= 1 + feas_tol over E (report only).

    Solved results are evaluated through their stable active-point form;
    bare polynomials fall back to coefficient evaluation.
    """
    evaluate = result.evaluate if isinstance(result, ExtremalResult) else result
    total = max(E.measure, 1e-300)
    worst_v = -math.inf
    worst_x = E.intervals[0].lo
    for iv in E.intervals:
        cnt = max(2, int(round(probes * iv.length / total))) if iv.length else 1
        xs = np.linspace(iv.lo, iv.hi, cnt)
        vals = np.abs(np.atleast_1d(evaluate(xs)))
        i = int(np.argmax(vals))
        if vals[i] > worst_v:
            worst_v = float(vals[i])
            worst_x = float(xs[i])
    return FeasibilityReport(
        max_violation=worst_v - 1.0, worst_x=worst_x, probes=probes, feas_tol=feas_tol
    )
