"""Finite-degree extremal values M_n(x0, E) by semi-infinite LP.

M_n(x0, E) is the largest value at x0 among degree-n polynomials bounded by
1 in modulus on the compact set E.  Discretizing E on Chebyshev-node grids
turns this into a finite LP

    maximize  sum_k p_k T_k(x0)   subject to  |sum_k p_k T_k(x_j)| <= 1,

whose dual is the standard-form problem

    minimize 1'lam   s.t.  sum_j lam_j s_j T(x_j) = T(x0),  lam >= 0,

with one column per (grid point, sign) pair.  A basis is a set of n+1
points t_i with signs s_i; with s_i = sign l_i(x0) its weights are
lam_i = |l_i(x0)|, so it is basic feasible and no phase 1 is needed.
Every solve starts cold, from the grid points nearest the quantiles k/n of
the equilibrium measure of E, whose density the extremal polynomial's
equioscillation follows, and moves them by Remez steps before the simplex
runs.  Each step is one global alternating exchange (`exchange`, after
Pachon & Trefethen, BIT 49, 2009): on each side of x0 the nodes move at
once to the extrema of the sign runs of P where |P| >= 1, wherever they
lie on that side.  The quantiles can round a band's share of the nodes
the wrong way, and only such a step can move a node from one band to
another on the same side of x0; from this start the simplex takes a few
pivots or none, so seeds from a neighbouring solve would save nothing.

Every basis of the start bounds M_n: a P with |P| <= 1 on E has P(x0) =
sum_i P(t_i) l_i(x0) <= sum_i |l_i(x0)|.  The start keeps that bound of its
current basis in `log_bound` and is resumable: `_start` places the
quantile nodes of a list of LPs, their equilibrium measures and CDFs
computed together (`_Equilibria`), and each `step` takes one exchange
step, which keeps every sign s_i = sign l_i(x0) and moves nodes only to
where s_i P >= 1, so the bound only falls; the start ends on a step that
does not lower it.  A caller ranking many candidates (the best-first loop
of `andrievskii`) starts them all at once, refines only the one whose
bound is highest, finishes it by `_finish` (the start's remaining steps,
the grid simplex and the exchange rounds, as `solve_extremal` runs them)
and drops the rest unsolved.
A grid end lo + length*1.0 can miss hi by an ulp, where |P| may exceed 1 by
about ulp * |P'|; the callers' margin of 1 + 1e-6 covers that.

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
The pricing values come from a Cauchy matrix 1/(x_j - t_i) kept in one
buffer per LP, one contiguous row per basis slot: only the rows whose slot
now holds another node are refilled, in place (a pivot's one row, a start
step's moved nodes), and the buffer is dropped, not copied, when the grid
grows.  Each basis is priced once: the start's converged step hands its
values of P to the grid simplex, and a round's exchange reuses the
simplex's last values, pricing only the appended points.

Exchange rounds then locate the true local maxima of |P| on E.  The
simplex's last pricing holds P at every grid point, and each discrete peak
of |P| on an interval's sorted grid is polished between its two grid
neighbours by lockstep Illinois steps on P' in the second form (`_peaks`;
Berrut & Trefethen, SIAM Rev. 2004, section 9); the grid is the only
sampling of E.  Most of those peaks are basis nodes, each ending two
brackets, where P = s_i and P' has a closed form in the weights
(`_node_slopes`): it is computed once for all n + 1 nodes, and only the
bracket ends off the nodes are evaluated.  The rounds append the polished
peaks as grid columns and take the start's exchange step on the grown
grid, which keeps the node count on each side of x0 and the signs, so the
moved basis stays feasible, and the simplex re-optimizes from it until
the grid values and the polished peaks certify |P| <= 1 + 1e-10.

The answer is its active points and signs (t, s), with the dual weights
lam_i = s_i l_i(x0), which sum to the value and give dM/de for an endpoint
e of E by the envelope theorem (`dvalue_dendpoint`).  Off E it is evaluated
in the first barycentric form l(x) sum_i s_i w_i / (x - t_i), l(x) kept in
logs; the second form loses all digits in the gaps at degree 100.  The
n-extension P^{-1}([-1,1]) is bounded by the crossings of P = +-level,
level just above the certified max_E |P|.  The signs s_i change n - 1
times over the active points, so at most one root of P lies outside their
hull, on the side where P's sign at infinity (that of sum_i s_i w_i)
differs from the outer s_i; a radius R where P(-R) and P(R) carry the
signs at -inf and +inf holds every root, and with them every component.
One evaluation on a dense grid out to R holding E's ends brackets the
crossings: between neighbouring samples P is monotone except across a
peak of |P|, and only a peak sampled below the level and not inside E
(where |P| < level) can hide two crossings, so only such peaks are
polished, by `_peaks` as on E: |P| is about 1 there, so next to it the
second form's error eps * Lebesgue(x) is as small as the first form's.
Lockstep Illinois steps then close every bracket to a few ulps.  As
|P(+-R)| is above the level, the sorted crossings alternate entering and
leaving the preimage, so consecutive pairs are its components, down to a
bracket one ulp wide at a root where no float has |P| <= level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _stats
from ._search import illinois_many
from .errors import DomainError, SolverError
from .intervals import CompactSet, Interval, discretize

CASE_TAGS = ("right_interval", "extend_right", "extend_left", "left_interval", "none")

# An interpolant of (t_i, s_i) whose leading coefficient sum_i s_i w_i is
# below this fraction of sum_i |w_i| has lower effective degree.
DEGREE_DEFICIENCY_REL = 1e-10

_REFINE_ROUNDS = 8        # cap on exchange rounds after the grid solve
_FEAS_TOL = 1e-9          # promised bound 1 + _FEAS_TOL on |P| over E
_ENDPOINT_ULPS = 4        # match of an endpoint against the active points
_PEAK_GAIN = 1e-14        # bound on the |P| gain left that ends a peak lane
_ROW_BLOCK = 256          # rows per block of the derivative temporaries


@dataclass(frozen=True)
class ExtremalResult:
    value: float
    degree: int                     # the n solved for
    degree_deficient: bool          # P has lower effective degree (`_leading`)
    active_points: tuple[float, ...]
    active_signs: tuple[int, ...]
    n_extension: CompactSet | None
    case_tag: str
    dual_weights: tuple[float, ...] = ()   # lam_i = s_i l_i(x0) per active point
    max_abs_p: float = 1.0          # max |P| on E from the last exchange scan

    # bounds on M_n: dual sum_i lam_i = P(x0), primal P(x0) / max_E |P|
    value_hi = property(lambda self: self.value)
    value_lo = property(lambda self: self.value / max(1.0, self.max_abs_p))
    rel_gap = property(lambda self: 1.0 - 1.0 / max(1.0, self.max_abs_p))

    def evaluate(self, x):
        """P(x) from the active points in the first barycentric form, which
        stays accurate off E (gaps included), unlike the second form; P = 1
        when x0 lies in E (no active points)."""
        if not self.active_points:
            return 1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))
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
        return -self.dual_weights[i] * s[i] * _node_slopes(t, s, logw, signw, [i])[0]

    @cached_property
    def _nodes(self):
        t = np.asarray(self.active_points)
        return (t, np.asarray(self.active_signs, dtype=float), *_bary_logweights(t))

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "degree": self.degree,
                "degree_deficient": self.degree_deficient,
                "active_points": list(self.active_points),
                "active_signs": list(self.active_signs),
                "n_extension": None
                if self.n_extension is None
                else [[iv.lo, iv.hi] for iv in self.n_extension.intervals],
                "case_tag": self.case_tag,
                "value_lo": self.value_lo,
                "value_hi": self.value_hi,
                "rel_gap": self.rel_gap,
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


# ----------------------------------------------------------------------
# Equilibrium measure
# ----------------------------------------------------------------------


_THETA = math.pi * (np.arange(64) + 0.5) / 64    # the charts' midpoint angles
_J = np.arange(1, 64)
_COSINES = np.cos(np.outer(_J, _THETA)) / 32     # cosine coefficients 1..63
_POINT_BLOCK = 4096       # grid points per chunk of LPs started together


class _Equilibria:
    """The equilibrium measures of a list of sets, computed together.

    Each density is |q(x)| / (pi sqrt|R(x)|), R = prod (x - e) over the
    band ends e, q of degree (bands - 1) with integral q / sqrt|R| = 0 over
    every gap, scaled so that the band masses sum to 1.  On a band or gap,
    x = m + h cos(theta) turns dx / sqrt|R| into dtheta / sqrt(prod of
    |x - e| over the other ends), even, periodic and smooth in theta unless
    another end is close; its cosine series from 64 midpoint samples gives
    the gap integrals (its mean) and, term by term, a band's mass up to x.
    The sets with k bands share each step: their charts are one (sets,
    2k - 1, 64) array, R a product taken one end at a time, the gap
    conditions (in the Chebyshev basis of each hull, well conditioned at
    any number of bands) one stacked solve.  Touching intervals merge;
    zero-length ones carry no mass, and a set of points has none."""

    def __init__(self, sets):
        ends = []
        for E in sets:
            bands = []
            for iv in E.intervals:
                if bands and iv.lo <= bands[-1][1]:
                    bands[-1][1] = max(bands[-1][1], iv.hi)
                elif iv.length > 0.0:
                    bands.append([iv.lo, iv.hi])
            ends.append(np.ravel(bands))
        k = np.array([e.size // 2 for e in ends], dtype=int)
        self.coef = [np.ones(1)] * len(sets)
        c0, cj = [np.empty(0)] * len(sets), [np.empty((0, _J.size))] * len(sets)
        cheb = np.polynomial.chebyshev
        for kk in sorted(set(k.tolist()) - {0}):     # np.unique would import numpy.ma
            group = np.flatnonzero(k == kk)
            e = np.array([ends[i] for i in group])
            lo, hi = e[:, :-1, None], e[:, 1:, None]
            x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(_THETA)
            R = np.ones_like(x)
            for i in range(2 * kk):     # charts i - 1 and i end at end i
                f = np.abs(x - e[:, i, None, None])
                f[:, max(i - 1, 0):i + 1] = 1.0
                R *= f
            w = 1.0 / np.sqrt(R)
            # u = off + scl x maps each hull onto [-1, 1]
            off, scl = np.polynomial.polyutils.mapparms((e[:, :1, None], e[:, -1:, None]), (-1, 1))
            V = cheb.chebvander(off + scl * x[:, 1::2], kk - 1)     # on the gap charts
            M = (np.swapaxes(V, -1, -2) @ w[:, 1::2, :, None])[..., 0]
            coef = np.hstack([np.linalg.solve(M[..., :-1], -M[..., -1:])[..., 0],
                              np.ones((group.size, 1))])
            density = np.abs(cheb.chebval(off + scl * x[:, ::2], coef.T[:, :, None, None],
                                          tensor=False)) * w[:, ::2] / math.pi
            mean = density.mean(axis=-1)
            cos = (_COSINES @ density[..., None])[..., 0] / _J
            for i, c, m, a, t in zip(group, coef, mean, cos, math.pi * mean.sum(axis=-1)):
                self.coef[i], c0[i], cj[i] = c / t, m / t, a / t
        # band tables over all sets: set i's bands are rows row0[i] to row0[i + 1]
        self.ends, self.row0 = np.concatenate(ends), np.cumsum([0, *k])
        self.below = np.concatenate([np.append(0.0, np.cumsum(c * math.pi)) for c in c0])
        self.c0 = np.concatenate(c0)
        self.cj = np.ascontiguousarray(np.concatenate(cj).T[::-1])   # j = 63 first

    def cdf(self, xs):
        """mu(E n (-inf, x]) at the points xs[i] of each set i (1-D arrays).

        A point inside a band adds that band's sine series to the mass of
        the bands before: one Clenshaw recurrence runs over the points
        inside the bands of all sets at once, each point reading its own
        band's coefficients."""
        sizes = [len(x) for x in xs]
        of = np.repeat(np.arange(len(xs)), sizes)      # each point's set
        band = [np.searchsorted(self.ends[2 * a + 1:2 * b:2], x, side="right")
                for a, b, x in zip(self.row0, self.row0[1:], xs)]
        row = self.row0[of] + np.concatenate(band)
        x = np.concatenate(xs)
        mass = self.below[row + of]
        inside = np.flatnonzero(row < self.row0[of + 1])
        inside = inside[self.ends[2 * row[inside]] < x[inside]]
        row, x = row[inside], x[inside]
        th = 2.0 * np.arctan2(np.sqrt(self.ends[2 * row + 1] - x), np.sqrt(x - self.ends[2 * row]))
        # sum_j cj_j sin(j th) = b_1 sin(th) by Clenshaw's recurrence
        b1 = b2 = np.zeros(x.size)
        two_cos = 2.0 * np.cos(th)
        for coefs in self.cj:
            b1, b2 = coefs[row] + two_cos * b1 - b2, b1
        mass[inside] += self.c0[row] * (math.pi - th) - b1 * np.sin(th)
        return np.split(mass, np.cumsum(sizes)[:-1])


def _equilibrium(E):
    """(q, cdf) of E alone, from `_Equilibria`: q a `Chebyshev` series on
    the hull of E's bands and cdf(xs) = mu(E n (-inf, x])."""
    eq = _Equilibria([E])
    q = np.polynomial.Chebyshev(eq.coef[0], domain=eq.ends[[0, -1]] if eq.ends.size else [-1, 1])
    return q, lambda xs: eq.cdf([np.ravel(xs).astype(float)])[0].reshape(np.shape(xs))[()]


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


def _node_slopes(t, s, logw, signw, i=slice(None)):
    """P'(t_i) = sum_{k != i} (w_k / w_i) (s_k - s_i) / (t_i - t_k) of the
    interpolant of (t_i, s_i) at the nodes i, by default all of them
    (Berrut & Trefethen 2004, section 9)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        node = (signw * signw[i, None] * np.exp(logw - logw[i, None])
                * (s - s[i, None]) / (t[i, None] - t))
    return np.where(np.isnan(node), 0.0, node).sum(axis=1)


def _bary_derivs(t, s, logw, signw, xs):
    """(P, P') at xs of the interpolant of (t_i, s_i) in the second form
    (Berrut & Trefethen 2004, section 9), d_i = x - t_i, D = sum_i w_i / d_i:
    P' = sum_i w_i (P - s_i) / d_i^2 / D.  A node hit x = t_i gives s_i and
    `_node_slopes`.  Rows go in blocks."""
    xs = np.asarray(xs, dtype=float)
    wt = signw * np.exp(logw - logw.max())
    out = np.empty((2, xs.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, xs.size, _ROW_BLOCK):
            d = xs[lo:lo + _ROW_BLOCK, None] - t
            C = wt / d
            den = C.sum(axis=1)
            p = (C @ s) / den
            dp = np.einsum("ij,ij->i", C, (p[:, None] - s) / d) / den
            if not np.isfinite(den).all():     # some row hits a node
                k, i = np.nonzero(d == 0.0)
                p[k] = s[i]
                dp[k] = _node_slopes(t, s, logw, signw, i)
            out[:, lo:lo + _ROW_BLOCK] = p, dp
    return out


def _leading(s, logw, signw):
    """The leading coefficient sum_i s_i w_i of the interpolant of (t_i, s_i),
    divided by sum_i |w_i|."""
    wt = np.exp(logw - logw.max())
    return float(np.sum(s * signw * wt)) / float(wt.sum())


def _lagrange_scaled(t, logw, signw, x):
    """(l_i(x) * exp(-L(x)), L(x)) with L(x) = sum_k log|x - t_k| + max_k log|w_k|.

    The common factor exp(L(x)) is dropped so the entries stay O(1) even
    when the Lagrange basis itself reaches the (huge) extremal value scale,
    and the weights are scaled by their largest, which on a short set at
    high degree is beyond the float range; ratios and signs are preserved
    exactly.  x of shape (m, 1) gives m rows.
    """
    d = x - t
    ad = np.abs(d)
    if np.any(ad == 0.0):
        raise SolverError(f"evaluation point {x} coincides with a basis node")
    log_ad = np.log(ad)
    top = logw.max()
    L = log_ad.sum(axis=-1) + top
    sign_prod = np.where((d < 0.0).sum(axis=-1) % 2 == 0, 1.0, -1.0)
    lhat = signw * sign_prod[..., None] * np.sign(d) * np.exp(logw - top - log_ad)
    return lhat, L


def _log_abs_sum(lhat, L):
    """log sum_i |l_i(x)| from `_lagrange_scaled` output at one x."""
    return math.log(float(np.abs(lhat).sum())) + float(L)


def _lagrange_values(t, s, logw, signw, xs):
    """First-form barycentric values exp(L) * sum_i s_i l_i exp(-L) of the
    interpolant of (t_i, s_i), the log of the sum added to L so that neither
    overflows alone; a value beyond the float range is +-inf.  An exact
    node hit returns its sign."""
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
        with np.errstate(divide="ignore", over="ignore"):
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

    def __init__(self, E, n, x0):
        self.E = E
        self.n = n
        self.r = n + 1
        self.x0 = float(x0)
        self.points = discretize(E, _grid_density(n, len(E.intervals)))
        self.basis = None
        # work done, for the counters: pivots per solve() call (the first is
        # the grid solve), nodes moved by exchange(), the start's steps, the
        # full-grid pricings and the Cauchy rows written
        self.pivots = []
        self.moved = 0
        self.steps = 0
        self.pricings = 0
        self.cauchy_rows = 0
        self.converged = False
        self.log_bound = math.inf   # log sum_i |l_i(x0)| of the start's basis
        self.release()

    def release(self):
        """Drop the pricing state: the kept Cauchy matrix and its rows, the
        cached nodes and the cached values of P, each keyed on the basis."""
        self.drop_cauchy()
        self._basis_state = self._priced = None

    def drop_cauchy(self):
        """Drop the kept Cauchy matrix, and so its memory, keeping the cached
        nodes and values of P: the next pricing fills a new one."""
        self._C = self._C_rows = None

    def append_points(self, new_points):
        """Grow the grid.  The Cauchy matrix is dropped, not copied, so two
        of them are never held at once; the cached values of P stay, and the
        next pricing of their basis prices only the new rows."""
        self.points = np.concatenate([self.points, new_points])
        self.drop_cauchy()

    def _initial_basis(self):
        """`_start` of this LP alone: its basis before the Remez steps."""
        _start([self])

    def step(self):
        """One exchange step of the start, moving its nodes to the extrema
        of P on their side of x0 (`exchange`), and the new basis's bound
        into `log_bound`.  The start has converged once a step does not
        lower the bound, as when it moves no node or a rounding tie moves one
        back and forth, or _REFINE_ROUNDS steps have run."""
        bound = self.log_bound
        if self.exchange():
            t, _, logw, signw = self._state()
            self.log_bound = _log_abs_sum(*_lagrange_scaled(t, logw, signw, self.x0))
        self.steps += 1
        self.converged = self.log_bound >= bound or self.steps == _REFINE_ROUNDS

    def _state(self):
        """The basis nodes (t, s, logw, signw), computed once per basis."""
        key = tuple(self.basis)
        if self._basis_state is None or self._basis_state[0] != key:
            t = self.points[[j >> 1 for j in key]]
            s = np.array([1.0 if j % 2 == 0 else -1.0 for j in key])
            self._basis_state = key, (t, s, *_bary_logweights(t))
        return self._basis_state[1]

    def _cauchy(self):
        """Pricing matrix C[i, j] = 1/(x_j - t_i) over basis slots and grid
        points, one contiguous row per slot.

        One buffer is kept per LP, and only the rows whose slot holds
        another node than the buffer's are refilled, in place
        (`_cauchy_column`, which also refills a pivot's row).  The grid
        points are distinct, so the only exact node hit in row i is the
        column of basis node i itself; it is stored as 0 instead of inf and
        its pricing value is set by index in `_price`.
        """
        if self._C is None:
            self._C = np.empty((self.r, len(self.points)))
            self._C_rows = [-1] * self.r
        for i, j in enumerate(self.basis):
            if self._C_rows[i] != j >> 1:
                self._cauchy_column(i)
        return self._C

    def _cauchy_column(self, i):
        """Refill row i of the kept matrix, in place, after basis slot i
        changed node (a pivot's entering column); no buffer, no work."""
        if self._C is None:
            return
        p = self.basis[i] >> 1
        row = self._C[i]
        np.subtract(self.points, self.points[p], out=row)
        row[p] = math.inf           # 1/inf: the node's own entry is 0
        np.divide(1.0, row, out=row)
        self._C_rows[i] = p
        self.cauchy_rows += 1

    def _price(self, C, t, s, logw, signw):
        """Interpolant values in the second barycentric form at the grid's
        last C.shape[1] points, from their columns of the slot-major
        pricing matrix C: the whole grid from `_cauchy`, or the points
        appended since a pricing."""
        lo = len(self.points) - C.shape[1]
        wt = signw * np.exp(logw - logw.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = ((wt * s) @ C) / (wt @ C)
        rows = np.array([j >> 1 for j in self.basis]) - lo
        vals[rows[rows >= 0]] = s[rows >= 0]
        bad = np.flatnonzero(~np.isfinite(vals))
        vals[bad] = s[np.argmin(np.abs(self.points[lo + bad, None] - t), axis=1)]
        return vals

    def _values(self):
        """P at every grid point for the current basis, each basis priced
        once: the values of the last pricing are kept, keyed on the basis
        and the grid size, and a grid grown since adds only its new rows."""
        key = tuple(self.basis)
        nodes = self._state()
        if self._priced is not None and self._priced[0] == key:
            vals = self._priced[1]
            if len(vals) < len(self.points):
                with np.errstate(divide="ignore"):
                    C = 1.0 / (self.points[len(vals):] - nodes[0][:, None])
                vals = np.concatenate([vals, self._price(C, *nodes)])
        else:
            vals = self._price(self._cauchy(), *nodes)
            self.pricings += 1
        self._priced = key, vals
        return vals

    def exchange(self):
        """One global alternating exchange (Pachon & Trefethen, BIT 49,
        2009): every basis node moves at once to an extremum of s_i P on
        the grid, anywhere on its side of x0; returns how many moved.

        On each side of x0, ordered outward, the sign runs of P that reach
        |P| >= 1 give their maxima, neighbouring runs of one sign merge, and
        `_alternating_cut` keeps as many extrema as the side has nodes, the
        nearest of sign +1 and alternating outward.  The k-th node outward
        takes the k-th extremum, unless that extremum's |P| does not exceed
        1 and the node already lies in its merged run: a node moves only on
        a strict gain.  Every count per side, every sign s_i = sign l_i(x0)
        and with them lam_i >= 0 are kept, so the moved basis is basic
        feasible; as s_i P >= 1 at every new node, its bound sum_i |l_i(x0)|
        <= P(x0) is no higher.  A basis with some lam_i < 0 is left as it is,
        since moving it would carry the infeasibility along.
        """
        t, s, logw, signw = self._state()
        lam_hat, _ = _lagrange_scaled(t, logw, signw, self.x0)
        if np.any(s * lam_hat < 0.0):
            return 0
        pv = self._values()
        # grid and slots outward from x0: the right side ascending, then the
        # left side descending
        order, n_right = _outward(self.points, self.x0)
        slots, need_right = _outward(t, self.x0)
        # the outward points where |P| >= 1: group g holds those from
        # high[first[g]] to the next group, all of one sign and one side
        high = np.flatnonzero(np.abs(pv[order]) >= 1.0)
        vh = pv[order[high]]
        av = np.abs(vh)
        key = (vh > 0.0) + 2 * (high >= n_right)
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        gtop = np.maximum.reduceat(av, first)
        # each group's first point at its maximum
        hits = np.flatnonzero(av == np.repeat(gtop, np.diff(np.append(first, high.size))))
        gbest = hits[np.searchsorted(hits, first)]
        # each side cut to its node count: right first, as in `slots`
        gplus, split = key[first] & 1, int(np.count_nonzero(key[first] < 2))
        picked = np.concatenate([
            _alternating_cut(gtop[:split], gplus[:split], need_right),
            split + _alternating_cut(gtop[split:], gplus[split:], self.r - need_right)])
        # every node is a point of |P| = 1, so some group holds it: the k-th
        # node outward is the k-th node among the high points
        basis = np.array(self.basis)
        node = np.zeros(order.size, dtype=bool)
        node[basis >> 1] = True
        at = np.flatnonzero(node[order[high]])
        stay = (np.searchsorted(first, at, side="right") - 1 == picked) \
            & ((gtop[picked] <= 1.0) | (at == gbest[picked]))
        move = slots[~stay]
        basis[move] = 2 * order[high[gbest[picked[~stay]]]] + (basis[move] & 1)
        self.basis = basis.tolist()
        self.moved += move.size
        if move.size:       # the values kept are the old basis's
            self._priced = None
        return int(move.size)

    def solve(self):
        """The simplex from the current basis (placed and stepped first if
        there is none yet).  Returns the optimal nodes (t, s, logw, signw)
        and P's values at every grid point from the last pricing, which
        optimality bounds by 1 + _EPS_RC in modulus."""
        m = len(self.points)
        if self.basis is None:
            self._initial_basis()
        while not self.converged:
            self.step()
        max_iter = 2000 + 60 * self.r
        self.pivots.append(0)
        for _ in range(max_iter):
            t, s, logw, signw = self._state()
            lam_hat, _ = _lagrange_scaled(t, logw, signw, self.x0)
            lam_hat *= s
            # roundoff may leave a weight just below 0; a visibly negative one
            # is an infeasible basis, which no pivot repairs
            i = int(np.argmin(lam_hat))
            if lam_hat[i] < -1e-6 * lam_hat.max():
                raise SolverError(f"infeasible basis: slot {i} at x = {t[i]!r} has lam = "
                                  f"{lam_hat[i] / lam_hat.max():.3g} * max lam")
            pv = self._values()
            d_plus = 1.0 - pv
            d_minus = 1.0 + pv
            # Basic columns have reduced cost exactly 0; mask out roundoff.
            for j in self.basis:
                if j % 2 == 0:
                    d_plus[j >> 1] = math.inf
                else:
                    d_minus[j >> 1] = math.inf
            ip = int(np.argmin(d_plus))
            im = int(np.argmin(d_minus))
            if d_plus[ip] <= d_minus[im]:
                enter, dent = 2 * ip, d_plus[ip]
            else:
                enter, dent = 2 * im + 1, d_minus[im]
            if dent >= -self._EPS_RC:
                return (t, s, logw, signw), pv
            x_e = self.points[enter >> 1]
            s_e = 1.0 if enter % 2 == 0 else -1.0
            lam_hat = np.maximum(lam_hat, 0.0)
            u_hat_l, _ = _lagrange_scaled(t, logw, signw, x_e)
            u_hat = s_e * s * u_hat_l
            pos = u_hat > 0.0
            if not np.any(pos):
                raise SolverError(f"simplex direction unbounded at n = {self.n} on {m} grid "
                                  f"points: entering x = {float(x_e)!r}; the grid does not pin "
                                  f"the polynomial at x0")
            ratios = np.where(pos, lam_hat / np.where(pos, u_hat, 1.0), math.inf)
            theta = float(ratios.min())
            ties = np.flatnonzero(ratios <= theta * (1.0 + 1e-12) + 1e-300)
            if not ties.size:   # NaN weights or directions leave no ratio to compare
                raise SolverError(f"ratio test found no leaving slot at n = {self.n} on {m} "
                                  f"grid points: entering x = {float(x_e)!r}, theta = {theta!r}")
            leave = max(ties, key=lambda i: u_hat[i])
            self.basis[leave] = enter
            self._cauchy_column(leave)
            self.pivots[-1] += 1
        raise SolverError(
            f"simplex exceeded {max_iter} pivots at n = {self.n} on {m} grid points; "
            f"entering reduced cost {dent:.3g} at the cap"
        )

    def count(self):
        """Add this LP's work to the active counters: a solve, or a start
        left before the simplex (`lp.bounded`)."""
        rounds = self.pivots[1:]
        _stats.add({
            "lp.solves" if self.pivots else "lp.bounded": 1, "lp.pivots": sum(self.pivots),
            "lp.grid_pivots": sum(self.pivots[:1]),
            "lp.exchange_rounds": len(rounds), "lp.round_pivots_max": max(rounds, default=0),
            "lp.nodes_moved": self.moved, "lp.start_steps": self.steps,
            "lp.pricings": self.pricings, "lp.cauchy_rows": self.cauchy_rows,
        })


def _start(lps):
    """Place every LP's start basis, before its Remez steps: the LPs go
    through one `_Equilibria` and its `cdf` in chunks of about _POINT_BLOCK
    grid points, which bounds the temporaries, and each LP's basis and
    bound are those of its start alone.

    The nodes are the grid points nearest the quantiles k/n of the
    equilibrium measure of E.  Signs s_i = sign l_i(x0) make every
    lam_i = |l_i(x0)| > 0: basic feasible.
    """
    chunk, size = [], 0
    for lp in lps:
        if len(lp.points) < lp.r:
            raise SolverError(f"grid supplies {len(lp.points)} points for {lp.r} coefficients")
        chunk.append(lp)
        size += len(lp.points)
        if size < _POINT_BLOCK and lp is not lps[-1]:
            continue
        orders = [np.argsort(c.points) for c in chunk]
        cdfs = _Equilibria([c.E for c in chunk]).cdf([c.points[o] for c, o in zip(chunk, orders)])
        for c, order, F in zip(chunk, orders, cdfs):
            F, q = np.maximum.accumulate(F), np.linspace(0.0, 1.0, c.r)
            j = np.clip(np.searchsorted(F, q), 1, len(F) - 1)
            j -= q - F[j - 1] < F[j] - q
            k = np.arange(c.r)      # distinct points, in order
            idx = order[np.minimum(np.maximum.accumulate(j - k), len(F) - c.r) + k]
            lhat, L = _lagrange_scaled(c.points[idx], *_bary_logweights(c.points[idx]), c.x0)
            c.basis, c.log_bound = (2 * idx + (lhat < 0.0)).tolist(), _log_abs_sum(lhat, L)
        chunk, size = [], 0


def _outward(x, x0):
    """Indices of x ordered outward from x0, those right of x0 ascending and
    then those left of it descending, and how many lie right of it."""
    order = np.argsort(x)
    k = int(np.searchsorted(x[order], x0))
    return np.concatenate([order[k:], order[:k][::-1]]), x.size - k


def _alternating_cut(top, plus, need):
    """Indices of `need` of one side's alternating extrema (|P| maxima `top`
    and signs `plus`, ordered outward from x0), keeping the pattern of the
    nodes: +1 nearest x0, alternating outward.

    A nearest extremum of sign -1 leaves first.  Then, smallest first, an
    extremum leaves together with its smaller neighbour (the nearest with
    its only one), so the rest still alternates.  Only the outermost leaves
    alone: when it is the smallest, or when one extremum is too many.  The
    interpolant of a feasible basis has at most n + 1 sign runs and its
    nodes fill at least n, so there at most one extremum is too many, the
    outermost on one side."""
    keep = np.arange(int(top.size > 0 and not plus[0]), top.size)
    while keep.size > need:
        k = int(np.argmin(top[keep]))
        if keep.size == need + 1 or k == keep.size - 1:
            keep = keep[:-1]
        else:
            j = k + 1 if k == 0 or top[keep[k + 1]] < top[keep[k - 1]] else k - 1
            keep = np.delete(keep, [k, j])
    return keep


def _grid_density(n, k_intervals):
    """Grid points per interval for the initial LP.  The grid is also the
    sample set on which `_scan_abs_max` finds the peaks of |P|, so this
    density is what resolves P's oscillations."""
    return max(64, int(math.ceil(20 * (n + 1) / max(k_intervals, 1))))


def _nearest_distance(points, xs):
    """Distance from each x to the nearest of `points`, found among its two
    neighbours in sorted order."""
    pts = np.sort(points)
    right = np.clip(np.searchsorted(pts, xs), 1, len(pts) - 1)
    return np.minimum(np.abs(xs - pts[right - 1]), np.abs(xs - pts[right]))


def _end_derivs(nodes, xs):
    """(P, P') at bracket ends xs: an end at a node t_i reads s_i and its
    slope, all nodes' slopes computed at once (`_node_slopes`), and only
    the other ends go to `_bary_derivs`."""
    t, s = nodes[:2]
    hit = xs[:, None] == t
    on = hit.any(axis=1)
    out = np.empty((2, xs.size))
    out[:, ~on] = _bary_derivs(*nodes, xs[~on])
    if on.any():
        i = hit[on].argmax(axis=1)
        out[:, on] = s[i], _node_slopes(*nodes)[i]
    return out


def _peaks(nodes, los, his, signs):
    """Maxima (xs, |P(xs)|) of |P| on the brackets [los, his] in lockstep,
    and the evaluations of P they took, each one over every lane open.
    The bracket ends are one evaluation (`_end_derivs`: an end at a node
    reads s_i and its node slope), each trial one `_bary_derivs` call.

    A lane is live when signs * P' rises at its low end and falls at its
    high end, else the better end wins.  Illinois steps on -signs * P'
    close the live lanes, every trial keeping the largest |P| it sees.  A
    lane ends when |P'| (b - a) at its trial, which bounds the gain left
    where |P| is concave, is at most _PEAK_GAIN, or when its bracket is at
    most 4 ulps wide: regula falsi cannot shrink two adjacent floats."""
    m = len(los)
    P, dP = _end_derivs(nodes, np.concatenate([los, his]))
    evals = 1
    best_x = np.where(abs(P[m:]) > abs(P[:m]), his, los)
    best_f = np.maximum(abs(P[m:]), abs(P[:m]))
    ga, gb = signs * dP[:m], signs * dP[m:]
    live = np.flatnonzero((ga > 0.0) & (gb < 0.0))

    def slope(x, lanes):    # -signs * P' at x, keeping the largest |P|
        nonlocal evals
        evals += 1
        k = live[lanes]
        P, dP = _bary_derivs(*nodes, x)
        up = abs(P) > best_f[k]
        best_x[k[up]], best_f[k[up]] = x[up], abs(P[up])
        return -signs[k] * dP

    illinois_many(slope, los[live], his[live], -ga[live], -gb[live],
                  lambda a, b, g: (abs(g) * (b - a) <= _PEAK_GAIN)
                  | ~(b - a > 4.0 * np.spacing(np.maximum(abs(a), abs(b)))))
    return best_x, best_f, evals


def _scan_abs_max(nodes, E, points, values):
    """Local maxima of |P| on E for nodes = (t, s, logw, signw), from its
    `values` at the LP grid `points` (the simplex's last pricing).

    Each discrete peak of |P| on an interval's sorted points, end points
    included, is polished by `_peaks` on the brackets to its two grid
    neighbours, its evaluations of P counted in `lp.polish_evals`.  Such a
    peak is mostly a basis node, read with the other nodes' ends from
    their slopes, computed once per scan.  No grid point lies inside a
    bracket, so an active point (|P| = 1 exactly) next to a violation
    bounds the bracket instead of breaking its unimodality.
    Returns the points found, the largest |P| over the grid and the
    polished peaks, and its x."""
    order = np.argsort(points)
    xs, pv = points[order], values[order]
    av = np.abs(pv)
    # cut[k]: xs[k - 1] and xs[k] lie on different intervals of E
    cut = np.zeros(xs.size + 1, dtype=bool)
    cut[[0, -1]] = True
    cut[np.searchsorted(xs, [0.5 * (lo + hi) for lo, hi in E.gaps()])] = True
    left = np.where(cut[:-1], -1.0, np.roll(av, 1))
    right = np.where(cut[1:], -1.0, np.roll(av, -1))
    peak = np.flatnonzero((av >= left) & (av >= right))
    # the peaks with a neighbour on the left, and those with one on the right
    lq, rq = peak[~cut[peak]], peak[~cut[peak + 1]]
    los = np.concatenate([xs[lq - 1], xs[rq]])
    his = np.concatenate([xs[lq], xs[rq + 1]])
    signs = np.where(pv[np.concatenate([lq, rq])] >= 0.0, 1.0, -1.0)
    xp, vp, evals = _peaks(nodes, los, his, signs)
    _stats.add({"lp.polish_evals": evals})
    xs, vals = np.concatenate([xs, xp]), np.concatenate([av, vp])
    i = int(np.argmax(vals))
    return xp, float(vals[i]), float(xs[i])


def _optimize(lp, E):
    """The grid solve and the exchange rounds of `solve_extremal`.

    Returns (t, s, logw, signw, raw, L0, worst): the optimal basis, its
    scaled dual weights s_i l_i(x0) exp(-L0) and the certified max_E |P|.
    """
    nodes, values = lp.solve()
    for round_ in range(_REFINE_ROUNDS + 1):
        t, s, logw, signw = nodes
        # value = sum_i s_i l_i(x0): same-sign terms at the optimum, so the
        # log form keeps full relative precision at any magnitude.
        lam_hat, L0 = _lagrange_scaled(t, logw, signw, lp.x0)
        raw = s * lam_hat
        peaks, worst, worst_x = _scan_abs_max(nodes, E, lp.points, values)
        if worst <= 1.0 + 10.0 * _ExchangeLP._EPS_RC:
            return t, s, logw, signw, raw, L0, worst
        peaks = np.sort(peaks)
        peaks = peaks[np.concatenate(([True], np.diff(peaks) > 1e-12))]
        fresh = peaks[_nearest_distance(lp.points, peaks) > 1e-13]
        if round_ == _REFINE_ROUNDS or fresh.size == 0:
            raise SolverError(f"exchange round {round_} left max |P| - 1 = {worst - 1.0:.3g}"
                              f" on E at x = {worst_x!r} ({fresh.size} new points)")
        lp.append_points(fresh)
        # the whole basis moves to the extrema among the fresh peaks in one
        # step; the simplex then only settles what that step could not
        lp.exchange()
        nodes, values = lp.solve()


def solve_extremal(E: CompactSet, x0: float, n: int, *,
                   extension: bool = True) -> ExtremalResult:
    """M_n(x0, E) with the extremal polynomial's active points and signs,
    its dual weights and its extension.

    x0 inside E short-circuits to value 1 (the constant polynomial);
    otherwise the dual LP is solved on a Chebyshev grid and sharpened by
    exchange rounds until the grid and its polished peaks certify max_E |P|
    <= 1 + 1e-10 (`max_abs_p`, `value_lo`, `rel_gap`), else SolverError
    after _REFINE_ROUNDS rounds.  The returned polynomial satisfies P(x0) =
    value > 0.  `extension` also computes P^{-1}([-1, 1]) and its case tag.
    A non-finite x0 raises DomainError, and so do an E of at most n
    points off x0, on which M_n is unbounded, and a value beyond the float
    range.

    Every solve starts cold, from the equilibrium quantiles of E.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if not E.intervals:
        raise DomainError("E must be nonempty")
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    if E.contains(x0):
        return ExtremalResult(
            value=1.0, degree=n, degree_deficient=n > 0, active_points=(), active_signs=(),
            n_extension=E, case_tag="none",
        )
    points = {iv.lo for iv in E.intervals}
    if all(iv.length == 0.0 for iv in E.intervals) and len(points) <= n:
        raise DomainError(f"M_n is unbounded: E is a set of {len(points)} points and n = {n}")
    return _finish(_ExchangeLP(E, n, x0), extension)


def _finish(lp, extension):
    """`solve_extremal` on the LP's set from wherever its start stands: the
    start's remaining steps, the grid simplex and the exchange rounds."""
    E, n = lp.E, lp.n
    try:
        t, s, logw, signw, raw, L0, worst = _optimize(lp, E)
    finally:
        lp.count()
        lp.release()

    lam = np.maximum(raw, 0.0)
    total = float(lam.sum())
    log_value = math.log(total) + L0 if total > 0.0 else -math.inf
    try:
        value = math.exp(log_value)
    except OverflowError:
        raise DomainError(f"M_n = exp({log_value:.3f}) is beyond the float range") from None
    with np.errstate(divide="ignore"):
        lam = np.exp(np.log(lam) + L0)

    order = np.argsort(t)
    result = ExtremalResult(
        value=value,
        degree=n,
        degree_deficient=abs(_leading(s, logw, signw)) <= DEGREE_DEFICIENCY_REL,
        active_points=tuple(float(v) for v in t[order]),
        active_signs=tuple(int(v) for v in s[order]),
        n_extension=None,
        case_tag="none",
        dual_weights=tuple(float(v) for v in lam[order]),
        max_abs_p=worst,
    )
    if extension:
        ext, tag = n_extension(result, E)
        result = replace(result, n_extension=ext, case_tag=tag)
    return result


def n_extension(result: ExtremalResult, E: CompactSet):
    """Preimage P^{-1}([-1,1]) of a solved result's P and its case tag.

    E must be the set `result` was solved on.  Components are bounded by
    the crossings of P with +-level, level = 1 + slack, slack being the
    (tiny) excess of the certified max_E |P| (`max_abs_p`) over 1, plus
    1e-12, so that E itself is never notched by roundoff at active points.
    The radius R grows by fours from 4 until |P(+-R)| > 2 level and P(-R)
    and P(R) have P's signs at -inf and +inf, (-1)^n sign(sum_i s_i w_i)
    and sign(sum_i s_i w_i); the sign test is skipped when P is
    degree-deficient.  The active signs leave at most one root of P outside
    the active points' hull, so then every root, and with it every
    component, lies inside +-R.  P is evaluated once on Chebyshev samples
    of [-1, 1], cosh-spaced ones out to R and E's ends.  A sampled peak of
    |P| below the level and outside E may hide two crossings, so `_peaks`
    polishes it between its two neighbours first.  Each sign change of P -+
    level between neighbouring samples brackets one crossing, which
    lockstep Illinois steps close to 4 ulps; each boundary is its bracket's
    end inside the preimage.  |P| exceeds the level at +-R, so the sorted
    boundaries alternate entering and leaving the preimage, and each
    consecutive pair is one component: where no float lies inside, a
    bracket a few ulps wide at a root.  An odd count raises SolverError.
    The tag classifies the structure relative to [-1, 1]: a separated
    interval beyond one of the endpoints, an extension attached at an
    endpoint, or no extension at all.  Counters: `ext.calls`, `ext.steps`
    (evaluations of P, each over all lanes, the polish's included) and
    `ext.polished` (the peaks polished).
    """
    _stats.add({"ext.calls": 1})
    # equal signs at all nodes interpolate a constant
    if len(set(result.active_signs)) <= 1:
        return E, "none"
    deg = len(result.active_points) - 1
    level = 1.0 + max(0.0, result.max_abs_p - 1.0) + 1e-12

    def evaluate(u):
        _stats.add({"ext.steps": 1})
        return result.evaluate(u)

    # P's signs at -inf and +inf; 0, so never tested, when P is degree-deficient
    far = np.sign(_leading(*result._nodes[1:])) * np.array([(-1.0) ** deg, 1.0])
    if result.degree_deficient:
        far = 0.0
    R = 4.0
    while np.any(np.abs(pR := evaluate(np.array([-R, R]))) <= 2.0 * level) or np.any(pR * far < 0):
        R *= 4.0
        if R > 1e9:
            raise SolverError(
                "could not bracket the n-extension: |P| stays small far out "
                "(severe degree deficiency?)"
            )

    ends = np.array([[iv.lo, iv.hi] for iv in E.intervals])
    s_out = np.cosh(np.linspace(0.0, math.acosh(R), max(257, 6 * deg)))
    xs = np.unique(np.concatenate([-s_out, np.cos(np.linspace(math.pi, 0.0, max(1024, 30 * deg))),
                                   s_out, ends.ravel()]))
    ps = evaluate(xs)
    # P is monotone between neighbouring samples except across a peak of
    # |P|, and a peak sampled below the level may rise above it between
    # samples, hiding two crossings.  A peak whose neighbours lie in one
    # interval of E stays below max_E |P| < level; the others are polished.
    av = np.abs(ps)
    peak = np.flatnonzero((av[1:-1] >= av[:-2]) & (av[1:-1] >= av[2:]) & (av[1:-1] < level)) + 1
    k = np.clip(np.searchsorted(ends[:, 0], xs[peak + 1], side="right") - 1, 0, None)
    peak = peak[(xs[peak - 1] < ends[k, 0]) | (xs[peak + 1] > ends[k, 1])]
    _stats.add({"ext.polished": peak.size})
    if peak.size:
        xp, _, evals = _peaks(result._nodes, xs[peak - 1], xs[peak + 1],
                              np.where(ps[peak] >= 0.0, 1.0, -1.0))
        _stats.add({"ext.steps": evals})
        xs, ps = np.concatenate([xs, xp]), np.concatenate([ps, evaluate(xp)])
        order = np.argsort(xs)
        xs, ps = xs[order], ps[order]

    g = ps - np.array([[level], [-level]])
    row, j = np.nonzero((g[:, :-1] > 0.0) != (g[:, 1:] > 0.0))
    target, up = np.where(row == 0, level, -level), np.where(g[row, j + 1] > 0.0, 1.0, -1.0)
    a, b = illinois_many(
        lambda u, lane: up[lane] * (evaluate(u) - target[lane]), xs[j], xs[j + 1],
        up * g[row, j], up * g[row, j + 1],
        lambda a, b, _: ~(b - a > 4.0 * np.spacing(np.maximum(abs(a), abs(b)))))  # nan ends too
    # where |P| rises through the level to the right, a is the inside end;
    # |P(+-R)| > level, so the sorted crossings alternate entering and
    # leaving the preimage, and each pair bounds one component
    boundaries = np.sort(np.where(up * target > 0.0, a, b))
    if boundaries.size % 2:
        raise SolverError(f"n-extension found an odd count of level crossings: {boundaries.size}")
    comps = boundaries.reshape(-1, 2).tolist()

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


def verify_feasibility(result: ExtremalResult, E: CompactSet, probes: int = 100_000,
                       feas_tol: float = _FEAS_TOL) -> FeasibilityReport:
    """Dense sampling check of |P| <= 1 + feas_tol over E (report only), with
    P evaluated from the result's active points (`ExtremalResult.evaluate`).
    """
    total = max(E.measure, 1e-300)
    worst_v = -math.inf
    worst_x = E.intervals[0].lo
    for iv in E.intervals:
        cnt = max(2, int(round(probes * iv.length / total))) if iv.length else 1
        xs = np.linspace(iv.lo, iv.hi, cnt)
        vals = np.abs(np.atleast_1d(result.evaluate(xs)))
        i = int(np.argmax(vals))
        if vals[i] > worst_v:
            worst_v = float(vals[i])
            worst_x = float(xs[i])
    return FeasibilityReport(
        max_violation=worst_v - 1.0, worst_x=worst_x, probes=probes, feas_tol=feas_tol
    )
