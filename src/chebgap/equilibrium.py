"""The equilibrium measure of a compact set E of the real line, whose
quantiles k/n place the LP start of `extremal` (`extremal._start`)."""

import math

import numpy as np

_THETA = math.pi * (np.arange(64) + 0.5) / 64    # the charts' midpoint angles
_J = np.arange(1, 64)
_COSINES = np.cos(np.outer(_J, _THETA)) / 32     # cosine coefficients 1..63


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
