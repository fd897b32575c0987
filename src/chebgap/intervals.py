"""Geometry of compact constraint sets.

A constraint set is a finite union of disjoint closed intervals on the real
line.  This module builds the one-gap sets E(alpha, delta) = [-1,1] minus the
open gap (alpha-delta, alpha+delta), measures sets, produces Chebyshev-node
grids for the LP oracle, and draws seeded random multi-gap sets of prescribed
measure for brute-force experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Absolute tolerance for merging duplicated grid points (shared endpoints).
DEDUP_TOL = 1e-14


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate (lo == hi) is allowed."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise DomainError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x, tol=0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


@dataclass(frozen=True)
class CompactSet:
    """Ordered union of non-overlapping closed intervals.

    Intervals are sorted by left endpoint and may touch at single points but
    must not overlap with positive measure.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(
            iv if isinstance(iv, Interval) else Interval(float(iv[0]), float(iv[1]))
            for iv in self.intervals
        )
        ivs = tuple(sorted(ivs, key=lambda iv: iv.lo))
        for left, right in zip(ivs, ivs[1:]):
            if right.lo < left.hi:
                raise DomainError(
                    f"intervals overlap: [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}]"
                )
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return float(sum(iv.length for iv in self.intervals))

    @property
    def hull(self) -> Interval:
        if not self.intervals:
            raise DomainError("empty set has no hull")
        return Interval(self.intervals[0].lo, self.intervals[-1].hi)

    def contains(self, x, tol=0.0) -> bool:
        return any(iv.contains(x, tol) for iv in self.intervals)

    def gaps(self) -> list[tuple[float, float]]:
        """Open gaps strictly between consecutive intervals."""
        out = []
        for left, right in zip(self.intervals, self.intervals[1:]):
            if right.lo > left.hi:
                out.append((left.hi, right.lo))
        return out

    def to_json(self) -> str:
        return json.dumps([[iv.lo, iv.hi] for iv in self.intervals])

    @classmethod
    def from_json(cls, text: str) -> "CompactSet":
        try:
            pairs = json.loads(text)
            return cls(tuple(Interval(float(lo), float(hi)) for lo, hi in pairs))
        except (ValueError, TypeError) as exc:
            if isinstance(exc, DomainError):
                raise
            raise DomainError(f"cannot parse interval set from {text!r}: {exc}") from exc


@dataclass(frozen=True)
class GapParams:
    """Parameters (alpha, delta) of the one-gap set E(alpha, delta).

    Requires 0 < delta < 1 and delta - 1 < alpha <= 0; by evenness of the
    extremal problem only nonpositive gap centers are considered.
    """

    alpha: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if not (self.delta - 1.0 < self.alpha <= 0.0):
            raise DomainError(
                f"alpha must lie in (delta-1, 0], got alpha={self.alpha}, delta={self.delta}"
            )

    @property
    def a(self) -> float:
        """Left gap endpoint alpha - delta."""
        return self.alpha - self.delta

    @property
    def b(self) -> float:
        """Right gap endpoint alpha + delta."""
        return self.alpha + self.delta


def make_gap_set(p: GapParams) -> CompactSet:
    """Build E(alpha, delta) = [-1, alpha-delta] u [alpha+delta, 1].

    The measure is 2 - 2*delta independently of alpha.  Rejects gaps touching
    -1 (the degenerate case is the single-interval set [-1+2*delta, 1]).
    """
    if p.a <= -1.0:
        raise DomainError(
            f"gap touches -1 (alpha-delta={p.a}); use the single-interval set instead"
        )
    return CompactSet((Interval(-1.0, p.a), Interval(p.b, 1.0)))


def discretize(E: CompactSet, density: int) -> np.ndarray:
    """Chebyshev-node grid on E with `density` points per interval.

    Each positive-length interval receives Chebyshev-Lobatto points mapped
    affinely onto it, so both endpoints are always present; degenerate
    intervals contribute their single point.  The result is sorted with
    near-duplicates (within DEDUP_TOL) merged.
    """
    if density < 2:
        raise DomainError(f"density must be >= 2, got {density}")
    pts = []
    k = np.arange(density)
    lobatto = 0.5 * (1.0 - np.cos(np.pi * k / (density - 1)))  # ascending in [0, 1]
    for iv in E.intervals:
        if iv.length == 0.0:
            pts.append(np.array([iv.lo]))
        else:
            pts.append(iv.lo + iv.length * lobatto)
    if not pts:
        return np.array([])
    grid = np.sort(np.concatenate(pts))
    keep = np.ones(len(grid), dtype=bool)
    keep[1:] = np.diff(grid) > DEDUP_TOL
    return grid[keep]


def random_multigap_set(delta: float, gap_count: int, seed: int) -> CompactSet:
    """Random subset of [-1,1] with measure 2-2*delta and `gap_count` gaps.

    Gap lengths are a symmetric Dirichlet split of the total 2*delta; gap
    positions are drawn uniformly and accepted only when all gaps are
    pairwise disjoint and strictly inside (-1, 1).  Deterministic in `seed`.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if gap_count < 1:
        raise DomainError(f"gap_count must be >= 1, got {gap_count}")

    rng = np.random.default_rng(seed)
    total = 2.0 * delta
    sep = 1e-9  # minimal band width, keeps touching gaps distinct
    for _ in range(10_000):
        lengths = rng.dirichlet(np.ones(gap_count)) * total
        lefts = np.sort(rng.uniform(-1.0, 1.0, gap_count))
        rights = lefts + lengths
        if lefts[0] <= -1.0 + sep or rights[-1] >= 1.0 - sep:
            continue
        if np.any(lefts[1:] - rights[:-1] <= sep):
            continue
        bounds = np.concatenate(([-1.0], np.column_stack([lefts, rights]).ravel(), [1.0]))
        ivs = tuple(Interval(bounds[2 * i], bounds[2 * i + 1]) for i in range(gap_count + 1))
        return CompactSet(ivs)
    raise DomainError(
        f"could not place {gap_count} disjoint gaps of total length {total} "
        f"inside (-1, 1) after 10000 attempts"
    )
