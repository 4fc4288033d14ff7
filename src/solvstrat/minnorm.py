"""Exact minimum-norm point of a convex hull of rational points.

Two independent solvers over Fraction arithmetic:

  * min_norm_point       Wolfe-style active-set method (the production path)
  * brute_force_min_norm face enumeration over affinely independent subsets
                         (the oracle; exponential, for small inputs only)

Both return the same canonical representation: among all exact convex
representations of the optimum, the support of minimal cardinality, ties
broken lexicographically on index tuples, with strictly positive weights.
The optimum itself is unique by strict convexity; the canonical support makes
the full results comparable as data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .linalg import dot, frac

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """Finite set of distinct rational points sharing one dimension."""

    dim: int
    points: tuple[Vec, ...]
    labels: tuple[str, ...] | None = None

    @staticmethod
    def make(points: Sequence[Sequence], labels: Sequence[str] | None = None) -> "PointSet":
        pts = tuple(tuple(frac(x) for x in p) for p in points)
        if not pts:
            raise ValueError("point set must be nonempty")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points have mixed dimensions")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        lab = tuple(labels) if labels is not None else None
        if lab is not None and len(lab) != len(pts):
            raise ValueError("labels length mismatch")
        return PointSet(dim, pts, lab)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MinNormResult:
    """Optimal point with exact convex weights (aligned with the input)."""

    point: Vec
    weights: tuple[Fraction, ...]
    support: tuple[int, ...]

    def norm_sq(self) -> Fraction:
        return dot(self.point, self.point)

    def verify(self, ps: PointSet) -> None:
        """Check exact feasibility and the variational optimality condition.

        Raises RuntimeError naming the first condition that fails.
        """
        recon = tuple(sum(w * p[c] for w, p in zip(self.weights, ps.points))
                      for c in range(ps.dim))
        nsq = self.norm_sq()
        for ok, condition in (
                (sum(self.weights) == 1, "weights sum to 1"),
                (all(w >= 0 for w in self.weights), "weights are nonnegative"),
                (recon == self.point, "weights reproduce the point"),
                (all(dot(self.point, p) >= nsq for p in ps.points), "<x, p> >= |x|^2"),
                (self.support == tuple(i for i, w in enumerate(self.weights) if w != 0),
                 "support is the set of nonzero weights")):
            if not ok:
                raise RuntimeError(f"min-norm result fails: {condition}")


@dataclass(frozen=True)
class _ScaledPoints:
    """Denominator-cleared coordinates and Gram matrix, shared by both solvers."""

    den: int
    coords: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]


def _scaled(ps: PointSet) -> _ScaledPoints:
    den = math.lcm(*(x.denominator for p in ps.points for x in p))
    coords = tuple(tuple(int(x * den) for x in p) for p in ps.points)
    gram = tuple(tuple(sum(a * b for a, b in zip(p, q)) for q in coords)
                 for p in coords)
    return _ScaledPoints(den, coords, gram)


def _affine_minimizer(sc: _ScaledPoints, pts: Sequence[Vec],
                      subset: Sequence[int]) -> tuple[list[Fraction], list[Fraction]] | None:
    """Min-norm point of the affine hull of pts[subset], with weights.

    Solves the KKT system [G 1; 1^T 0] [w; t] = [0; 1] with G the Gram
    matrix (scaling G by den^2 only rescales the multiplier t, not w).  The
    bordered matrix is singular exactly when the subset is affinely
    dependent, so None doubles as the independence test.
    """
    k = len(subset)
    a = [[sc.gram[i][j] for j in subset] + [1] for i in subset]
    a.append([1] * k + [0])
    sol = linalg.solve_integer(a, [0] * k + [1])
    if sol is None:
        return None
    w = sol[:k]
    y = [sum(w[t] * pts[i][c] for t, i in enumerate(subset)) for c in range(len(pts[0]))]
    return w, y


def _canonical_support(ps: PointSet, sc: _ScaledPoints,
                       x: Vec) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """First (by cardinality, then lex) strictly positive exact representation.

    Candidate points are those active at the optimum, i.e. <x, p> = |x|^2;
    complementary slackness puts every support point in that set.  Active-set
    membership also makes x the minimum-norm point of any active affine hull
    containing it, so one representation solve per subset decides: unique
    nonnegative barycentric weights for x, or skip.
    """
    nsq = dot(x, x)
    active = [i for i, p in enumerate(ps.points) if dot(x, p) == nsq]
    rhs = [xr * sc.den for xr in x]
    row_scale = [r.denominator for r in rhs]
    srows = [[row_scale[r] * c for c in col]
             for r, col in enumerate(zip(*sc.coords))]
    b = [int(rhs[r] * row_scale[r]) for r in range(ps.dim)] + [1]
    for size in range(1, len(active) + 1):
        for subset in itertools.combinations(active, size):
            a = [[srows[r][i] for i in subset] for r in range(ps.dim)]
            a.append([1] * size)
            w = linalg.solve_integer(a, b)
            if w is not None and all(wi > 0 for wi in w):
                weights = [Fraction(0)] * len(ps.points)
                for i, wi in zip(subset, w):
                    weights[i] = wi
                return tuple(weights), subset
    raise RuntimeError("no exact convex representation of the optimum found")


def min_norm_point(ps: PointSet) -> MinNormResult:
    """Exact minimum-norm point of conv(ps) by Wolfe's active-set method.

    The corral stays affinely independent throughout: points enter only when
    they strictly violate the optimality condition at the current relative
    interior minimizer, and such points never lie in the corral's affine
    hull.  All arithmetic is rational, so termination is exact, with no
    tolerance anywhere.
    """
    pts = ps.points
    sc = _scaled(ps)
    start = min(range(len(pts)), key=lambda i: (dot(pts[i], pts[i]), pts[i]))
    corral = [start]
    w = {start: Fraction(1)}
    x = list(pts[start])

    while True:
        nsq = dot(x, x)
        best, best_val = None, nsq
        for i, p in enumerate(pts):
            v = dot(x, p)
            if v < best_val:
                best, best_val = i, v
        if best is None:
            break
        corral.append(best)
        w[best] = Fraction(0)
        while True:
            res = _affine_minimizer(sc, pts, corral)
            if res is None:
                raise RuntimeError("Wolfe corral became affinely dependent")
            v, y = res
            if all(vi > 0 for vi in v):
                x = y
                w = dict(zip(corral, v))
                break
            # step from w toward v until the first weight hits zero
            theta = min(
                (Fraction(w[c]) / (w[c] - vi) for c, vi in zip(corral, v) if vi <= 0),
                default=Fraction(1),
            )
            w = {c: (1 - theta) * w[c] + theta * vi for c, vi in zip(corral, v)}
            corral = [c for c in corral if w[c] > 0]
            w = {c: w[c] for c in corral}

    weights, support = _canonical_support(ps, sc, tuple(x))
    return MinNormResult(tuple(x), weights, support)


def brute_force_min_norm(ps: PointSet, max_points: int = 12) -> MinNormResult:
    """Independent oracle: enumerate all affinely independent subsets.

    For each subset, the affine minimizer with nonnegative weights is a
    feasible candidate; the optimum is the best of these.  Subsets are
    visited in (cardinality, lex) order and the canonical representative is
    the first candidate attaining the optimal norm with strictly positive
    weights.
    """
    if len(ps) > max_points:
        raise ValueError(f"brute force capped at {max_points} points, got {len(ps)}")
    pts = ps.points
    sc = _scaled(ps)
    best_nsq: Fraction | None = None
    best: tuple[Vec, tuple[int, ...], list[Fraction]] | None = None
    max_size = min(len(pts), ps.dim + 1)
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(range(len(pts)), size):
            res = _affine_minimizer(sc, pts, subset)
            if res is None:  # affinely dependent subset
                continue
            w, y = res
            if any(wi < 0 for wi in w):
                continue
            nsq = dot(y, y)
            if best_nsq is None or nsq < best_nsq:
                best_nsq, best = nsq, None
            if nsq == best_nsq and best is None and all(wi > 0 for wi in w):
                best = (tuple(y), subset, w)
    if best is None:
        raise RuntimeError("no strictly positive optimal representation found")
    point, subset, w = best
    weights = [Fraction(0)] * len(pts)
    for i, wi in zip(subset, w):
        weights[i] = wi
    return MinNormResult(point, tuple(weights), subset)
