"""Exact minimum-norm point of a convex hull of rational points.

One solver and one canonicalisation, both on integers:

  * min_norm_point  Wolfe's active-set method.  It returns the optimum with
                    the final corral's weights: exact, strictly positive and
                    on affinely independent points.
  * canonical_form  re-expresses that optimum by its canonical support:
                    among all exact convex representations, the one of
                    minimal cardinality, ties broken lexicographically on
                    index tuples, with strictly positive weights.  It
                    solves only on subsets S whose vectors p_s - x are
                    linearly dependent (necessary for x in aff(p_S)),
                    listed in lex order by one shared-prefix fraction-free
                    elimination, and only up to the size m of Wolfe's
                    corral; if no (m-1)-subset is dependent, no smaller
                    one is, and the sizes below m are skipped.

Integer representation.  A point set is scaled once (PointSet.scaled): with
den the lcm of all coordinate denominators, P_i = den p_i are integer
vectors and G_ij = <P_i, P_j> = den^2 <p_i, p_j> is their integer Gram
matrix.  A convex combination x = sum_c w_c p_c is held as integer
numerators y_c = d w_c over a common denominator d, so that

    den^2 d <x, p_i> = (G y)_i,    den^2 d^2 |x|^2 = y . G y,

and every comparison the solvers make (Wolfe's pricing, the active set) is
one between integers.  Fractions appear only at the boundary: the KKT
solves return them, and the point is formed once, x_r = sum_c y_c P_cr /
(den d).  MinNormResult.verify re-derives its five conditions from the
scaled coordinates and the point's own integer numerator, independently of
the solvers' state.

The optimum itself is unique by strict convexity, so callers that need only
the point (the stratum label) skip the canonical search; the canonical
support makes full results comparable as data.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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

    @functools.cached_property
    def scaled(self) -> _ScaledPoints:
        """Denominator-cleared coordinates and integer Gram matrix, computed once."""
        return _scaled(self)


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

        Works on integers: the scaled coordinates P = den p, the point's
        numerator X = q x and the weights' numerators W = l w, with q and l
        the lcm of the point's and the weights' denominators; <x, p_i> >=
        |x|^2 becomes q <X, P_i> >= den <X, X>.  It reads neither the Gram
        matrix nor any solver state, so it checks the solvers independently.
        Raises RuntimeError naming the first condition that fails.
        """
        sc = ps.scaled
        q, xs = _numerators(self.point)
        lw, ws = _numerators(self.weights)
        used = [(wi, p) for wi, p in zip(ws, sc.coords) if wi]
        # recon_r = l den (sum_i w_i p_i)_r, to compare with X_r / q
        recon = tuple(q * sum(wi * p[r] for wi, p in used) for r in range(ps.dim))
        nsq = sc.den * _dot(xs, xs)
        for ok, condition in (
                (sum(ws) == lw, "weights sum to 1"),
                (all(wi >= 0 for wi in ws), "weights are nonnegative"),
                (recon == tuple(lw * sc.den * xr for xr in xs), "weights reproduce the point"),
                (all(q * _dot(xs, p) >= nsq for p in sc.coords), "<x, p> >= |x|^2"),
                (self.support == tuple(i for i, w in enumerate(self.weights) if w != 0),
                 "support is the set of nonzero weights")):
            if not ok:
                raise RuntimeError(f"min-norm result fails: {condition}")


@dataclass(frozen=True)
class _ScaledPoints:
    """Denominator-cleared coordinates and Gram matrix of a point set."""

    den: int
    coords: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]


def _scaled(ps: PointSet) -> _ScaledPoints:
    den = math.lcm(*(x.denominator for p in ps.points for x in p))
    coords = tuple(tuple(x.numerator * (den // x.denominator) for x in p) for p in ps.points)
    gram = tuple(tuple(_dot(p, q) for q in coords) for p in coords)
    return _ScaledPoints(den, coords, gram)


def _numerators(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(l, [l x for x in xs]) with l the lcm of the denominators."""
    lcm = math.lcm(*(x.denominator for x in xs))
    return lcm, [x.numerator * (lcm // x.denominator) for x in xs]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _gram_products(gram: Sequence[Sequence[int]], idx: Sequence[int],
                   ys: Sequence[int]) -> tuple[list[int], int]:
    """(G y, y . G y) for the integer combination y supported on idx.

    With x = sum_t ys[t] p_idx[t] / d and G the Gram matrix of the scaled
    points, (G y)_i = den^2 d <x, p_i> and y . G y = den^2 d^2 |x|^2.
    """
    gy = [_dot(ys, col) for col in zip(*(gram[i] for i in idx))]
    return gy, _dot(ys, [gy[i] for i in idx])


def _affine_minimizer(sc: _ScaledPoints, subset: Sequence[int]) -> list[Fraction] | None:
    """Barycentric weights of the min-norm point of the affine hull of subset.

    Solves the KKT system [G 1; 1^T 0] [w; t] = [0; 1] with G the Gram
    matrix (scaling G by den^2 only rescales the multiplier t, not w).  The
    bordered matrix is singular exactly when the subset is affinely
    dependent, so None doubles as the independence test.
    """
    k = len(subset)
    a = [[sc.gram[i][j] for j in subset] + [1] for i in subset]
    a.append([1] * k + [0])
    sol = linalg.solve_integer(a, [0] * k + [1])
    return None if sol is None else sol[:k]


def min_norm_point(ps: PointSet) -> MinNormResult:
    """Exact minimum-norm point of conv(ps) by Wolfe's active-set method.

    The corral stays affinely independent throughout: points enter only when
    they strictly violate the optimality condition at the current relative
    interior minimizer, and such points never lie in the corral's affine
    hull.  Pricing is on integers: the corral's weights are held as
    numerators y over a common denominator d, and the entering point is the
    first i with the smallest d (G y)_i < y . G y, i.e. the first minimizer
    of <x, p_i> below |x|^2.  The rare drop step stays in Fractions.  All
    arithmetic is exact, so termination is exact, with no tolerance
    anywhere.
    """
    sc = ps.scaled
    gram = sc.gram
    start = min(range(len(gram)), key=lambda i: (gram[i][i], sc.coords[i]))
    corral = [start]
    w = {start: Fraction(1)}
    d, ys = 1, [1]

    while True:
        gy, ygy = _gram_products(gram, corral, ys)
        low = min(gy)
        if d * low >= ygy:
            break
        best = gy.index(low)
        corral.append(best)
        w[best] = Fraction(0)
        while True:
            v = _affine_minimizer(sc, corral)
            if v is None:
                raise RuntimeError("Wolfe corral became affinely dependent")
            if all(vi > 0 for vi in v):
                w = dict(zip(corral, v))
                d, ys = _numerators(v)
                break
            # step from w toward v until the first weight hits zero
            theta = min(
                (Fraction(w[c]) / (w[c] - vi) for c, vi in zip(corral, v) if vi <= 0),
                default=Fraction(1),
            )
            w = {c: (1 - theta) * w[c] + theta * vi for c, vi in zip(corral, v)}
            corral = [c for c in corral if w[c] > 0]
            w = {c: w[c] for c in corral}

    point = tuple(Fraction(_dot(ys, [sc.coords[c][r] for c in corral]), sc.den * d)
                  for r in range(ps.dim))
    weights = tuple(w.get(i, Fraction(0)) for i in range(len(ps.points)))
    return MinNormResult(point, weights, tuple(sorted(w)))


def _eliminate(pivot: list[int], cols: list[list[int]], prev: int) -> tuple[list[list[int]], int]:
    """One fraction-free (Bareiss) step: clear pivot out of cols.

    The pivot entry is pivot's first nonzero coordinate r.  Every column
    loses coordinate r; its other entries become bordered minors of the
    original columns divided by prev, the previous pivot, so each division
    is exact.  Returns the reduced columns and the new pivot.
    """
    r = next(i for i, v in enumerate(pivot) if v)
    piv = pivot[r]
    rest = pivot[:r] + pivot[r + 1:]
    reduced = []
    for col in cols:
        f = col[r]
        reduced.append([(piv * v - f * w) // prev
                        for v, w in zip(col[:r] + col[r + 1:], rest)])
    return reduced, piv


def _dependent_subsets(cols: Sequence[Sequence[int]], k: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of the linearly dependent k-subsets of cols, in lex order.

    One depth-first pass over prefixes: a linearly independent prefix holds
    every later column reduced against it (_eliminate), so each extension
    reuses its prefix's elimination and a leaf costs one zero test.  A column
    that reduces to zero makes its prefix dependent, and so every completion
    of it; those are yielded lazily, in order, without further elimination.
    """
    n = len(cols)

    def walk(prefix, reduced, start, prev):
        # reduced[t - start] is column t reduced against the prefix
        need = k - len(prefix) - 1
        for t in range(start, n - need):
            col = reduced[t - start]
            if not any(col):
                for rest in itertools.combinations(range(t + 1, n), need):
                    yield prefix + (t,) + rest
            elif need:
                later, piv = _eliminate(col, reduced[t - start + 1:], prev)
                yield from walk(prefix + (t,), later, t + 1, piv)

    if k > 0:
        yield from walk((), [list(c) for c in cols], 0, 1)


def canonical_form(ps: PointSet, res: MinNormResult) -> MinNormResult:
    """The optimum res.point of min_norm_point(ps) on its canonical support.

    Returns the first strictly positive exact representation by cardinality,
    then lex order on index tuples.  Candidate points are those active at the
    optimum, i.e. <x, p> = |x|^2; complementary slackness puts every support
    point in that set.  Active-set membership also makes x the minimum-norm
    point of any active affine hull containing it, so one representation
    solve per subset decides: unique nonnegative barycentric weights for x,
    or skip.

    Three exact facts keep the solves to the subsets that can hold x:

      * size bound    Wolfe's corral res.support is already a strictly
                      positive representation, so the canonical support has
                      at most m = |res.support| <= dim + 1 points.
      * dependence    x in aff(p_S) makes the vectors p_s - x (s in S)
                      linearly dependent: their rank is rank[v_S | b] - 1
                      <= |S| - 1 with v = (p, 1), b = (x, 1).  Only the
                      dependent subsets, found by _dependent_subsets, get a
                      solve.
      * monotonicity  dependence passes to supersets, so if no (m-1)-subset
                      is dependent, no smaller one is and the search starts
                      at size m.

    With a active points the search visits at most sum_{k <= m} C(a, k)
    nodes (prefixes), solves only on dependent subsets, and raises
    RuntimeError if none of size <= m carries a strictly positive
    representation.
    """
    x = res.point
    sc = ps.scaled
    # with W = l * weights integral, <x, p_i> = |x|^2 iff l (G W)_i = W . G W
    used = [i for i, wi in enumerate(res.weights) if wi]
    lw, ws = _numerators([res.weights[i] for i in used])
    gw, wgw = _gram_products(sc.gram, used, ws)
    active = [i for i, v in enumerate(gw) if lw * v == wgw]
    rhs = [xr * sc.den for xr in x]
    row_scale = [r.denominator for r in rhs]
    srows = [[row_scale[r] * c for c in col]
             for r, col in enumerate(zip(*sc.coords))]
    b = [int(rhs[r] * row_scale[r]) for r in range(ps.dim)] + [1]
    # the columns p_i - x, scaled to integers like the solve's rows
    diffs = [[srows[r][i] - b[r] for r in range(ps.dim)] for i in active]
    m = len(res.support)
    low = 1 if next(_dependent_subsets(diffs, m - 1), None) is not None else m
    for size in range(low, m + 1):
        for picked in _dependent_subsets(diffs, size):
            subset = tuple(active[t] for t in picked)
            a = [[srows[r][i] for i in subset] for r in range(ps.dim)]
            a.append([1] * size)
            w = linalg.solve_integer(a, b)
            if w is not None and all(wi > 0 for wi in w):
                weights = [Fraction(0)] * len(ps.points)
                for i, wi in zip(subset, w):
                    weights[i] = wi
                return MinNormResult(x, tuple(weights), subset)
    raise RuntimeError("no exact convex representation of the optimum found")
