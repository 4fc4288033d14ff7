"""Exact minimum-norm point of a convex hull of rational points.

One solver and one canonicalisation, both on integers:

  * min_norm_point  Wolfe's active-set method.  It returns the optimum with
                    the final corral's weights: exact, strictly positive and
                    on affinely independent points.
  * canonical_form  re-expresses that optimum by its canonical support:
                    among all exact convex representations, the one of
                    minimal cardinality, ties broken lexicographically on
                    index tuples, with strictly positive weights.  When
                    the active points are exactly Wolfe's corral, the
                    corral is that support and nothing is searched.
                    Otherwise it searches subsets in lex order up to the
                    size m of the corral.  Subsets of at most dim points
                    are solved only when their vectors p_s - x are linearly
                    dependent (necessary for x in aff(p_S)); those are
                    listed by a numpy screen modulo one fixed prime, over
                    blocks of shared prefixes, and a subset the screen
                    cannot clear is checked by exact elimination before it
                    is used.  If no (m-1)-subset is dependent, no smaller
                    one is, and the sizes below m are skipped.  The square
                    systems of dim + 1 points share one fraction-free
                    elimination per lex prefix, in a depth-first walk.

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

import numpy as np

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


# The dependence screen works on residues modulo one fixed prime below 2^31,
# so the product of two residues stays below 2^62, inside int64.
_PRIME = 2**31 - 1
# Residues one block of prefixes holds: a prefix carries every column reduced
# against it, at most count * dim residues, and a block takes as many
# prefixes as fit.  Kept small: the screen holds one block per prefix length,
# so its memory is bounded by k blocks, whatever the number of subsets.
_BLOCK = 1 << 12


def _extend(prefixes: np.ndarray, red: np.ndarray, bs: np.ndarray,
            ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prefixes prefixes[b] + (t,) for the pairs (b, t) in (bs, ts).

    red[b] holds every column reduced against prefixes[b] modulo _PRIME.  One
    fraction-free step clears the new column t out of them: with r a nonzero
    coordinate of t, each column c becomes t_r c - c_r t and loses its
    coordinate r, which is now zero.  t_r is a unit mod p, so the step keeps
    exactly the dependences of the prefix.  Every product is reduced mod p
    before the difference, so nothing overflows.
    """
    count, width = red.shape[1], red.shape[2] - 1
    child = np.arange(len(bs))
    pivots = red[bs, ts]
    rows = (pivots != 0).argmax(axis=1)
    piv = pivots[child, rows]
    lead = red[bs, :, rows]
    # the coordinates other than r, per child
    keep = np.arange(width) + (np.arange(width) >= rows[:, None])
    cols = red[bs[:, None, None], np.arange(count)[:, None], keep[:, None, :]]
    pivots = pivots[child[:, None], keep]
    reduced = (piv[:, None, None] * cols % _PRIME
               - lead[:, :, None] * pivots[:, None, :] % _PRIME) % _PRIME
    return np.column_stack((prefixes[bs], ts)), reduced


def _dependent_subsets(cols: Sequence[Sequence[int]], k: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of the linearly dependent k-subsets of cols, in lex order,
    for k at most the length of a column.

    A depth-first pass over prefixes screens dependence modulo _PRIME.  Each
    prefix in the pass is independent mod p and holds every column reduced
    against it, so a child prefix + (t,) is dependent mod p exactly when
    column t has reduced to zero.  A child the screen clears is independent
    mod p, hence over Q, and is extended in blocks of lex-consecutive
    prefixes by _extend.  A child it cannot clear is checked exactly
    (linalg.bareiss_triangularize): if it is dependent, so is every
    completion, and those are yielded lazily, in order, without screening;
    if it is dependent mod p only, each completion is checked exactly. The
    pass yields the subsets an exact elimination would, in the same order.
    """
    n = len(cols)
    if k == 0:
        return

    def dependent(subset: tuple[int, ...]) -> bool:
        _, pivots = linalg.bareiss_triangularize([cols[t] for t in subset])
        return len(pivots) < len(subset)

    def walk(prefixes, red):
        # prefixes: a block of independent j-prefixes in lex order (rows);
        # red[b]: every column reduced against prefixes[b], mod p
        need = k - prefixes.shape[1] - 1
        last = prefixes[:, -1] if prefixes.shape[1] else np.full(len(prefixes), -1)
        # the children (b, t) in lex order; those zero mod p split the rest
        bs, ts = np.nonzero(np.arange(n - need) > last[:, None])
        zero = np.flatnonzero(~red[bs, ts].any(axis=1)).tolist()
        start = 0
        for stop in zero + [len(bs)]:
            if need:
                # a child keeps one coordinate fewer than its parent
                step = max(1, _BLOCK // (n * (red.shape[2] - 1)))
                for lo in range(start, stop, step):
                    sel = slice(lo, min(stop, lo + step))
                    yield from walk(*_extend(prefixes, red, bs[sel], ts[sel]))
            if stop < len(bs):
                subset = (*prefixes[bs[stop]].tolist(), int(ts[stop]))
                exact = dependent(subset)
                for rest in itertools.combinations(range(subset[-1] + 1, n), need):
                    if exact or (need and dependent(subset + rest)):
                        yield subset + rest
            start = stop + 1

    residues = np.array([[v % _PRIME for v in c] for c in cols], dtype=np.int64)
    yield from walk(np.zeros((1, 0), dtype=np.int64), residues[None])


def _square_support(cols: Sequence[Sequence[int]],
                    b: Sequence[int]) -> tuple[tuple[int, ...], list[Fraction]] | None:
    """The first len(b)-subset S of cols in lex order whose square system
    cols_S w = b has a strictly positive solution: (S, w), or None.

    One depth-first walk over lex prefixes shares a fraction-free (Bareiss)
    elimination between all the subsets that extend a prefix.  A prefix
    holds every later column and b reduced against it, on the rows not yet
    used as pivots.  The child prefix + (t,) pivots on the first nonzero
    entry c_r of column t, and one step, (c_r u - u_r c) / prev with prev
    the previous pivot, reduces each later u; every division is exact, as in
    linalg.bareiss_triangularize.  A column reduced to zero makes prefix +
    (t,) dependent and every subset through it singular, and a b reduced to
    zero lies in the prefix's span, so every completion's unique solution
    is zero past it: either way the subtree is skipped.  At a leaf one row
    is left, holding the system's determinant and, by Cramer's rule, the
    determinant times the last weight (_leaf).
    """
    size, n = len(b), len(cols)
    levels: list[tuple[int, int, list[int]]] = []   # (column, pivot, pivot row)

    def walk(red, start, prev):
        # red: the columns start..n-1, then b, reduced against the prefix
        depth = len(levels)
        if depth == size - 1:
            yb = red[-1][0]
            for t in range(start, n):
                w = _leaf(levels, t, red[t - start][0], yb)
                if w is not None:
                    return (*(c for c, _, _ in levels), t), w
            return None
        for t in range(start, n - size + depth + 1):
            col = red[t - start]
            r = next((i for i, v in enumerate(col) if v), None)
            if r is None:
                continue
            piv = col[r]
            rest = red[t - start + 1:]
            lead = [u[r] for u in rest]
            others = col[:r] + col[r + 1:]
            child = [[(piv * x - f * y) // prev for x, y in zip(u[:r] + u[r + 1:], others)]
                     for u, f in zip(rest, lead)]
            if not any(child[-1]):
                continue
            levels.append((t, piv, lead))
            found = walk(child, t + 1, piv)
            levels.pop()
            if found:
                return found
        return None

    return walk([list(c) for c in cols] + [list(b)], 0, 1)


def _leaf(levels: Sequence[tuple[int, int, list[int]]], t: int, d: int,
          yb: int) -> list[Fraction] | None:
    """The weights of the square system on the prefix of levels plus column
    t if all are strictly positive, else None.

    d is the last pivot, the determinant of the system up to a sign shared
    with yb = d w_last; d = 0 marks a singular system.  y = d w is integral
    by Cramer's rule, so it back-substitutes through the pivot rows of
    levels with exact divisions, and stops at the first y whose sign
    differs from d's.
    """
    if d == 0 or yb == 0 or (d > 0) != (yb > 0):
        return None
    ys, chosen = [yb], [t]
    for c, piv, lead in reversed(levels):
        y = (d * lead[-1] - sum(lead[j - c - 1] * v for j, v in zip(chosen, ys))) // piv
        if y == 0 or (y > 0) != (d > 0):
            return None
        ys.append(y)
        chosen.append(c)
    return [Fraction(y, d) for y in reversed(ys)]


def canonical_form(ps: PointSet, res: MinNormResult) -> MinNormResult:
    """The optimum res.point of min_norm_point(ps) on its canonical support.

    Returns the first strictly positive exact representation by cardinality,
    then lex order on index tuples.  Candidate points are those active at the
    optimum, i.e. <x, p> = |x|^2; complementary slackness puts every support
    point in that set.  Active-set membership also makes x the minimum-norm
    point of any active affine hull containing it, so one representation
    solve per subset decides: unique nonnegative barycentric weights for x,
    or skip.

    Exact facts keep the work to the subsets that can hold x:

      * corral        when the active set is Wolfe's corral res.support,
                      res is returned with no solve: the corral is affinely
                      independent, so its barycentric weights for x are the
                      only ones, and they are all positive.
      * size bound    the corral is a strictly positive representation, so
                      the canonical support has at most m = |res.support|
                      <= dim + 1 points.
      * dependence    x in aff(p_S) makes the vectors p_s - x (s in S)
                      linearly dependent: their rank is rank[v_S | b] - 1
                      <= |S| - 1 with v = (p, 1), b = (x, 1).  For
                      |S| <= dim only the dependent subsets, listed by
                      _dependent_subsets, get a solve: a screen modulo
                      _PRIME clears the independent ones, and every subset
                      it cannot clear is checked exactly.
      * monotonicity  dependence passes to supersets, so if no (m-1)-subset
                      is dependent, no smaller one is and the search starts
                      at size m.
      * shared walk   every (dim + 1)-subset is dependent, and its system
                      [v_S] w = b is square.  _square_support walks their
                      lex prefixes depth first, holding every later column
                      and b reduced against the prefix, so each subset costs
                      one elimination step, and back-substitutes only at the
                      leaves.  A nonsingular square system has one solution,
                      so the first leaf with positive weights is the first
                      subset a per-subset solve would accept.

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
    m = len(res.support)
    if len(active) == m:
        # the corral is affinely independent and holds every active point
        return res
    rhs = [xr * sc.den for xr in x]
    row_scale = [r.denominator for r in rhs]
    srows = [[row_scale[r] * c for c in col]
             for r, col in enumerate(zip(*sc.coords))]
    b = [int(rhs[r] * row_scale[r]) for r in range(ps.dim)] + [1]
    # the columns p_i - x, scaled to integers like the solve's rows
    diffs = [[srows[r][i] - b[r] for r in range(ps.dim)] for i in active]

    def represent(picked, w):
        subset = tuple(active[t] for t in picked)
        weights = [Fraction(0)] * len(ps.points)
        for i, wi in zip(subset, w):
            weights[i] = wi
        return MinNormResult(x, tuple(weights), subset)

    low = 1 if next(_dependent_subsets(diffs, m - 1), None) is not None else m
    for size in range(low, min(m, ps.dim) + 1):
        for picked in _dependent_subsets(diffs, size):
            a = [[srows[r][active[t]] for t in picked] for r in range(ps.dim)]
            a.append([1] * size)
            w = linalg.solve_integer(a, b)
            if w is not None and all(wi > 0 for wi in w):
                return represent(picked, w)
    if m > ps.dim:
        found = _square_support([[srows[r][i] for r in range(ps.dim)] + [1] for i in active], b)
        if found is not None:
            return represent(*found)
    raise RuntimeError("no exact convex representation of the optimum found")
