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
                    blocks of shared prefixes, each carrying only the
                    columns after its last index, and a subset the screen
                    cannot clear is checked by exact elimination before it
                    is used.  If no (m-1)-subset is dependent, no smaller
                    one is, and the sizes below m are skipped.  The square
                    systems of dim + 1 points share one fraction-free
                    elimination per lex prefix, in a depth-first walk.

Integer representation.  A PointSet is its integer coordinates: with den
the lcm of all coordinate denominators, point i is p_i = P_i / den for the
integer vector P_i = coords[i], and G_ij = <P_i, P_j> = den^2 <p_i, p_j> is
the integer Gram matrix.  Its columns are computed on demand and cached
(PointSet.column): Wolfe reads only the columns of the points that enter
its corral, and canonical_form only those of the support.  A convex
combination x = sum_c w_c p_c is held as integer numerators y_c = d w_c
over one positive denominator d, so that

    den^2 d <x, p_i> = (G y)_i,    den^2 d^2 |x|^2 = y . G y,

and every comparison the solvers make (Wolfe's pricing and drop step, the
active set) is one between integers.  The exact solves return integers too:
linalg.solve_integer gives (d, y), and Wolfe's affine step turns it into
weights y / sum(y) (_affine_minimizer).  canonical_form writes its systems
over the point's own integer numerator.  Fractions are built once, for the
returned MinNormResult: the point x_r = sum_c y_c P_cr / (den d) and the
weights y_c / d.  MinNormResult.verify re-derives its five conditions from
the integer coordinates and the point's own integer numerator,
independently of the solvers' state.

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
from ._np import np
from .linalg import ZERO, dot, frac, numerators

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class PointSet:
    """Finite set of distinct rational points sharing one dimension: point
    i is coords[i] / den, with integer coords and a positive integer den."""

    dim: int
    den: int
    coords: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(points: Sequence[Sequence]) -> "PointSet":
        pts = [[frac(x) for x in p] for p in points]
        if not pts:
            raise ValueError("point set must be nonempty")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points have mixed dimensions")
        return PointSet.from_pairs(dim, [[(x.numerator, x.denominator) for x in p]
                                         for p in pts])

    @staticmethod
    def from_pairs(dim: int, rows: Sequence[Sequence[tuple[int, int]]]) -> "PointSet":
        """The points with coordinates rows[i][r] = num / den, given as
        (num, den) in lowest terms with den > 0, each row of length dim.

        linalg.clear_denominators writes them over their common
        denominator; the points must be distinct.
        """
        den, flat = linalg.clear_denominators([x for row in rows for x in row])
        coords = tuple(tuple(flat[i * dim:(i + 1) * dim]) for i in range(len(rows)))
        if len(set(coords)) != len(coords):
            raise ValueError("points must be distinct")
        return PointSet(dim, den, coords)

    def __len__(self) -> int:
        return len(self.coords)

    @functools.cached_property
    def points(self) -> tuple[Vec, ...]:
        """The points as tuples of Fractions."""
        return tuple(map(tuple, linalg.fraction_rows(self.coords, self.den)))

    @functools.cached_property
    def _columns(self) -> dict[int, tuple[int, ...]]:
        return {}

    def column(self, i: int) -> tuple[int, ...]:
        """Column i of the integer Gram matrix, <coords[i], coords[j]> for
        every j, computed on first use and cached."""
        col = self._columns.get(i)
        if col is None:
            col = self._columns[i] = _gram_column(self.coords, i)
        return col


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

        Works on integers: the coordinates P = den p, the point's numerator
        X = q x and the weights' numerators W = l w, with q and l the lcm of
        the point's and the weights' denominators; <x, p_i> >= |x|^2 becomes
        q <X, P_i> >= den <X, X>.  It reads neither the Gram matrix nor any
        solver state, so it checks the solvers independently.  Raises
        RuntimeError naming the first condition that fails.
        """
        q, xs = numerators(self.point)
        lw, ws = numerators(self.weights)
        used = [(wi, p) for wi, p in zip(ws, ps.coords) if wi]
        # recon_r = l den (sum_i w_i p_i)_r, to compare with X_r / q
        recon = tuple(q * sum(wi * p[r] for wi, p in used) for r in range(ps.dim))
        nsq = ps.den * _dot(xs, xs)
        for ok, condition in (
                (sum(ws) == lw, "weights sum to 1"),
                (all(wi >= 0 for wi in ws), "weights are nonnegative"),
                (recon == tuple(lw * ps.den * xr for xr in xs), "weights reproduce the point"),
                (all(q * _dot(xs, p) >= nsq for p in ps.coords), "<x, p> >= |x|^2"),
                (self.support == tuple(i for i, w in enumerate(self.weights) if w != 0),
                 "support is the set of nonzero weights")):
            if not ok:
                raise RuntimeError(f"min-norm result fails: {condition}")


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _gram_column(coords: Sequence[Sequence[int]], i: int) -> tuple[int, ...]:
    p = coords[i]
    return tuple(_dot(p, q) for q in coords)


def _gram_products(ps: PointSet, idx: Sequence[int],
                   ys: Sequence[int]) -> tuple[list[int], int]:
    """(G y, y . G y) for the integer combination y supported on idx.

    With x = sum_t ys[t] p_idx[t] / d and G the Gram matrix of the integer
    coordinates, (G y)_i = den^2 d <x, p_i> and y . G y = den^2 d^2 |x|^2.
    G is symmetric, so G y reads only the columns of idx.
    """
    gy = [_dot(ys, col) for col in zip(*map(ps.column, idx))]
    return gy, _dot(ys, [gy[i] for i in idx])


def _affine_minimizer(ps: PointSet, subset: Sequence[int]) -> tuple[int, list[int]] | None:
    """Barycentric weights y / e of the min-norm point of the affine hull of
    subset, as (e, y) with e > 0, or None if subset is affinely dependent.

    Wolfe's form of the KKT system: with G the Gram matrix of subset,
    solves (G + 1 1^T) u = 1 and takes w = u / sum(u).  Then G w is a
    multiple of 1 and sum(w) = 1, the optimality conditions of the affine
    hull (scaling G by den^2 changes neither).  G + 1 1^T is the Gram
    matrix of the vectors (P_s, 1), so it is positive definite exactly when
    subset is affinely independent, and then 1^T u = u^T (G + 1 1^T) u > 0;
    a singular matrix gives None.  With u = y / d from
    linalg.solve_integer, w = y / sum(y).
    """
    cols = [ps.column(i) for i in subset]
    sol = linalg.solve_integer([[col[j] + 1 for j in subset] for col in cols],
                               [1] * len(subset))
    return None if sol is None else (sum(sol[1]), sol[1])


def _reduced(d: int, ys: list[int]) -> tuple[int, list[int]]:
    """(d, ys) divided by their gcd: the same weights ys / d in least terms."""
    g = math.gcd(d, *ys)
    return (d, ys) if g == 1 else (d // g, [y // g for y in ys])


def min_norm_point(ps: PointSet) -> MinNormResult:
    """Exact minimum-norm point of conv(ps) by Wolfe's active-set method.

    The corral stays affinely independent throughout: points enter only when
    they strictly violate the optimality condition at the current relative
    interior minimizer, and such points never lie in the corral's affine
    hull.  The corral's weights are held only as numerators y over one
    positive denominator d.  The start is the first point of least norm.
    Pricing picks the first i with the smallest (G y)_i, entering when
    d (G y)_i < y . G y, i.e. the first minimizer of <x, p_i> below |x|^2;
    it reads the Gram columns of the corral only.  Each affine step is one
    k x k positive definite solve (_affine_minimizer).  The rare drop step
    compares the ratios w_c / (w_c - v_c) by cross-multiplication, and
    _reduced brings the weights to lowest terms, so the scale of the affine
    step's (e, y) changes no choice and no result.  All arithmetic is exact,
    so termination is exact, with no tolerance anywhere, and Fractions are
    built only for the result.
    """
    coords = ps.coords
    start = min(range(len(coords)), key=lambda i: (_dot(coords[i], coords[i]), coords[i]))
    corral, d, ys = [start], 1, [1]

    while True:
        gy, ygy = _gram_products(ps, corral, ys)
        low = min(gy)
        if d * low >= ygy:
            break
        corral.append(gy.index(low))
        ys.append(0)
        while True:
            sol = _affine_minimizer(ps, corral)
            if sol is None:
                raise RuntimeError("Wolfe corral became affinely dependent")
            e, vs = sol
            if all(v > 0 for v in vs):
                d, ys = _reduced(e, vs)
                break
            # step from w = ys / d toward v = vs / e until the first weight hits
            # zero: theta = tn / td, the least y_c e / (y_c e - v_c d) over v_c <= 0
            tn, td = 1, 0
            for y, v in zip(ys, vs):
                if v <= 0 and y * e * td < tn * (y * e - v * d):
                    tn, td = y * e, y * e - v * d
            # (1 - theta) w + theta v, over the denominator td d e
            zs = [(td - tn) * y * e + tn * v * d for y, v in zip(ys, vs)]
            corral = [c for c, z in zip(corral, zs) if z > 0]
            d, ys = _reduced(td * d * e, [z for z in zs if z > 0])

    point = tuple(Fraction(_dot(ys, [coords[c][r] for c in corral]), ps.den * d)
                  for r in range(ps.dim))
    weights = [ZERO] * len(coords)
    for c, y in zip(corral, ys):
        weights[c] = Fraction(y, d)
    return MinNormResult(point, tuple(weights), tuple(sorted(corral)))


# The dependence screen works on residues modulo one fixed prime below 2^31,
# so the product of two residues stays below 2^62, inside int64.
_PRIME = 2**31 - 1
# Residues one block of prefixes holds: a block carries the columns after its
# least last index, reduced against each of its prefixes, and takes as many
# lex-consecutive prefixes as fit (always at least one).  Kept small: the
# screen holds one block per prefix length, so its memory is bounded by k
# blocks, whatever the number of subsets.
_BLOCK = 1 << 12


def _extend(prefixes: np.ndarray, red: np.ndarray, off: int, bs: np.ndarray,
            ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The prefixes prefixes[b] + (t,) for the pairs (b, t) in (bs, ts), the
    columns they carry, and the index of the first of those columns.

    red[b, i] holds column off + i reduced against prefixes[b] modulo _PRIME.
    A completion of a child adds only columns after its t, so the children
    carry the columns after the least t in ts, and no earlier one.  One
    fraction-free step clears the new column t out of them: with r a nonzero
    coordinate of t, each column c becomes t_r c - c_r t and loses its
    coordinate r, which is now zero.  t_r is a unit mod p, so the step keeps
    exactly the dependences of the prefix.  Both products are below 2^62, so
    their difference fits in int64 and is reduced mod p once.
    """
    width = red.shape[2] - 1
    first = int(ts.min()) + 1
    child = np.arange(len(bs))
    pivots = red[bs, ts - off]
    rows = (pivots != 0).argmax(axis=1)
    piv = pivots[child, rows]
    lead = red[bs, first - off:, rows]
    # the coordinates other than r, per child
    keep = np.arange(width) + (np.arange(width) >= rows[:, None])
    cols = red[bs[:, None, None], np.arange(first - off, red.shape[1])[:, None],
               keep[:, None, :]]
    pivots = pivots[child[:, None], keep]
    reduced = (piv[:, None, None] * cols - lead[:, :, None] * pivots[:, None, :]) % _PRIME
    return np.column_stack((prefixes[bs], ts)), reduced, first


def _block_size(ts: np.ndarray, n: int, width: int) -> int:
    """How many of the lex-consecutive children with new columns ts[0],
    ts[1], ... (of n columns) one block takes.  Each child carries the
    columns after the block's least t, width residues apiece, and the block
    takes as many children as fit in _BLOCK residues, and at least one."""
    # every child carries at least the columns after ts[0]: no more fit
    least = np.minimum.accumulate(ts[:max(1, _BLOCK // ((n - 1 - int(ts[0])) * width))])
    fill = np.arange(1, len(least) + 1) * (n - 1 - least) * width
    return max(1, int(np.searchsorted(fill, _BLOCK, side="right")))


def _dependent_subsets(cols: Sequence[Sequence[int]], k: int) -> Iterator[tuple[int, ...]]:
    """Index tuples of the linearly dependent k-subsets of cols, in lex order,
    for k at most the length of a column.

    A depth-first pass over prefixes screens dependence modulo _PRIME.  Each
    prefix in the pass is independent mod p and holds every column after its
    last index reduced against it (its block carries the columns after the
    block's least last index), so a child prefix + (t,) is dependent mod p
    exactly when column t has reduced to zero.  A child the screen clears is
    independent mod p, hence over Q, and is extended in blocks of
    lex-consecutive prefixes by _extend, as many per block as fit in _BLOCK
    residues.  A child it cannot clear is checked exactly, by
    linalg.echelon on its columns: it is dependent iff they yield fewer
    pivots than there are columns.  If it is dependent, so is every
    completion, and those are yielded lazily, in order, without screening;
    if it is dependent mod p only, each completion is checked exactly. The
    pass yields the subsets an exact elimination would, in the same order.
    """
    n = len(cols)
    if k == 0:
        return

    def dependent(subset: tuple[int, ...]) -> bool:
        vectors = [{r: v for r, v in enumerate(cols[t]) if v} for t in subset]
        return len(linalg.echelon(vectors)) < len(subset)

    def walk(prefixes, red, off):
        # prefixes: a block of independent j-prefixes in lex order (rows);
        # red[b, i]: column off + i reduced against prefixes[b], mod p, for
        # every column a completion of the block can take
        need = k - prefixes.shape[1] - 1
        last = prefixes[:, -1] if prefixes.shape[1] else np.full(len(prefixes), -1)
        # the children (b, t) in lex order; those zero mod p split the rest
        bs, ts = np.nonzero(np.arange(n - need) > last[:, None])
        zero = np.flatnonzero(~red[bs, ts - off].any(axis=1)).tolist()
        # a child keeps one coordinate fewer than its parent
        width = red.shape[2] - 1
        start = 0
        for stop in zero + [len(bs)]:
            lo = start
            while need and lo < stop:
                hi = lo + _block_size(ts[lo:stop], n, width)
                yield from walk(*_extend(prefixes, red, off, bs[lo:hi], ts[lo:hi]))
                lo = hi
            if stop < len(bs):
                subset = (*prefixes[bs[stop]].tolist(), int(ts[stop]))
                exact = dependent(subset)
                for rest in itertools.combinations(range(subset[-1] + 1, n), need):
                    if exact or (need and dependent(subset + rest)):
                        yield subset + rest
            start = stop + 1

    residues = np.array([[v % _PRIME for v in c] for c in cols], dtype=np.int64)
    yield from walk(np.zeros((1, 0), dtype=np.int64), residues[None], 0)


def _square_support(cols: Sequence[Sequence[int]],
                    b: Sequence[int]) -> tuple[tuple[int, ...], int, list[int]] | None:
    """The first len(b)-subset S of cols in lex order whose square system
    cols_S w = b has a strictly positive solution w = y / d: (S, d, y), or
    None.

    One depth-first walk over lex prefixes shares a fraction-free (Bareiss)
    elimination between all the subsets that extend a prefix.  A prefix
    holds every later column and b reduced against it, on the rows not yet
    used as pivots.  The child prefix + (t,) pivots on the first nonzero
    entry c_r of column t, and one step, (c_r u - u_r c) / prev with prev
    the previous pivot, reduces each later u; every division is exact, as in
    the Bareiss elimination of linalg.solve_integer.  A column reduced to
    zero makes prefix + (t,) dependent and every subset through it singular,
    and a b reduced to zero lies in the prefix's span, so every completion's
    unique solution is zero past it: either way the subtree is skipped.  At
    a leaf one row is left, holding the system's determinant and, by
    Cramer's rule, the determinant times the last weight (_leaf).
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
                    return ((*(c for c, _, _ in levels), t), *w)
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
          yb: int) -> tuple[int, list[int]] | None:
    """The weights y / d of the square system on the prefix of levels plus
    column t as (d, y) if all are strictly positive, else None.

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
    return d, ys[::-1]


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
    # with W = l * weights integral, <x, p_i> = |x|^2 iff l (G W)_i = W . G W
    used = [i for i, wi in enumerate(res.weights) if wi]
    lw, ws = numerators([res.weights[i] for i in used])
    gw, wgw = _gram_products(ps, used, ws)
    active = [i for i, v in enumerate(gw) if lw * v == wgw]
    m = len(res.support)
    if len(active) == m:
        # the corral is affinely independent and holds every active point
        return res
    # with x = xs / q and p_i = P_i / den, sum_s w_s p_s = x becomes
    # sum_s w_s (q / g) P_s = (den / g) xs for g = gcd(q, den)
    q, xs = numerators(x)
    g = math.gcd(q, ps.den)
    cols = [[q // g * c for c in ps.coords[i]] + [1] for i in active]
    b = [ps.den // g * xr for xr in xs] + [1]
    # the vectors p_i - x, scaled to integers like the system's rows
    diffs = [[c - br for c, br in zip(col[:ps.dim], b)] for col in cols]

    def represent(picked, d, ys):
        subset = tuple(active[t] for t in picked)
        weights = [ZERO] * len(ps)
        for i, y in zip(subset, ys):
            weights[i] = Fraction(y, d)
        return MinNormResult(x, tuple(weights), subset)

    low = 1 if next(_dependent_subsets(diffs, m - 1), None) is not None else m
    for size in range(low, min(m, ps.dim) + 1):
        for picked in _dependent_subsets(diffs, size):
            sol = linalg.solve_integer(list(zip(*(cols[t] for t in picked))), b)
            if sol is not None and all(y > 0 for y in sol[1]):
                return represent(picked, *sol)
    if m > ps.dim:
        found = _square_support(cols, b)
        if found is not None:
            return represent(*found)
    raise RuntimeError("no exact convex representation of the optimum found")
