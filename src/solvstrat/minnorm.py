"""Exact minimum-norm point of a convex hull of rational points.

One solver, on integers: min_norm_point, Wolfe's active-set method.  It
returns the optimum with the final corral's weights.  The corral is
affinely independent, so those are the only barycentric weights of the
optimum on it, and all of them are strictly positive; the method is
deterministic, so the corral is a function of the input.  The optimum
itself is unique by strict convexity, while the set of points that carries
it need not be: the corral is one such set, not the smallest one.

Integer representation.  A PointSet is its integer coordinates: with den
the lcm of all coordinate denominators, point i is p_i = P_i / den for the
integer vector P_i = coords[i], and G_ij = <P_i, P_j> = den^2 <p_i, p_j> is
the integer Gram matrix.  Its columns are computed on demand and cached
(PointSet.column): Wolfe reads only the columns of the points that enter
its corral.  A convex combination x = sum_c w_c p_c is held as integer
numerators y_c = d w_c over one positive denominator d, so that

    den^2 d <x, p_i> = (G y)_i,    den^2 d^2 |x|^2 = y . G y,

and every comparison the solver makes (Wolfe's pricing and drop step) is
one between integers.  The exact solves return integers too:
linalg.solve_integer gives (d, y), and Wolfe's affine step turns it into
weights y / sum(y) (_affine_minimizer).  Fractions are built once, for the
returned MinNormResult: the point x_r = sum_c y_c P_cr / (den d) and the
weights y_c / d.  MinNormResult.verify re-derives its five conditions from
the integer coordinates and the point's own integer numerator,
independently of the solver's state.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
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
        solver state, so it checks the solver independently.  Raises
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

