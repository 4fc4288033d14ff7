"""Exact linear algebra over fractions.Fraction.

Matrices are lists (or tuples) of rows of Fractions, vectors are sequences of
Fractions.  Exact pivots keep every result free of conditioning questions,
and a deterministic pivot choice (first nonzero) keeps every derived basis
reproducible run to run.  rref and invert eliminate densely; they serve
small systems.  nullspace takes and eliminates sparse rows, because its
largest caller, the derivation system of an n-dimensional bracket, has
n * C(n, 2) mostly-zero rows (450 rows by 100 columns at n = 10).
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence, Union

Scalar = Union[Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '-3/4', and rationals to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def is_exact(x) -> bool:
    return isinstance(x, Rational) and not isinstance(x, bool)


def parse_scalar(v) -> Scalar:
    """JSON value -> scalar: ints and 'p/q' strings stay exact, floats stay float."""
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal {v!r}") from exc
    raise ValueError(f"expected a number or 'p/q' string, got {v!r}")


def format_scalar(x: Scalar):
    """Scalar -> JSON value, inverse of parse_scalar."""
    if is_exact(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(x)


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)]


def matmul(a, b) -> list[list]:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_add(a, b) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a) -> list[list]:
    return [[c * x for x in row] for row in a]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def commutator(a, b) -> list[list]:
    return mat_sub(matmul(a, b), matmul(b, a))


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rref(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace(rows: Sequence[Mapping[int, Fraction]], cols: int) -> list[list[Fraction]]:
    """Canonical basis of the right null space (free variables set to 1).

    rows are sparse, {column: value} with columns in range(cols); zero
    values are ignored.  Gauss-Jordan elimination: each row is reduced by
    the pivot rows found so far, and a new pivot row is cleared out of the
    earlier ones, so the pivot rows stay in reduced echelon form.  That form
    is unique, so the basis is the one a dense rref gives.
    """
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for sparse in rows:
        row = {c: x for c, x in sparse.items() if x}
        # pivot rows vanish on each other's pivot columns, so one pass suffices
        for c in [c for c in row if c in pivot_rows]:
            _sub_scaled(row, row[c], pivot_rows[c])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            if p in other:
                _sub_scaled(other, other[p], row)
        pivot_rows[p] = row
    basis = {f: [ZERO] * cols for f in range(cols) if f not in pivot_rows}
    for p, row in pivot_rows.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    for f, v in basis.items():
        v[f] = ONE
    return list(basis.values())


def _sub_scaled(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row -= f * other for sparse rows, dropping the entries that cancel."""
    for c, y in other.items():
        v = row.get(c, ZERO) - f * y
        if v:
            row[c] = v
        else:
            del row[c]


def invert(m) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(m[i]) + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def bareiss_triangularize(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row elimination of an integer matrix (Bareiss).

    Returns (rows, pivot columns) with the pivot rows first and zeros below
    each pivot.  Every division is exact, so entries stay bounded by minors
    of the input; on the small hot systems here this beats Fraction
    elimination, which pays a gcd on every arithmetic step.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv = a[r][c]
        lead = a[r]
        for i in range(r + 1, rows):
            f = a[i][c]
            row = a[i]
            # entries left of c are zero in rows >= r, keep them as is
            a[i] = row[:c] + [(piv * row[j] - f * lead[j]) // prev
                              for j in range(c, cols)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> list[Fraction] | None:
    """Unique exact solution of an integer linear system, or None.

    None covers inconsistent and underdetermined systems alike; every call
    site wants a full-column-rank solve and treats the rest as "skip".
    """
    cols = len(a[0]) if a else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    tri, pivots = bareiss_triangularize(aug)
    if len(pivots) < cols or (pivots and pivots[-1] == cols):
        return None
    x: list[Fraction] = [ZERO] * cols
    for i in reversed(range(cols)):
        row = tri[i]
        s = row[cols] - sum(row[j] * x[j] for j in range(i + 1, cols))
        x[i] = Fraction(s) / row[i]
    return x


def is_psd(m) -> bool:
    """Exact positive-semidefiniteness via pivoted Schur complements."""
    a = [list(row) for row in m]
    n = len(a)
    idx = list(range(n))
    while idx:
        p = max(idx, key=lambda i: a[i][i])
        if a[p][p] < 0:
            return False
        if a[p][p] == 0:
            # all remaining diagonal entries are <= 0, hence all are 0;
            # PSD now requires the remaining block to vanish entirely
            return all(a[i][j] == 0 for i in idx for j in idx)
        piv = a[p][p]
        idx.remove(p)
        for i in idx:
            f = a[i][p] / piv
            if f:
                for j in idx:
                    a[i][j] -= f * a[p][j]
    return True


def sqrt_fraction(f: Fraction) -> Fraction | None:
    """Exact square root if f is a perfect square of a rational, else None."""
    if f < 0:
        return None
    sn = math.isqrt(f.numerator)
    sd = math.isqrt(f.denominator)
    if sn * sn == f.numerator and sd * sd == f.denominator:
        return Fraction(sn, sd)
    return None
