"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fractions, vectors are sequences of
Fractions.  Exact pivots keep every result free of conditioning questions,
and a deterministic pivot choice (first nonzero) keeps every derived basis
reproducible run to run.  Every elimination is fraction-free, in integers,
which pays no gcd per arithmetic step: nullspace clears each sparse row of
its denominators and runs a content-normalized Gauss-Jordan, because its
largest caller, the derivation system of an n-dimensional bracket, has
n * C(n, 2) mostly-zero rows (450 rows by 100 columns at n = 10); invert
reads the inverse off the same null space kernel;
bareiss_triangularize and solve_integer serve the min-norm layer; is_psd
decides an integer symmetric matrix by fraction-free Schur complements.
is_zero, nonneg and positive state the comparison rule of each mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence, Union

Scalar = Union[Fraction, float]

ZERO = Fraction(0)


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
    return type(x) is Fraction or (isinstance(x, Rational) and not isinstance(x, bool))


def is_zero(x, tol: float) -> bool:
    """x == 0 for an exact x, |x| <= tol for a float."""
    return x == 0 if is_exact(x) else abs(x) <= tol


def nonneg(x, tol: float) -> bool:
    """x >= 0 for an exact x, x >= -tol for a float."""
    return x >= 0 if is_exact(x) else x >= -tol


def positive(x, tol: float) -> bool:
    """x > 0 for an exact x, x > tol for a float."""
    return x > 0 if is_exact(x) else x > tol


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
            # ASCII [-]digits[/digits] with a nonzero denominator skips
            # Fraction's literal regex; anything else is Fraction's to judge
            num, slash, den = v.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isdigit() and digits.isascii():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit() and den.isascii() and int(den):
                    return Fraction(int(num), int(den))
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal {v!r}") from exc
    raise ValueError(f"expected a number or 'p/q' string, got {v!r}")


def format_scalar(x: Scalar):
    """Scalar -> JSON value, inverse of parse_scalar."""
    if is_exact(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return float(x)


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)]


def fraction_rows(rows: Sequence[Sequence[int]], den: int) -> list[list[Fraction]]:
    """The matrix rows / den in Fractions; equal numerators share one Fraction."""
    made: dict[int, Fraction] = {}
    out = []
    for row in rows:
        new = []
        for x in row:
            f = made.get(x)
            if f is None:
                f = made[x] = Fraction(x, den)
            new.append(f)
        out.append(new)
    return out


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def trace_product(a, b):
    """tr(a b) from the diagonal of the product only.

    Each diagonal entry sums sum_k a_ik b_ki over k ascending, and the trace
    sums those entries over i ascending, the order of a full product's trace.
    """
    return sum(sum(x * row[i] for x, row in zip(a[i], b)) for i in range(len(a)))


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def nullspace(rows: Sequence[Mapping[int, Rational]], cols: int) -> list[list[Fraction]]:
    """Canonical basis of the right null space (free variables set to 1).

    rows are sparse, {column: value} with columns in range(cols) and int or
    Fraction values; zero values are ignored.  The basis is that of
    _nullspace_numerators, each vector num / den written out densely in
    Fractions.
    """
    basis = []
    for den, nums in _nullspace_numerators(rows, cols):
        v = [ZERO] * cols
        for c, x in nums.items():
            v[c] = Fraction(x, den)
        basis.append(v)
    return basis


def _nullspace_numerators(rows: Sequence[Mapping[int, Rational]],
                          cols: int) -> list[tuple[int, dict[int, int]]]:
    """The canonical null space basis of nullspace as integers: per free
    column f, ascending, (den, {column: numerator}) with the basis vector
    num / den, den the lcm of its entries' reduced denominators and only
    the nonzero entries listed (den itself at f).

    Each row is scaled by the lcm of its denominators and eliminated in
    integers by Gauss-Jordan: it is reduced by the pivot rows found so far
    (row = p * row - f * P with p, f the coprime parts of the two entries),
    divided by the gcd of its entries and signed so that its pivot is
    positive, and a new pivot row is cleared out of the earlier ones the
    same way.  Each pivot row is then the primitive integer multiple of its
    row of the reduced echelon form.  That form is unique, so the basis
    -x / pivot is the one a dense rref gives.  With g = gcd(x, pivot) the
    entry -x / pivot is -(x / g) / (pivot / g) in lowest terms, so its
    numerator over den is -(x / g) * (den / (pivot / g)); the pivot itself
    need not divide den.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for sparse in rows:
        den = math.lcm(*(x.denominator for x in sparse.values() if x))
        row = {c: x.numerator * (den // x.denominator) for c, x in sparse.items() if x}
        # pivot rows vanish on each other's pivot columns, so one pass suffices
        for c in [c for c in row if c in pivot_rows]:
            row = _clear(row, pivot_rows[c], c)
        if not row:
            continue
        p = min(row)
        row = _primitive(row, row[p] < 0)
        for q, other in pivot_rows.items():
            if p in other:
                pivot_rows[q] = _primitive(_clear(other, row, p), False)
        pivot_rows[p] = row
    # per free column, the (pivot column, -x / g, pivot / g) of its entries
    entries: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(cols) if f not in pivot_rows}
    for p, row in pivot_rows.items():
        piv = row[p]
        for c, x in row.items():
            if c != p:
                g = math.gcd(x, piv)
                entries[c].append((p, -x // g, piv // g))
    basis = []
    for f, column in entries.items():
        den = math.lcm(*(q for _, _, q in column))
        nums = {p: x * (den // q) for p, x, q in column}
        nums[f] = den
        basis.append((den, nums))
    return basis


def _clear(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """a * row - b * pivot_row with a / b = pivot_row[c] / row[c] in lowest
    terms (a > 0 when pivot_row[c] > 0), so column c cancels; zeros dropped."""
    g = math.gcd(pivot_row[c], row[c])
    a, b = pivot_row[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, y in pivot_row.items():
        v = out.get(k, 0) - b * y
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _primitive(row: dict[int, int], negate: bool) -> dict[int, int]:
    """row divided by the gcd of its entries, negated if asked."""
    g = math.gcd(*row.values())
    if negate:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def invert(m) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; ValueError if it is singular.

    The null space of [m | -I] is {(x, m x)}, of dimension n, and
    _nullspace_numerators gives its canonical basis.  The basis vector of a
    free column is nonzero only there and at pivot columns to its left, so
    its largest key is that free column.  m is invertible iff the free
    columns are n .. 2n - 1, and then the vector of free column n + j is
    (m^-1 e_j, e_j) times its den.
    """
    n = len(m)
    rows = [{**dict(enumerate(row)), n + i: -1} for i, row in enumerate(m)]
    basis = _nullspace_numerators(rows, 2 * n)
    if [max(nums) for _, nums in basis] != list(range(n, 2 * n)):
        raise ValueError("matrix is singular")
    inv = [[ZERO] * n for _ in range(n)]
    for j, (den, nums) in enumerate(basis):
        for c, x in nums.items():
            if c < n:
                inv[c][j] = Fraction(x, den)
    return inv


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
    # By Cramer's rule d * x is integral for the last pivot d, the leading
    # minor, so y = d * x back-substitutes in integers with exact divisions.
    d = tri[cols - 1][cols - 1] if cols else 1
    y = [0] * cols
    for i in reversed(range(cols)):
        row = tri[i]
        y[i] = (d * row[cols] - sum(row[j] * y[j] for j in range(i + 1, cols))) // row[i]
    return [Fraction(v, d) for v in y]


def is_psd(m: Sequence[Sequence[int]]) -> bool:
    """Exact positive-semidefiniteness of a symmetric integer matrix.

    Fraction-free Schur complements with the largest remaining diagonal
    entry as pivot: each step replaces the remaining block by
    (piv * a_ij - a_ip * a_pj) / prev, where prev is the previous pivot, as
    in Bareiss elimination, so every division is exact.  That block is
    piv / prev > 0 times the rational Schur complement, so signs, the pivot
    order and the verdict are those of rational elimination.  A caller with
    a rational matrix passes D m D for a positive diagonal D that clears its
    denominators; the congruence keeps semidefiniteness.
    """
    a = [list(row) for row in m]
    idx = list(range(len(a)))
    prev = 1
    while idx:
        p = max(idx, key=lambda i: a[i][i])
        piv = a[p][p]
        if piv < 0:
            return False
        if piv == 0:
            # all remaining diagonal entries are <= 0, hence all are 0;
            # PSD now requires the remaining block to vanish entirely
            return all(a[i][j] == 0 for i in idx for j in idx)
        idx.remove(p)
        lead = a[p]
        for i in idx:
            row = a[i]
            f = row[p]
            for j in idx:
                row[j] = (piv * row[j] - f * lead[j]) // prev
        prev = piv
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
