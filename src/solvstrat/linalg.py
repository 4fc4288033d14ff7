"""Exact linear algebra over the rationals.

Matrices are lists (or tuples) of rows of Fractions, vectors are sequences of
Fractions.  Exact pivots keep every result free of conditioning questions,
and a deterministic pivot choice (first nonzero) keeps every derived basis
reproducible run to run.  Every elimination is fraction-free, in integers,
which pays no gcd per arithmetic step.  One sparse eliminator, echelon, runs
a content-normalized Gauss-Jordan on sparse integer rows and serves every
exact span, rank and null space: its largest caller, the derivation system
of an n-dimensional bracket, has n * C(n, 2) mostly-zero integer rows (450
rows by 100 columns at n = 10).  _nullspace_numerators reads the canonical
null space basis off it, and invert clears rational rows of their
denominators (numerators) and calls that.  solve_integer keeps its own
dense Bareiss elimination for the small square systems of the min-norm
layer, where it is faster, and returns integers.  is_zero, nonneg and
positive state the comparison rule of each mode.  parse_literal is the one
reader of JSON scalars: it gives an exact value as (num, den) in lowest
terms, which clear_denominators writes over a common denominator with no
Fraction built, and parse_scalar wraps it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence, Union

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


# Python refuses to convert a string of more than this many digits to an int
# (its default int_max_str_digits).  A literal's decimal exponent is held to
# the same bound: Fraction("1e10000000") would build 10^10000000 first.
_MAX_EXPONENT = 4300


def parse_literal(v) -> tuple[int, int] | float:
    """JSON value -> (num, den) in lowest terms with den > 0 for an int or a
    rational string, or the float itself for a finite float.

    Python's json reads NaN, Infinity and overflowing literals such as 1e309
    as non-finite floats; those raise ValueError, as do bools and values
    that are neither numbers nor strings.  A string is read as Fraction
    reads it, except that a decimal exponent beyond _MAX_EXPONENT raises
    ValueError before any power of ten is built.
    """
    if isinstance(v, str):
        try:
            # ASCII [-]digits[/digits] with a nonzero denominator skips
            # Fraction's literal regex; anything else is Fraction's to judge
            num, slash, den = v.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isdigit() and digits.isascii():
                if not slash:
                    return int(num), 1
                if den.isdigit() and den.isascii():
                    d = int(den)
                    if d:
                        n = int(num)
                        g = math.gcd(n, d)
                        return (n, d) if g == 1 else (n // g, d // g)
            if not _exponent_beyond_limit(v):
                f = Fraction(v)
                return f.numerator, f.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal {v!r}") from exc
        raise ValueError(f"malformed rational literal {v!r}: its exponent exceeds "
                         f"{_MAX_EXPONENT} in magnitude")
    if isinstance(v, bool):
        raise ValueError(f"expected a number, got {v!r}")
    if isinstance(v, int):
        return v, 1
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"expected a finite number, got {v!r}")
        return v
    raise ValueError(f"expected a number or 'p/q' string, got {v!r}")


def _exponent_beyond_limit(v: str) -> bool:
    """Whether the text after the first e or E of v reads as an int of
    magnitude above _MAX_EXPONENT; text that does not read as an int is left
    to Fraction."""
    _, e, exponent = v.lower().partition("e")
    try:
        return bool(e) and abs(int(exponent)) > _MAX_EXPONENT
    except ValueError:
        return False


def parse_scalar(v) -> Scalar:
    """JSON value -> scalar by parse_literal: ints and rational strings
    become Fractions, finite floats stay float."""
    x = parse_literal(v)
    return x if isinstance(x, float) else Fraction(*x)


def format_scalar(x: Scalar):
    """Scalar -> JSON value, inverse of parse_scalar.  An exact x whose
    numerator or denominator has more digits than Python converts to a
    string raises ValueError saying so."""
    if is_exact(x):
        try:
            return str(x)  # "n" or "n/d"
        except ValueError as exc:
            raise ValueError(f"an exact result has more than {sys.get_int_max_str_digits()} "
                             "digits, too many to print") from exc
    return float(x)


def g_text(x: Scalar, root: bool = False) -> str:
    """f"{x:g}", or f"{math.sqrt(x):g}" when root, for x of either mode with
    no float that can overflow or underflow: an exact x beyond the normal
    float range is printed as the text of x / 100^k, k about log10(x) / 2,
    with 2k (k when root) added to its exponent."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if f == x or f != f or sys.float_info.min <= abs(f) < math.inf:
        return f"{math.sqrt(f) if root else f:g}"
    q = Fraction(x)
    k = (abs(q.numerator).bit_length() - q.denominator.bit_length()) * 150515 // 10 ** 6
    y = float(q / Fraction(100) ** k)
    mant, exp = f"{math.sqrt(y) if root else y:.5e}".split("e")
    return f"{mant.rstrip('0').rstrip('.')}e{int(exp) + (k if root else 2 * k):+03d}"


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


def numerators(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """(L, [L x for x in values]) with L the lcm of the denominators, the
    smallest positive integer that clears them (1 for no values)."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def clear_denominators(pairs: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """numerators of the values num / den given as pairs (num, den) in
    lowest terms with den > 0, such as parse_literal returns, with no
    Fraction built."""
    den = math.lcm(*(d for _, d in pairs))
    return den, [n * (den // d) for n, d in pairs]


def _integer_row(sparse: Mapping[int, Rational]) -> dict[int, int]:
    """The sparse row times the lcm of its denominators, zeros dropped."""
    _, nums = numerators(list(sparse.values()))
    return {c: x for c, x in zip(sparse, nums) if x}


def echelon(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced echelon form of sparse integer rows {column: nonzero int}
    as {pivot column: pivot row}, pivot columns in the order found.

    The rows are eliminated by Gauss-Jordan: each is reduced by the pivot
    rows found so far (row = p * row - f * P with p, f the coprime parts of
    the two entries), divided by the gcd of its entries and signed so that
    its pivot, its smallest column, is positive, and a new pivot row is
    cleared out of the earlier ones the same way.  Each pivot row is then
    the primitive integer multiple of its row of the reduced row echelon
    form, which is unique; the pivot rows span the rows, and their number is
    the rank.  Rows that reduce to zero are dropped.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue   # zero rows are common (most brackets in a series vanish)
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
    return pivot_rows


def _nullspace_numerators(rows: Sequence[Mapping[int, int]],
                          cols: int) -> list[tuple[int, dict[int, int]]]:
    """The canonical null space basis of integer rows {column: nonzero int}:
    per free column f, ascending, (den, {column: numerator}) with the basis
    vector num / den, den the lcm of its entries' reduced denominators and
    only the nonzero entries listed (den itself at f).

    The free columns are those without a pivot in echelon(rows).  The
    reduced echelon form is unique, so the basis -x / pivot is the one a
    dense rref gives.  With g = gcd(x, pivot) the entry -x / pivot is
    -(x / g) / (pivot / g) in lowest terms, so its numerator over den is
    -(x / g) * (den / (pivot / g)); the pivot itself need not divide den.
    """
    pivot_rows = echelon(rows)
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
    rows = [_integer_row({**dict(enumerate(row)), n + i: -1}) for i, row in enumerate(m)]
    basis = _nullspace_numerators(rows, 2 * n)
    if [max(nums) for _, nums in basis] != list(range(n, 2 * n)):
        raise ValueError("matrix is singular")
    inv = [[ZERO] * n for _ in range(n)]
    for j, (den, nums) in enumerate(basis):
        for c, x in nums.items():
            if c < n:
                inv[c][j] = Fraction(x, den)
    return inv


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, list[int]] | None:
    """Unique exact solution of an integer linear system as integers (d, y),
    the solution being x = y / d with d > 0, or None.

    The augmented matrix [a | b] is triangularized by dense fraction-free
    row elimination (Bareiss), one pivot per column of a, the first nonzero
    entry at or below the diagonal: every division by the previous pivot is
    exact, so entries stay bounded by minors of the input; on the small hot
    systems of the min-norm layer this beats the sparse echelon.  d is the
    leading minor of the elimination up to sign, so y / d need not be in
    lowest terms.  None covers inconsistent and underdetermined systems
    alike; every call site wants a full-column-rank solve and treats the
    rest as "skip".
    """
    cols = len(a[0]) if a else 0
    tri = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows = len(tri)
    prev = 1
    for c in range(cols):
        p = next((i for i in range(c, rows) if tri[i][c]), None)
        if p is None:
            return None   # column c has no pivot: the rank is below cols
        tri[c], tri[p] = tri[p], tri[c]
        lead = tri[c]
        piv = lead[c]
        for i in range(c + 1, rows):
            f = tri[i][c]
            row = tri[i]
            # entries left of c are zero in rows >= c, keep them as is
            tri[i] = row[:c] + [(piv * row[j] - f * lead[j]) // prev
                                for j in range(c, cols + 1)]
        prev = piv
    if any(row[cols] for row in tri[cols:]):
        return None   # b is not in the column span: inconsistent
    # By Cramer's rule d * x is integral for the last pivot d, the leading
    # minor, so y = d * x back-substitutes in integers with exact divisions.
    d = tri[cols - 1][cols - 1] if cols else 1
    y = [0] * cols
    for i in reversed(range(cols)):
        row = tri[i]
        y[i] = (d * row[cols] - sum(row[j] * y[j] for j in range(i + 1, cols))) // row[i]
    return (d, y) if d > 0 else (-d, [-v for v in y])


def sqrt_fraction(f: Scalar) -> Fraction | None:
    """Exact square root if f is a perfect square of a rational, else None;
    a float has no exact root, so it gives None."""
    if not is_exact(f) or f < 0:
        return None
    sn = math.isqrt(f.numerator)
    sd = math.isqrt(f.denominator)
    if sn * sn == f.numerator and sd * sd == f.denominator:
        return Fraction(sn, sd)
    return None
