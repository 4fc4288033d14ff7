"""Exact linear algebra: the sparse echelon, its null space and the inverse
against the dense rref route."""

import math
from fractions import Fraction

import numpy as np
import pytest

from generators import filiform, filiform4, free_two_step, heisenberg3, rand_frac
from oracles import (dense_nullspace, fraction_nullspace, identity, matmul, numerator_basis,
                     rref, rref_inverse, solve)
from solvstrat import linalg
from solvstrat.bracket import BracketTensor, act, derivations

F = Fraction


def _sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def _integer_rows(m):
    # each row times the lcm of its denominators, as the null space kernel takes it
    rows = []
    for row in m:
        den = math.lcm(*(F(x).denominator for x in row))
        rows.append({c: int(F(x) * den) for c, x in enumerate(row) if x})
    return rows


def _dense(rows, cols):
    # Fraction entries: rref would divide int rows into floats
    return [[F(row.get(c, 0)) for c in range(cols)] for row in rows]


def _sparse_random(rng, rows, cols, density=0.4):
    return [[rand_frac(rng) if rng.random() < density else F(0) for _ in range(cols)]
            for _ in range(rows)]


def _low_rank(rng, rows, cols, rank):
    left = _sparse_random(rng, rows, rank, 0.6)
    right = _sparse_random(rng, rank, cols, 0.6)
    return matmul(left, right)


def _battery():
    rng = np.random.default_rng(31)
    yield "zero", [[F(0)] * 5 for _ in range(4)]
    yield "one_zero_row", [[F(0)] * 3]
    yield "identity", identity(4)
    yield "zero_and_duplicate_rows", [[F(1), F(2), F(0), F(-1)], [F(0)] * 4,
                                      [F(1), F(2), F(0), F(-1)], [F(0), F(0), F(3), F(1)]]
    for t in range(40):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        kind = t % 4
        if kind == 0:  # tall
            m = _sparse_random(rng, max(rows, cols) + 2, cols)
        elif kind == 1:  # wide
            m = _sparse_random(rng, rows, max(rows, cols) + 2)
        elif kind == 2:  # rank-deficient
            m = _low_rank(rng, rows, cols, int(rng.integers(1, min(rows, cols) + 1)))
        else:  # square and dense, generically full rank
            m = [[rand_frac(rng) for _ in range(rows)] for _ in range(rows)]
        if t % 5 == 0 and len(m) > 1:  # repeated rows and a zero row
            m = m + [list(m[0]), [F(0)] * len(m[0])]
        yield f"random{t}", m


def _integer_battery():
    rng = np.random.default_rng(47)
    for t in range(30):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = (rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(-3, 4, size=(rank, cols)))
        yield f"int{t}", [[int(x) for x in row] for row in m]
    # coprime denominators above 2^64, so lcms and pivots exceed 64 bits
    big = [2 ** 64 + 13, 2 ** 64 + 15, 2 ** 65 + 1, 5 ** 29]
    for t in range(10):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        left = [[F(int(rng.integers(-3, 4)), big[int(rng.integers(0, 4))]) for _ in range(rank)]
                for _ in range(rows)]
        right = [[F(int(rng.integers(-5, 6)), big[int(rng.integers(0, 4))]) for _ in range(cols)]
                 for _ in range(rank)]
        yield f"huge{t}", matmul(left, right)
    # rows that cancel to nothing against the rows before them
    yield "cancelling", [[1, 2, 0, 3], [2, 4, 0, 6], [0, 1, 1, 0], [1, 3, 1, 3], [-1, -1, 1, -3]]
    yield "cancelling_fractions", [[F(1, 3), F(2, 5), 0], [F(-1, 7), 1, F(1, 2)],
                                   [F(2, 3), F(4, 5), 0], [F(1, 3) - F(1, 7), F(7, 5), F(1, 2)]]


@pytest.mark.parametrize("m", [pytest.param(m, id=name)
                               for name, m in [*_battery(), *_integer_battery()]])
def test_nullspace_matches_dense_rref_on_a_battery(m):
    cols = len(m[0])
    got = numerator_basis(linalg._nullspace_numerators(_integer_rows(m), cols), cols)
    assert got == dense_nullspace([[F(x) for x in row] for row in m])
    assert got == fraction_nullspace(_sparse(m), cols)
    assert all(type(x) is F for v in got for x in v)
    for v in got:
        assert all(linalg.dot(row, v) == 0 for row in m)


@pytest.mark.parametrize("m", [pytest.param(m, id=name)
                               for name, m in [*_battery(), *_integer_battery()]])
def test_echelon_spans_the_rows_of_the_dense_rref(m):
    # the pivot rows are the rref's rows scaled to primitive integers with a
    # positive pivot, on the same pivot columns
    cols = len(m[0])
    got = linalg.echelon(_integer_rows(m))
    r, pivots = rref([[F(x) for x in row] for row in m])
    assert sorted(got) == pivots
    for p, row in zip(pivots, r):
        prim = got[p]
        assert all(type(x) is int and x for x in prim.values())
        assert prim[p] > 0 and math.gcd(*prim.values()) == 1
        assert [F(prim.get(c, 0), prim[p]) for c in range(cols)] == row


def _pivot_battery():
    # pivot rows whose pivot does not divide the lcm of the reduced entries
    # of a free column: 6 over entries -2/3, and 6 and 10 sharing column 2,
    # with den 15 and numerators -10 and -6
    yield "pivot6", [[6, 4, 3]]
    yield "pivots6_10", [[6, 0, 4], [0, 10, 4]]
    yield "pivots12_18", [[12, 0, 0, 8, 9], [0, 18, 0, 12, 4], [0, 0, 5, 2, 3]]
    rng = np.random.default_rng(71)
    for t in range(40):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(rows + 1, 9))
        m = [[rand_frac(rng, 12, 9) if rng.random() < 0.6 else F(0) for _ in range(cols)]
             for _ in range(rows)]
        yield f"random{t}", m


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in
                               [*_pivot_battery(), *_battery(), *_integer_battery()]])
def test_nullspace_numerators_match_the_fraction_route(m):
    # each basis vector num / den: den is the lcm of its reduced
    # denominators, and only the nonzero numerators are listed
    cols = len(m[0])
    want = fraction_nullspace(_sparse(m), cols)
    got = linalg._nullspace_numerators(_integer_rows(m), cols)
    assert len(got) == len(want)
    for (den, nums), v in zip(got, want):
        assert den == math.lcm(*(x.denominator for x in v))
        assert nums == {c: int(x * den) for c, x in enumerate(v) if x}


def test_numerators_clear_denominators_by_their_lcm():
    assert linalg.numerators([F(1, 6), F(-3, 4), 2, F(0)]) == (12, [2, -9, 24, 0])
    assert linalg.numerators([3, -1]) == (1, [3, -1])
    assert linalg.numerators([]) == (1, [])


def test_nullspace_numerators_of_a_pivot_that_does_not_divide_den():
    # the primitive pivot row (6, 4, 3): -4/6 = -2/3 and -3/6 = -1/2, so the
    # numerators over den 3 and 2 are -2 and -1, where -x * (den // 6) is 0
    assert linalg._nullspace_numerators([{0: 6, 1: 4, 2: 3}], 3) == [
        (3, {0: -2, 1: 3}), (2, {0: -1, 2: 2})]


def test_nullspace_of_no_rows_and_zero_values():
    # no rows leave every column free; an empty row and a row that cancels
    # add no pivot
    assert linalg.echelon([]) == linalg.echelon([{}]) == {}
    assert numerator_basis(linalg._nullspace_numerators([], 3), 3) == identity(3)
    assert linalg.echelon([{2: 2}, {}, {2: -3}]) == {2: {2: 1}}
    assert linalg._nullspace_numerators([{2: 2}, {}, {2: -3}], 3) == [(1, {0: 1}), (1, {1: 1})]


@pytest.mark.parametrize("mu", [heisenberg3(), filiform4(), filiform(8), filiform(10),
                                free_two_step(3), free_two_step(4)],
                         ids=["h3", "fil4", "L8", "L10", "free3", "free4"])
def test_nullspace_matches_dense_rref_on_derivation_systems(mu, monkeypatch):
    systems = []

    def spy(rows, cols):
        systems.append((rows, cols))
        return kernel(rows, cols)

    kernel = linalg._nullspace_numerators
    monkeypatch.setattr(linalg, "_nullspace_numerators", spy)
    basis = derivations(mu)
    assert len(systems) == 1
    rows, cols = systems[0]
    assert cols == mu.dim ** 2
    want = dense_nullspace(_dense(rows, cols))
    assert numerator_basis(kernel(rows, cols), cols) == want
    # derivations writes the same basis out as n x n matrices
    assert [[x for row in d for x in row] for d in basis] == want


def test_rational_derivation_system_reaches_nullspace_in_integers(monkeypatch):
    # Der(c mu) = Der(mu): the system of a bracket with rational coefficients
    # is built on mu scaled to integers, and solves to the same basis
    systems = []

    def spy(rows, cols):
        systems.append(rows)
        return kernel(rows, cols)

    kernel = linalg._nullspace_numerators
    monkeypatch.setattr(linalg, "_nullspace_numerators", spy)
    g = [[F(1), F(1, 3), F(0), F(0)], [F(0), F(2, 5), F(0), F(1)],
         [F(1, 7), F(0), F(1), F(0)], [F(0), F(0), F(-1, 2), F(1)]]
    mu = act(g, filiform4())
    assert any(c.denominator > 1 for c in mu.coeffs.values())
    for bracket in (mu, BracketTensor.make(3, {(1, 2, 3): F(2, 3)})):
        systems.clear()
        basis = derivations(bracket)
        assert len(systems) == 1
        assert all(type(x) is int for row in systems[0] for x in row.values())
        assert basis == derivations(bracket.scaled(F(5, 7)))


def test_trace_product_equals_trace_of_matmul():
    rng = np.random.default_rng(60)
    for n in range(1, 8):
        a = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
        b = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
        assert linalg.trace_product(a, b) == linalg.trace(matmul(a, b))
        fa, fb = rng.normal(size=(n, n)).tolist(), rng.normal(size=(n, n)).tolist()
        assert (repr(linalg.trace_product(fa, fb))
                == repr(linalg.trace(matmul(fa, fb))))


def test_solve_integer_matches_rref_solve_on_a_battery():
    # square and overdetermined, consistent and inconsistent, full and
    # deficient column rank; None exactly when no unique solution exists
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(400):
        cols = int(rng.integers(1, 6))
        rows = cols + int(rng.integers(0, 3))
        rank = cols - int(rng.integers(0, 2))
        a = [[int(x) for x in row] for row in
             rng.integers(-4, 5, size=(rows, rank)) @ rng.integers(-4, 5, size=(rank, cols))]
        if rng.integers(0, 2):
            b = [int(x) for x in rng.integers(-9, 10, size=rows)]
        else:
            x0 = [int(x) for x in rng.integers(-9, 10, size=cols)]
            b = [sum(r * x for r, x in zip(row, x0)) for row in a]
        fa = [[Fraction(x) for x in row] for row in a]
        full = len(rref(fa)[1]) == cols
        want = solve(fa, [Fraction(x) for x in b]) if full else None
        got = linalg.solve_integer(a, b)
        if want is None:
            assert got is None
        else:
            d, y = got
            assert d > 0 and [Fraction(v, d) for v in y] == want
        seen.add((rows > cols, full, want is not None))
    # a square system of full rank is always consistent
    assert seen == {(False, False, False), (False, True, True), (True, False, False),
                    (True, True, False), (True, True, True)}


def _rref_callers() -> set[str]:
    """Functions of src/solvstrat that call rref, as module.function."""
    import ast
    from pathlib import Path

    import solvstrat

    callers = set()
    for path in sorted(Path(solvstrat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name == "rref":
                        callers.add(f"{path.stem}.{fn.name}")
    return callers


def test_no_src_function_eliminates_in_dense_fractions():
    # every elimination of the package is fraction-free; the dense rref is a
    # test oracle only
    assert _rref_callers() == set()
    assert not hasattr(linalg, "rref")


def test_invert_matches_the_rref_inverse_on_a_battery():
    # square rational matrices of size 1-8, dense and sparse; every fifth one
    # singular by construction, and each singular one raises
    rng = np.random.default_rng(83)
    seen = set()
    for t in range(300):
        n = int(rng.integers(1, 9))
        if t % 5 == 1:
            m = _sparse_random(rng, n, n, 0.5)
        else:
            m = [[rand_frac(rng) for _ in range(n)] for _ in range(n)]
        if t % 5 == 0:  # the last row a combination of the others
            coeffs = [rand_frac(rng) for _ in m[:-1]]
            m[-1] = [sum((a * row[c] for a, row in zip(coeffs, m)), F(0)) for c in range(n)]
        want = rref_inverse(m)
        if want is None:
            with pytest.raises(ValueError, match="matrix is singular"):
                linalg.invert(m)
        else:
            got = linalg.invert(m)
            assert got == want
            assert all(type(x) is F for row in got for x in row)
        seen.add((t % 5 == 0, want is None))
    assert seen == {(True, True), (False, False), (False, True)}


@pytest.mark.parametrize("text", ["0", "-0", "7", "-12", "007/010", "-37/120", "3/0", "3/00",
                                  "3/", "+3", " 3", "1_000", "1.5", "1e3", "٣", "-3/-4",
                                  "3/4/5", "", "-", "/4", "-/4", "4/-", str(2**200) + "/3"])
def test_parse_scalar_agrees_with_the_fraction_literal(text):
    # the fast path for [-]digits[/digits] must accept, value and reject
    # exactly as Fraction's own parser does
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(ValueError, match="malformed rational literal") as info:
            linalg.parse_scalar(text)
        cause = info.value.__cause__
        assert (type(cause), str(cause)) == (type(exc), str(exc))
    else:
        got = linalg.parse_scalar(text)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("value", [0, -7, 2**100, "-0", "06/4", "-6/4", "12/-4", " 1/2", "1.5",
                                   "1e3", "1e-3", "-2.5E+2", "٣", "1_000", 2.5])
def test_parse_literal_gives_lowest_terms_or_the_float(value):
    # parse_scalar's one fast path: the pair (num, den) of the Fraction
    # parse_scalar builds from it, in lowest terms with den > 0
    try:
        want = linalg.parse_scalar(value)
    except ValueError:
        with pytest.raises(ValueError, match="malformed rational literal"):
            linalg.parse_literal(value)
        return
    got = linalg.parse_literal(value)
    if isinstance(want, float):
        assert type(got) is float and got == want
    else:
        assert type(got) is tuple and got == (want.numerator, want.denominator)
        assert math.gcd(*got) == 1 and got[1] > 0


def test_parse_literal_bounds_the_exponent_before_expanding_it():
    # the bound is Python's 4300 digits of an int string; beyond it the
    # literal is refused before 10^|exponent| is built
    assert linalg.parse_scalar("1e4300") == 10**4300
    assert linalg.parse_scalar("-3e-4300") == Fraction(-3, 10**4300)
    assert linalg.parse_scalar("1e" + "0" * 4000 + "7") == 10**7
    for text in ("1e4301", "0e99999999", "1E-4301", "1.5e+10000000", "-0.e12345"):
        with pytest.raises(ValueError, match="its exponent exceeds 4300 in magnitude"):
            linalg.parse_literal(text)
    # an exponent of more than 4300 digits is refused by int itself
    with pytest.raises(ValueError, match="malformed rational literal") as info:
        linalg.parse_literal("1e" + "9" * 5000)
    assert "Exceeds the limit" in str(info.value.__cause__)


def test_clear_denominators_equals_numerators():
    values = [Fraction(1, 6), Fraction(-3, 4), Fraction(2), Fraction(0)]
    assert linalg.clear_denominators([(x.numerator, x.denominator) for x in values]) == \
        linalg.numerators(values) == (12, [2, -9, 24, 0])
    assert linalg.clear_denominators([]) == (1, [])


def test_sqrt_fraction_is_exact_or_none():
    assert linalg.sqrt_fraction(F(9, 4)) == F(3, 2)
    assert linalg.sqrt_fraction(16) == 4 and linalg.sqrt_fraction(F(0)) == 0
    assert linalg.sqrt_fraction(F(2)) is None and linalg.sqrt_fraction(F(9, 2)) is None
    assert linalg.sqrt_fraction(F(-4)) is None
    # a float has no exact root, even where its value is a perfect square
    assert linalg.sqrt_fraction(4.0) is None and linalg.sqrt_fraction(np.float64(0.25)) is None


def test_g_text_is_the_g_format_of_either_mode_at_every_size():
    # a float, and an exact value inside the normal float range, print as
    # f"{x:g}" of their float; an exact value beyond keeps that form with
    # the exponent carried in integers
    for x in (0.0, -0.0, 2e-10, -1.5e300, 5e-324, math.inf, -math.inf, math.nan):
        assert linalg.g_text(x) == f"{x:g}"
    for k in range(-307, 308, 7):
        x = F(-3, 2) * F(10) ** k
        assert linalg.g_text(x) == f"{float(x):g}"
    assert linalg.g_text(F(0)) == "0" and linalg.g_text(F(2, 2 ** 1070)) == f"{2 ** -1069:g}"
    assert (linalg.g_text(F(2, 10 ** 400)), linalg.g_text(F(2 * 10 ** 400))) == ("2e-400", "2e+400")
    assert linalg.g_text(-F(3, 2) * F(10) ** 5001) == "-1.5e+5001"
    # a mantissa that rounds up to 10 moves to the next exponent
    assert linalg.g_text(F(9999996, 10 ** 6) * F(10) ** 600) == "1e+601"
