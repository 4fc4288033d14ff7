"""Exact linear algebra: the sparse null space and the inverse against the dense rref route."""

import math
from fractions import Fraction

import numpy as np
import pytest

from generators import filiform, free_two_step, rand_frac
from oracles import (dense_nullspace, fraction_is_psd, fraction_nullspace, identity, matmul,
                     rref, rref_inverse, solve)
from solvstrat import linalg
from solvstrat.bracket import BracketTensor, act, derivations
from solvstrat.catalog import filiform4, heisenberg3

F = Fraction


def _sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


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
    got = linalg.nullspace(_sparse(m), len(m[0]))
    assert got == dense_nullspace([[F(x) for x in row] for row in m])
    assert got == fraction_nullspace(_sparse(m), len(m[0]))
    assert all(type(x) is F for v in got for x in v)
    for v in got:
        assert all(linalg.dot(row, v) == 0 for row in m)


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
    got = linalg._nullspace_numerators(_sparse(m), cols)
    assert len(got) == len(want)
    for (den, nums), v in zip(got, want):
        assert den == math.lcm(*(x.denominator for x in v))
        assert nums == {c: int(x * den) for c, x in enumerate(v) if x}


def test_nullspace_numerators_of_a_pivot_that_does_not_divide_den():
    # the primitive pivot row (6, 4, 3): -4/6 = -2/3 and -3/6 = -1/2, so the
    # numerators over den 3 and 2 are -2 and -1, where -x * (den // 6) is 0
    assert linalg._nullspace_numerators([{0: 6, 1: 4, 2: 3}], 3) == [
        (3, {0: -2, 1: 3}), (2, {0: -1, 2: 2})]


def test_nullspace_of_no_rows_and_zero_values():
    assert linalg.nullspace([], 3) == identity(3)
    assert linalg.nullspace([{0: F(0), 2: F(2)}, {}], 3) == [[F(1), F(0), F(0)],
                                                             [F(0), F(1), F(0)]]


@pytest.mark.parametrize("mu", [heisenberg3(), filiform4(), filiform(8), filiform(10),
                                free_two_step(3), free_two_step(4)],
                         ids=["h3", "fil4", "L8", "L10", "free3", "free4"])
def test_nullspace_matches_dense_rref_on_derivation_systems(mu, monkeypatch):
    systems = []

    def spy(rows, cols):
        systems.append((rows, cols))
        return nullspace(rows, cols)

    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", spy)
    derivations(mu)
    assert len(systems) == 1
    rows, cols = systems[0]
    assert cols == mu.dim ** 2
    assert nullspace(rows, cols) == dense_nullspace(_dense(rows, cols))


def test_rational_derivation_system_reaches_nullspace_in_integers(monkeypatch):
    # Der(c mu) = Der(mu): the system of a bracket with rational coefficients
    # is built on mu scaled to integers, and solves to the same basis
    systems = []

    def spy(rows, cols):
        systems.append(rows)
        return nullspace(rows, cols)

    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", spy)
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
        assert linalg.solve_integer(a, b) == want
        seen.add((rows > cols, full, want is not None))
    # a square system of full rank is always consistent
    assert seen == {(False, False, False), (False, True, True), (True, False, False),
                    (True, True, False), (True, True, True)}


def _psd_battery():
    rng = np.random.default_rng(53)
    yield "empty", []
    yield "zero", [[0, 0], [0, 0]]
    yield "zero_diagonal_off_block", [[1, 0, 0], [0, 0, 2], [0, 2, 0]]
    yield "negative_diagonal", [[2, 1], [1, -1]]
    for t in range(60):
        n = int(rng.integers(1, 7))
        kind = t % 3
        if kind == 0:  # B^T B: semidefinite, singular when B has fewer than n rows
            b = rng.integers(-3, 4, size=(int(rng.integers(0, n + 1)), n))
            m = b.T @ b
        elif kind == 1:  # B^T B minus a small diagonal: often indefinite
            b = rng.integers(-3, 4, size=(n, n))
            m = b.T @ b - np.diag(rng.integers(0, 3, size=n))
        else:  # symmetric, unstructured
            a = rng.integers(-4, 5, size=(n, n))
            m = a + a.T
        m = [[int(x) * 2 ** 70 if t % 7 == 0 else int(x) for x in row] for row in m]
        yield f"random{t}", m


def test_integer_is_psd_matches_the_fraction_schur_complements():
    seen = set()
    for name, m in _psd_battery():
        got = linalg.is_psd(m)
        assert got == fraction_is_psd(m), name
        seen.add(got)
    assert seen == {True, False}


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
