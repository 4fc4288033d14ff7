"""Exact linear algebra: the sparse null space against the dense rref route."""

from fractions import Fraction

import numpy as np
import pytest

from generators import filiform, free_two_step, rand_frac
from oracles import dense_nullspace, matmul, solve
from solvstrat import linalg
from solvstrat.bracket import derivations
from solvstrat.catalog import filiform4, heisenberg3

F = Fraction


def _sparse(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def _dense(rows, cols):
    return [[row.get(c, F(0)) for c in range(cols)] for row in rows]


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
    yield "identity", linalg.identity(4)
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


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in _battery()])
def test_nullspace_matches_dense_rref_on_a_battery(m):
    got = linalg.nullspace(_sparse(m), len(m[0]))
    assert got == dense_nullspace(m)
    for v in got:
        assert all(linalg.dot(row, v) == 0 for row in m)


def test_nullspace_of_no_rows_and_zero_values():
    assert linalg.nullspace([], 3) == linalg.identity(3)
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
        full = len(linalg.rref(fa)[1]) == cols
        want = solve(fa, [Fraction(x) for x in b]) if full else None
        assert linalg.solve_integer(a, b) == want
        seen.add((rows > cols, full, want is not None))
    # a square system of full rank is always consistent
    assert seen == {(False, False, False), (False, True, True), (True, False, False),
                    (True, True, False), (True, True, True)}
