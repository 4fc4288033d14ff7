"""Seeded random constructors shared across the test modules.

Every generator takes a numpy Generator and returns exact (Fraction) data, so
tests can assert rational equalities.  Random Lie brackets come from families
where the Jacobi identity holds by construction (two-step brackets, threads,
direct sums of known algebras), optionally pushed around by exact invertible
matrices; solvable algebras are built from exact derivations of those
brackets.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from oracles import identity, matmul
from solvstrat import linalg
from solvstrat.bracket import BracketTensor, act, direct_sum
from solvstrat.catalog import abelian, filiform4, heisenberg3
from solvstrat.minnorm import PointSet
from solvstrat.solvable import MetricSolvableAlgebra
from solvstrat.strata import _integer_weight


def rand_frac(rng: np.random.Generator, num: int = 6, den: int = 4) -> Fraction:
    return Fraction(int(rng.integers(-num, num + 1)), int(rng.integers(1, den + 1)))


def rand_nonzero_frac(rng: np.random.Generator, num: int = 6, den: int = 4) -> Fraction:
    while True:
        f = rand_frac(rng, num, den)
        if f:
            return f


def filiform(n: int) -> BracketTensor:
    """L_n: mu(e_1, e_i) = e_{i+1} for 2 <= i < n."""
    return BracketTensor.make(n, {(1, i, i + 1): 1 for i in range(2, n)})


def free_two_step(gens: int) -> BracketTensor:
    """Free 2-step nilpotent algebra: mu(e_i, e_j) = e_k, one new k per pair i < j."""
    pairs = [(i, j) for i in range(1, gens + 1) for j in range(i + 1, gens + 1)]
    return BracketTensor.make(gens + len(pairs),
                              {(i, j, gens + k): 1 for k, (i, j) in enumerate(pairs, start=1)})


def random_two_step(rng: np.random.Generator, dim: int) -> BracketTensor:
    """Bracket with values inside a central block: Jacobi holds trivially."""
    p = int(rng.integers(2, dim))
    keys = [(i, j, k) for i in range(1, p + 1) for j in range(i + 1, p + 1)
            for k in range(p + 1, dim + 1)]
    count = int(rng.integers(1, min(len(keys), 6) + 1))
    chosen = rng.choice(len(keys), size=count, replace=False)
    return BracketTensor.make(dim, {keys[c]: rand_nonzero_frac(rng) for c in chosen})


def random_thread(rng: np.random.Generator, dim: int) -> BracketTensor:
    """mu(e_1, e_i) = c_i e_{i+1}: a filiform-type bracket for any coefficients."""
    return BracketTensor.make(
        dim, {(1, i, i + 1): rand_nonzero_frac(rng) for i in range(2, dim)})


def random_summand(rng: np.random.Generator, dim: int) -> BracketTensor:
    pieces = [heisenberg3()]
    if dim >= 4 and rng.integers(0, 2):
        pieces = [filiform4()]
    used = sum(p.dim for p in pieces)
    if dim - used >= 3 and rng.integers(0, 2):
        pieces.append(heisenberg3())
        used += 3
    if dim > used:
        pieces.append(abelian(dim - used))
    return direct_sum(*pieces)


def random_exact_gl(rng: np.random.Generator, n: int):
    """Invertible rational matrix: permutation * unit triangular * diagonal."""
    perm = rng.permutation(n)
    p = [[Fraction(int(perm[r] == c)) for c in range(n)] for r in range(n)]
    u = identity(n)
    for r in range(n):
        for c in range(r + 1, n):
            if rng.integers(0, 2):
                u[r][c] = rand_frac(rng, 2, 2)
    diag_pool = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3, 2)]
    d = [[diag_pool[int(rng.integers(0, len(diag_pool)))] if r == c else Fraction(0)
          for c in range(n)] for r in range(n)]
    return matmul(matmul(p, u), d)


def random_nilpotent(rng: np.random.Generator, dim: int,
                     transform: bool | None = None) -> BracketTensor:
    """Exact nonzero nilpotent Lie bracket in the given dimension (>= 3)."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        mu = random_two_step(rng, dim)
    elif kind == 1:
        mu = random_thread(rng, dim)
    else:
        mu = random_summand(rng, dim)
    if transform is None:
        transform = bool(rng.integers(0, 2))
    if transform:
        mu = act(random_exact_gl(rng, dim), mu)
    assert not mu.is_zero()
    return mu


def random_tensor(rng: np.random.Generator, dim: int, exact: bool,
                  max_nnz: int = 14) -> BracketTensor:
    """Skew tensor on a random support, Jacobi not imposed.

    Exact coefficients are small fractions, float ones are N(0, 1) draws.
    """
    keys = [(i, j, k) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
            for k in range(1, dim + 1)]
    count = int(rng.integers(1, min(len(keys), max_nnz) + 1))
    chosen = rng.choice(len(keys), size=count, replace=False)
    return BracketTensor.make(dim, {keys[c]: rand_nonzero_frac(rng) if exact
                                    else float(rng.normal()) for c in chosen})


def shuffled(rng: np.random.Generator, mu: BracketTensor) -> BracketTensor:
    """The same tensor with its coefficients inserted in a random order."""
    items = list(mu.coeffs.items())
    order = rng.permutation(len(items))
    return BracketTensor(mu.dim, {items[o][0]: items[o][1] for o in order}, mu.scalar_mode)


def random_point_set(rng: np.random.Generator, dim: int, count: int) -> PointSet:
    """count distinct points with coordinates rand_frac(rng, 4, 3)."""
    values = len({Fraction(a, b) for a in range(-4, 5) for b in range(1, 4)})
    if count > values ** dim:
        raise ValueError(f"only {values ** dim} distinct points in dimension {dim}")
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rand_frac(rng, 4, 3) for _ in range(dim)))
    return PointSet.make(sorted(pts))


def centred_point_set(rng: np.random.Generator, dim: int, count: int) -> PointSet:
    """A random point set moved so that its centroid, inside the hull, is 0."""
    pts = random_point_set(rng, dim, count).points
    centroid = [sum(p[c] for p in pts) / count for c in range(dim)]
    return PointSet.make([[x - y for x, y in zip(p, centroid)] for p in pts])


def diagonal_derivation_basis(mu: BracketTensor) -> list[list[Fraction]]:
    """Rational basis of {d : diag(d) is a derivation of mu}.

    diag(d) is a derivation iff <d, alpha> = 0 for every supported weight.
    """
    rows = [dict(enumerate(_integer_weight(i, j, k, mu.dim))) for (i, j, k) in mu.support()]
    return linalg.nullspace(rows, mu.dim)


def random_solvable(rng: np.random.Generator, max_dim: int = 7,
                    max_dim_a: int = 2) -> MetricSolvableAlgebra:
    """Solvable metric algebra with dim_a in 0..max_dim_a and exact coefficients."""
    n = int(rng.integers(2, min(max_dim - 1, 5) + 1))
    if rng.integers(0, 4) == 0:
        mu = abelian(n)
    elif n >= 3:
        mu = random_nilpotent(rng, n, transform=False)
    else:
        mu = abelian(n)

    if mu.is_zero():
        diag_basis = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    else:
        diag_basis = diagonal_derivation_basis(mu)
    m = int(rng.integers(0, max_dim_a + 1))
    m = min(m, len(diag_basis), max_dim - n)

    ads = []
    for _ in range(m):
        while True:
            coeffs = [rand_frac(rng, 2, 2) for _ in diag_basis]
            d = [sum(c * b[i] for c, b in zip(coeffs, diag_basis)) for i in range(n)]
            if any(d):
                break
        ads.append(d)

    bracket_coeffs: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in mu.coeffs.items():
        bracket_coeffs[(m + i, m + j, m + k)] = c
    for r, d in enumerate(ads, start=1):
        for jj in range(1, n + 1):
            if d[jj - 1]:
                bracket_coeffs[(r, m + jj, m + jj)] = d[jj - 1]
    return MetricSolvableAlgebra.create(m, n, BracketTensor.make(m + n, bracket_coeffs))
