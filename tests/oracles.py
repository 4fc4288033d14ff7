"""Independent reference routes that tests compare the package against."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from solvstrat import linalg
from solvstrat.bracket import BracketTensor, inner, rep, rep_array
from solvstrat.linalg import ONE, ZERO


def ricci_moment_via_duality(mu: BracketTensor):
    """Independent route: Ric_ab = (1/4) <pi(E_ab) mu, mu>."""
    n = mu.dim
    if mu.is_exact_mode:
        out = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                e = [[Fraction(int(r == a and c == b)) for c in range(n)] for r in range(n)]
                out[a][b] = Fraction(1, 4) * inner(rep(e, mu), mu)
        return out
    arr = mu.to_array()
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n))
            e[a, b] = 1.0
            out[a, b] = 0.25 * float(np.sum(rep_array(e, arr) * arr))
    return out


def matvec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def solve(a, b) -> list[Fraction] | None:
    """One exact solution of a x = b (free variables 0), or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    r, pivots = linalg.rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        x[p] = r[i][cols]
    return x


def dense_nullspace(m):
    """Canonical basis of the right null space (free variables set to 1)."""
    if not m:
        return []
    cols = len(m[0])
    r, pivots = linalg.rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def dense_adbeta_gram(basis, b):
    """Gram matrix of <[beta, D], D> by a dense n^2 sum per pair of elements."""
    n = len(b)

    def form(d1, d2):
        return sum((b[i] - b[j]) * d1[i][j] * d2[i][j] for i in range(n) for j in range(n))

    k = len(basis)
    return [[form(basis[a], basis[c]) for c in range(k)] for a in range(k)]
