"""Skew-symmetric bilinear brackets on R^n and the natural GL_n actions.

A bracket mu assigns to each ordered basis pair (e_i, e_j) a vector
mu(e_i, e_j) = sum_k mu_ij^k e_k with mu(e_j, e_i) = -mu(e_i, e_j).  Only the
coefficients with i < j are stored (1-based indices, zero coefficients
dropped).  Two arithmetic modes coexist, each with one representation:
"exact" work runs on the sparse dict of Fraction coefficients, with loops
driven by its nonzeros (and by the nonzeros of the matrix acting on it);
"float" work runs on dense (n, n, n) ndarray kernels (act_array, rep_array).

Group and Lie algebra actions:

    act(g, mu)(x, y) = g mu(g^-1 x, g^-1 y)
    rep(a, mu)       = a mu(. , .) - mu(a . , .) - mu(. , a .)

rep is the derivative of act at the identity, so rep(I, mu) = -mu.  The inner
product sums over all ordered pairs (i, j), i.e. each stored coefficient
counts twice:

    inner(mu, lam) = 2 * sum_{i<j,k} mu_ij^k lam_ij^k
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .linalg import Scalar, frac, is_exact

Key = tuple[int, int, int]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class BracketTensor:
    """Sparse skew bilinear map; treat instances as immutable."""

    dim: int
    coeffs: Mapping[Key, Scalar] = field(default_factory=dict)
    scalar_mode: str = "exact"

    @staticmethod
    def make(dim: int, coeffs: Mapping[Key, Scalar] | None = None) -> "BracketTensor":
        """Normalize arbitrary (i, j, k) keys to i < j, drop zeros, set mode."""
        norm: dict[Key, Scalar] = {}
        for (i, j, k), c in (coeffs or {}).items():
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    raise ValueError(f"index {idx} out of range 1..{dim}")
            if i == j:
                raise ValueError(f"repeated slot index in ({i},{j},{k}); "
                                 "antisymmetry forces this coefficient to 0")
            if isinstance(c, int):
                c = Fraction(c)
            if i > j:
                i, j, c = j, i, -c
            norm[(i, j, k)] = norm.get((i, j, k), Fraction(0)) + c
        norm = {key: c for key, c in norm.items() if c != 0}
        mode = "exact" if all(is_exact(c) for c in norm.values()) else "float"
        if mode == "float":
            norm = {key: float(c) for key, c in norm.items()}
        return BracketTensor(dim, norm, mode)

    @property
    def is_exact_mode(self) -> bool:
        return self.scalar_mode == "exact"

    def coeff(self, i: int, j: int, k: int) -> Scalar:
        if i < j:
            return self.coeffs.get((i, j, k), 0)
        if i > j:
            return -self.coeffs.get((j, i, k), 0)
        return 0

    def support(self) -> list[Key]:
        return sorted(self.coeffs)

    @property
    def nnz(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> list[Scalar]:
        """mu(x, y) for coordinate vectors x, y."""
        zero = Fraction(0) if self.is_exact_mode else 0.0
        out = [zero] * self.dim
        for (i, j, k), c in self.coeffs.items():
            w = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
            if w:
                out[k - 1] = out[k - 1] + c * w
        return out

    def pair(self, i: int, j: int) -> list[Scalar]:
        """mu(e_i, e_j) as a coordinate vector."""
        zero = Fraction(0) if self.is_exact_mode else 0.0
        out = [zero] * self.dim
        for k in range(1, self.dim + 1):
            c = self.coeff(i, j, k)
            if c:
                out[k - 1] = c
        return out

    def to_array(self) -> np.ndarray:
        """Dense (n, n, n) float array, arr[i-1, j-1, k-1] = mu_ij^k."""
        arr = np.zeros((self.dim,) * 3)
        for (i, j, k), c in self.coeffs.items():
            arr[i - 1, j - 1, k - 1] = float(c)
            arr[j - 1, i - 1, k - 1] = -float(c)
        return arr

    @staticmethod
    def from_array(arr: np.ndarray, chop: float = 0.0) -> "BracketTensor":
        n = arr.shape[0]
        coeffs: dict[Key, Scalar] = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c = 0.5 * (arr[i, j, k] - arr[j, i, k])
                    if abs(c) > chop:
                        coeffs[(i + 1, j + 1, k + 1)] = float(c)
        return BracketTensor(n, coeffs, "float")

    def to_float(self) -> "BracketTensor":
        if not self.is_exact_mode:
            return self
        return BracketTensor(self.dim, {k: float(c) for k, c in self.coeffs.items()},
                             "float")

    def scaled(self, c: Scalar) -> "BracketTensor":
        return BracketTensor.make(self.dim, {k: v * c for k, v in self.coeffs.items()})


def inner(mu: BracketTensor, lam: BracketTensor) -> Scalar:
    """<mu, lam> summed over all ordered pairs (each i<j key counts twice)."""
    if mu.dim != lam.dim:
        raise ValueError("dimension mismatch")
    small, big = (mu.coeffs, lam.coeffs) if mu.nnz <= lam.nnz else (lam.coeffs, mu.coeffs)
    s = sum(c * big[k] for k, c in small.items() if k in big)
    return 2 * s


def norm_sq(mu: BracketTensor) -> Scalar:
    return inner(mu, mu)


def _is_exact_matrix(g) -> bool:
    if isinstance(g, np.ndarray):
        return False
    return all(is_exact(x) for row in g for x in row)


def act(g, mu: BracketTensor) -> "BracketTensor":
    """Base-change action (g.mu)(x, y) = g mu(g^-1 x, g^-1 y).

    Exact when both g and mu are exact; float otherwise.  g must be
    invertible (exact: raises on singular, float: relies on numpy solve).
    """
    if mu.is_exact_mode and _is_exact_matrix(g):
        gg = [[frac(x) for x in row] for row in g]
        h_rows = _row_entries(linalg.invert(gg))
        g_cols = _row_entries(linalg.transpose(gg))
        # mu(g^-1 e_i, g^-1 e_j) = sum over (p, q, k) of h_pi h_qj mu_pq^k e_k
        inputs: dict[Key, Scalar] = {}
        for (p, q, k), c in mu.coeffs.items():
            for i, x in h_rows[p - 1]:
                for j, y in h_rows[q - 1]:
                    _add_skew(inputs, i, j, k, x * y * c)
        coeffs: dict[Key, Scalar] = {}
        for (i, j, k), c in inputs.items():
            for r, z in g_cols[k - 1]:
                _add_skew(coeffs, i, j, r, z * c)
        return _exact_bracket(mu.dim, coeffs)
    garr = np.asarray(g, dtype=float)
    ginv = np.linalg.inv(garr)
    out = act_array(garr, ginv, mu.to_array())
    return BracketTensor.from_array(out)


def act_array(g: np.ndarray, ginv: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """out_ijk = sum_pqr ginv_pi ginv_qj arr_pqr g_kr as three (n^2, n) matmuls.

    The stages contract p, then q, then r, with the operand layouts of the
    contraction order einsum(optimize=True) picks, so the result is bitwise
    that einsum's.
    """
    n = arr.shape[0]
    t = arr.transpose(1, 2, 0).reshape(n * n, n) @ ginv
    t = t.reshape(n, n, n).transpose(2, 1, 0).reshape(n * n, n) @ ginv
    return (t.reshape(n, n, n).transpose(0, 2, 1).reshape(n * n, n) @ g.T).reshape(n, n, n)


def rep(alpha, mu: BracketTensor) -> "BracketTensor":
    """Derived action rep(a, mu) = a mu(.,.) - mu(a ., .) - mu(., a .)."""
    exact = mu.is_exact_mode and _is_exact_matrix(alpha)
    if not exact:
        a = np.asarray(alpha, dtype=float)
        return BracketTensor.from_array(rep_array(a, mu.to_array()))
    entries = [(r, c, frac(x)) for r, row in enumerate(alpha, start=1)
               for c, x in enumerate(row, start=1) if x != 0]
    return _exact_bracket(mu.dim, _rep_coeffs(entries, mu))


def _rep_coeffs(entries, mu: BracketTensor) -> dict[Key, Scalar]:
    """Coefficients of rep(a, mu) for exact a given by its nonzero (row, col, value).

    Driven by mu.coeffs and the nonzeros of a, with 1-based indices:
    a mu(e_p, e_q) adds a_rk mu_pq^k at (p, q, r); -mu(a e_i, e_q) adds
    -a_pi mu_pq^k at (i, q, k) and -mu(a e_i, e_p) adds a_qi mu_pq^k at
    (i, p, k); the third term -mu(., a .) is the skew image of the second.
    """
    rows: dict[int, list] = {}
    cols: dict[int, list] = {}
    for r, c, v in entries:
        rows.setdefault(r, []).append((c, v))
        cols.setdefault(c, []).append((r, v))
    coeffs: dict[Key, Scalar] = {}
    for (p, q, k), c in mu.coeffs.items():
        for r, v in cols.get(k, ()):
            _add_skew(coeffs, p, q, r, v * c)
        for i, v in rows.get(p, ()):
            _add_skew(coeffs, i, q, k, -v * c)
        for i, v in rows.get(q, ()):
            _add_skew(coeffs, i, p, k, v * c)
    return coeffs


def _row_entries(m) -> list[list[tuple[int, Scalar]]]:
    """Per row of m, its nonzero entries as (1-based column, value)."""
    return [[(c, x) for c, x in enumerate(row, start=1) if x != 0] for row in m]


def _add_skew(coeffs: dict[Key, Scalar], i: int, j: int, k: int, v: Scalar) -> None:
    """Add v to the skew coefficient (i, j, k), stored at i < j; i == j adds nothing."""
    if i < j:
        coeffs[(i, j, k)] = coeffs.get((i, j, k), 0) + v
    elif i > j:
        coeffs[(j, i, k)] = coeffs.get((j, i, k), 0) - v


def _exact_bracket(dim: int, coeffs: dict[Key, Scalar]) -> BracketTensor:
    """Exact bracket from accumulated coefficients, zeros dropped, keys sorted."""
    return BracketTensor(dim, {key: coeffs[key] for key in sorted(coeffs) if coeffs[key] != 0},
                         "exact")


def rep_array(alpha: np.ndarray, arr: np.ndarray) -> np.ndarray:
    t1 = np.einsum("kr,ijr->ijk", alpha, arr)
    t2 = np.einsum("pi,pjk->ijk", alpha, arr)
    t3 = np.einsum("qj,iqk->ijk", alpha, arr)
    return t1 - t2 - t3


def permutation_act(sigma: Sequence[int], mu: BracketTensor) -> BracketTensor:
    """Action of the permutation matrix sending e_i to e_sigma(i).

    sigma is given 1-based: sigma[i-1] is the image of i.
    """
    n = mu.dim
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")
    coeffs: dict[Key, Scalar] = {}
    for (i, j, k), c in mu.coeffs.items():
        ni, nj, nk = sigma[i - 1], sigma[j - 1], sigma[k - 1]
        if ni > nj:
            ni, nj, c = nj, ni, -c
        coeffs[(ni, nj, nk)] = c
    return BracketTensor(n, coeffs, mu.scalar_mode)


def jacobi_residual(mu: BracketTensor) -> Scalar:
    """Max absolute component of the Jacobiator over basis triples.

    Zero iff mu is a Lie bracket (exact mode gives an exact zero).  Built
    from pairs of nonzero coefficients: [[e_a, e_b], e_d]^l collects
    mu_ab^c mu_cd^l over the stored (a, b, c) and (c, d, l), with sign -1
    when the outer key is stored as (d, c, l).  Each double bracket sums in
    the order of the outer coefficients, and the three cyclic terms are
    added as a + b + c, so float results repeat the basis-vector evaluation
    bit for bit.
    """
    exact = mu.is_exact_mode
    zero: Scalar = Fraction(0) if exact else 0.0
    inner_by_c: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (a, b, c), u in mu.coeffs.items():
        inner_by_c.setdefault(c, []).append((a, b, u))
    # double[(a, b, d, l)] = [[e_a, e_b], e_d]^l for a < b and d outside {a, b}
    double: dict[tuple[int, int, int, int], Scalar] = {}
    for (p, q, l), v in mu.coeffs.items():
        for a, b, u in inner_by_c.get(p, ()):
            if q != a and q != b:
                key = (a, b, q, l)
                double[key] = double.get(key, zero) + v * u
        for a, b, u in inner_by_c.get(q, ()):
            if p != a and p != b:
                key = (a, b, p, l)
                double[key] = double.get(key, zero) + v * -u
    # For i < j < k the cyclic terms are [[e_i, e_j], e_k], [[e_j, e_k], e_i]
    # and [[e_k, e_i], e_j] = -[[e_i, e_k], e_j].
    triples = set()
    for a, b, d, l in double:
        i, j, k = sorted((a, b, d))
        triples.add((i, j, k, l))
    worst = zero
    for i, j, k, l in triples:
        s = (double.get((i, j, k, l), zero) + double.get((j, k, i, l), zero)
             - double.get((i, k, j, l), zero))
        if s < 0:
            s = -s
        if s > worst:
            worst = s
    return worst


def jacobi_check(mu: BracketTensor, tol: float = DEFAULT_TOL) -> tuple[bool, Scalar]:
    """(ok, residual) for the Jacobi identity: ok means an exact zero
    residual in exact mode, and a residual at most tol in float mode."""
    res = jacobi_residual(mu)
    return ((res == 0) if mu.is_exact_mode else float(res) <= tol), res


def _unit(n: int, exact: bool) -> list[list[Scalar]]:
    """Standard basis vectors e_1..e_n as Fraction or float rows."""
    return linalg.identity(n) if exact else [[float(i == j) for j in range(n)] for i in range(n)]


def _ad_lists(mu: BracketTensor) -> list[list[tuple[int, int, Scalar, bool]]]:
    """Per basis index i, the coefficients mu_pq^k with i in {p, q}.

    Entries are (other index, k, mu_pq^k, whether i == p), in the dict order
    of mu.coeffs: [e_i, x]^k sums mu_pq^k x_q (i == p) or -mu_pq^k x_p
    (i == q) in that order.
    """
    out: list[list[tuple[int, int, Scalar, bool]]] = [[] for _ in range(mu.dim + 1)]
    for (p, q, k), c in mu.coeffs.items():
        out[p].append((q, k, c, True))
        out[q].append((p, k, c, False))
    return out


def _bracket_unit(mu: BracketTensor, row, x) -> list[Scalar]:
    """[e_i, x] from the coefficients listed in row = _ad_lists(mu)[i]."""
    zero = Fraction(0) if mu.is_exact_mode else 0.0
    out = [zero] * mu.dim
    for other, k, c, first in row:
        y = x[other - 1]
        if y:
            out[k - 1] = out[k - 1] + c * (y if first else -y)
    return out


def _reduce_basis(vectors, exact: bool, tol: float):
    """Linearly independent subset spanning the same space."""
    if exact:
        vectors = [v for v in vectors if any(v)]  # the rref is unique, zeros add nothing
        r, pivots = linalg.rref(vectors) if vectors else ([], [])
        return [row for row in r[: len(pivots)]]
    if not vectors:
        return []
    m = np.asarray(vectors, dtype=float)
    _, s, vh = np.linalg.svd(m)
    cutoff = tol * max(1.0, s[0] if len(s) else 1.0)
    return [vh[i] for i in range(len(s)) if s[i] > cutoff]


def lower_central_series(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[int]:
    """Dimensions [dim g, dim [g,g], dim [g,[g,g]], ...].

    Stops at 0 (nilpotent) or repeats the first stabilized dimension once.
    Requires a Lie bracket; raises ValueError otherwise.
    """
    ok, res = jacobi_check(mu, tol)
    if not ok:
        raise ValueError(f"Jacobi identity fails (residual {float(res):g})")
    return _central_series(mu, tol)


def _central_series(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[int]:
    """lower_central_series for a bracket already known to satisfy Jacobi.

    Each term is spanned by [e_i, b] for the basis b of the previous one,
    built from the coefficients that involve e_i.
    """
    exact = mu.is_exact_mode
    n = mu.dim
    rows = _ad_lists(mu)
    dims = [n]
    basis = _unit(n, exact)
    while True:
        gens = [_bracket_unit(mu, rows[i], b) for i in range(1, n + 1) for b in basis]
        basis = _reduce_basis(gens, exact, tol)
        d = len(basis)
        dims.append(d)
        if d == 0 or d == dims[-2]:
            return dims


def is_nilpotent(mu: BracketTensor, tol: float = DEFAULT_TOL) -> bool:
    return lower_central_series(mu, tol)[-1] == 0


def is_solvable(mu: BracketTensor, tol: float = DEFAULT_TOL) -> bool:
    """Whether the derived series [g, g], [[g, g], [g, g]], ... reaches 0.

    [g, g] is spanned by the vectors mu(e_i, e_j), read off the
    coefficients; later terms bracket pairs of basis vectors.
    """
    exact = mu.is_exact_mode
    n = mu.dim
    gens = [mu.pair(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    prev = n
    while True:
        basis = _reduce_basis(gens, exact, tol)
        cur = len(basis)
        if cur == 0:
            return True
        if cur == prev:
            return False
        prev = cur
        gens = [mu.eval(x, y) for i, x in enumerate(basis) for y in basis[i + 1:]]


def derivations(mu: BracketTensor, tol: float = DEFAULT_TOL):
    """Basis of {a : rep(a, mu) = 0}, the derivation algebra of mu.

    Exact mode: canonical rational basis from the reduced echelon null space.
    Float mode: orthonormal basis from an SVD.  Returns a list of n x n
    matrices (rows of Fractions, or numpy arrays).
    """
    n = mu.dim
    slots = [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             for k in range(1, n + 1)]
    slot_index = {s: r for r, s in enumerate(slots)}
    if mu.is_exact_mode:
        rows: list[dict[int, Fraction]] = [{} for _ in slots]
        for r in range(n):
            for c in range(n):
                for key, val in _rep_coeffs([(r + 1, c + 1, linalg.ONE)], mu).items():
                    rows[slot_index[key]][r * n + c] = val
        return [[vec[r * n: (r + 1) * n] for r in range(n)]
                for vec in linalg.nullspace(rows, n * n)]
    arr = mu.to_array()
    m = np.zeros((len(slots), n * n))
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n))
            e[r, c] = 1.0
            image = rep_array(e, arr)
            for (i, j, k) in slots:
                m[slot_index[(i, j, k)], r * n + c] = image[i - 1, j - 1, k - 1]
    _, s, vh = np.linalg.svd(m)
    cutoff = tol * max(1.0, s[0] if len(s) else 1.0)
    null_dim = int(np.sum(s <= cutoff)) + (n * n - len(s) if len(s) < n * n else 0)
    basis = vh[len(vh) - null_dim:] if null_dim else vh[:0]
    return [v.reshape(n, n) for v in basis]


def direct_sum(*parts: BracketTensor) -> BracketTensor:
    """Block direct sum of brackets (basis concatenated in order)."""
    dim = sum(p.dim for p in parts)
    coeffs: dict[Key, Scalar] = {}
    off = 0
    for p in parts:
        for (i, j, k), c in p.coeffs.items():
            coeffs[(i + off, j + off, k + off)] = c
        off += p.dim
    return BracketTensor.make(dim, coeffs)
