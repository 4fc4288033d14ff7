"""Skew-symmetric bilinear brackets on R^n and the natural GL_n actions.

A bracket mu assigns to each ordered basis pair (e_i, e_j) a vector
mu(e_i, e_j) = sum_k mu_ij^k e_k with mu(e_j, e_i) = -mu(e_i, e_j).  Only the
coefficients with i < j are stored (1-based indices, zero coefficients
dropped).  Two arithmetic modes coexist, each with one representation:
"exact" work runs on the sparse dict of Fraction coefficients, with loops
driven by its nonzeros (and by the nonzeros of the matrix acting on it);
"float" work runs on dense (n, n, n) ndarray kernels (act_array, rep_array).
The mode belongs to the bracket: act and rep work in the mode of mu.
Exact integer work reads one cached view, `_integer`: N = L mu with L the
lcm of the coefficient denominators.  Spans (the central and derived series,
the derivation algebra) are those of N, reduced by linalg.echelon, or, in
floats, those of the dense array under one SVD rank rule (_svd_rank); the
Jacobi residual and the Ricci form, quadratic in mu, are those of N over
L^2.  Verdicts compare by the rules of linalg.is_zero / nonneg / positive.

Group and Lie algebra actions:

    act(g, mu)(x, y) = g mu(g^-1 x, g^-1 y)
    rep(a, mu)       = a mu(. , .) - mu(a . , .) - mu(. , a .)

rep is the derivative of act at the identity, so rep(I, mu) = -mu.  The inner
product sums over all ordered pairs (i, j), i.e. each stored coefficient
counts twice:

    inner(mu, lam) = 2 * sum_{i<j,k} mu_ij^k lam_ij^k
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from ._np import np
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
            norm[(i, j, k)] = norm.get((i, j, k), 0) + c
        return BracketTensor._normalized(dim, norm)

    @staticmethod
    def _normalized(dim: int, coeffs: Mapping[Key, Scalar]) -> "BracketTensor":
        """The bracket of coefficients already keyed i < j within 1..dim,
        each key once, each value a Fraction or a float: drop the zeros and
        set the mode.  make and the file reader both end here."""
        norm = {key: c for key, c in coeffs.items() if c != 0}
        mode = "exact" if all(is_exact(c) for c in norm.values()) else "float"
        if mode == "float":
            norm = {key: float(c) for key, c in norm.items()}
        return BracketTensor(dim, norm, mode)

    @property
    def is_exact_mode(self) -> bool:
        return self.scalar_mode == "exact"

    @property
    def zero(self) -> Scalar:
        """The zero of the arithmetic mode."""
        return Fraction(0) if self.is_exact_mode else 0.0

    @functools.cached_property
    def _integer(self) -> tuple[int, dict[Key, int]]:
        """(L, N) for an exact bracket, computed once: L is the lcm of the
        coefficient denominators and N = L mu, a positive integer multiple
        with the same spans, derivations and central and derived series."""
        den, nums = linalg.numerators(self.coeffs.values())
        return den, dict(zip(self.coeffs, nums))

    def support(self) -> list[Key]:
        return sorted(self.coeffs)

    @property
    def nnz(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_array(self) -> np.ndarray:
        """Dense (n, n, n) float array, arr[i-1, j-1, k-1] = mu_ij^k."""
        arr = np.zeros((self.dim,) * 3)
        for (i, j, k), c in self.coeffs.items():
            arr[i - 1, j - 1, k - 1] = float(c)
            arr[j - 1, i - 1, k - 1] = -float(c)
        return arr

    @staticmethod
    def from_array(arr: np.ndarray, chop: float = 0.0) -> "BracketTensor":
        """The skew part 0.5 (arr_ijk - arr_jik), i < j, as a float bracket,
        keeping the coefficients above chop in magnitude, keys in (i, j, k)
        order."""
        n = arr.shape[0]
        iu, ju = np.triu_indices(n, 1)
        half = 0.5 * (arr[iu, ju] - arr[ju, iu])
        pair, k = np.nonzero(abs(half) > chop)
        keys = zip((iu[pair] + 1).tolist(), (ju[pair] + 1).tolist(), (k + 1).tolist())
        return BracketTensor(n, dict(zip(keys, half[pair, k].tolist())), "float")

    def to_float(self) -> "BracketTensor":
        return BracketTensor(self.dim, {k: float(c) for k, c in self.coeffs.items()},
                             "float")

    def scaled(self, c: Scalar) -> "BracketTensor":
        return BracketTensor.make(self.dim, {k: v * c for k, v in self.coeffs.items()})


def inner(mu: BracketTensor, lam: BracketTensor) -> Scalar:
    """<mu, lam> summed over all ordered pairs (each i<j key counts twice)."""
    if mu.dim != lam.dim:
        raise ValueError("dimension mismatch")
    small, big = (mu.coeffs, lam.coeffs) if mu.nnz <= lam.nnz else (lam.coeffs, mu.coeffs)
    return 2 * sum((c * big[k] for k, c in small.items() if k in big), mu.zero + lam.zero)


def norm_sq(mu: BracketTensor) -> Scalar:
    return inner(mu, mu)


def act(g, mu: BracketTensor) -> "BracketTensor":
    """Base-change action (g.mu)(x, y) = g mu(g^-1 x, g^-1 y).

    The mode of mu is the mode of the result: an exact mu takes an exact g
    (linalg.frac raises TypeError on a float entry), a float mu any real g.
    g must be invertible (exact: raises on singular, float: relies on numpy
    solve).
    """
    if mu.is_exact_mode:
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
    """Derived action rep(a, mu) = a mu(.,.) - mu(a ., .) - mu(., a .), in
    the mode of mu, as act takes it."""
    if mu.is_exact_mode:
        entries = [(r, c, frac(x)) for r, row in enumerate(alpha, start=1)
                   for c, x in enumerate(row, start=1) if x != 0]
        return _exact_bracket(mu.dim, _rep_coeffs(entries, mu.coeffs))
    return BracketTensor.from_array(rep_array(np.asarray(alpha, dtype=float), mu.to_array()))


def _rep_coeffs(entries, mu_coeffs: Mapping[Key, Scalar]) -> dict[Key, Scalar]:
    """Coefficients of rep(a, mu) for exact a given by its nonzero (row, col, value).

    Driven by the coefficients of mu and the nonzeros of a, with 1-based indices:
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
    for (p, q, k), c in mu_coeffs.items():
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
    """rep(alpha, arr)_ijk = alpha_kr arr_ijr - alpha_pi arr_pjk - alpha_qj arr_iqk,
    summed over r, p and q: the floats of the three unoptimized einsums, taken
    in that order (see _np)."""
    c_einsum = np._core.multiarray.c_einsum
    t1 = c_einsum("kr,ijr->ijk", alpha, arr)
    t1 -= c_einsum("pi,pjk->ijk", alpha, arr)
    t1 -= c_einsum("qj,iqk->ijk", alpha, arr)
    return t1


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

    Zero iff mu is a Lie bracket (exact mode gives an exact zero: the
    residual of the integer view N = L mu over L^2).  Built from pairs of
    nonzero coefficients: [[e_a, e_b], e_d]^l collects mu_ab^c mu_cd^l over
    the stored (a, b, c) and (c, d, l), with sign -1 when the outer key is
    stored as (d, c, l).  Each double bracket sums in the order of the outer
    coefficients, and the three cyclic terms are added as a + b + c, so
    float results repeat the basis-vector evaluation bit for bit.
    """
    if mu.is_exact_mode:
        den, coeffs = mu._integer
        return Fraction(_jacobi_max(coeffs, 0), den * den)
    return _jacobi_max(mu.coeffs, 0.0)


def _jacobi_max(coeffs: Mapping[Key, Scalar], zero: Scalar) -> Scalar:
    """jacobi_residual of the coefficients coeffs, summed from zero."""
    inner_by_c: dict[int, list[tuple[int, int, Scalar]]] = {}
    for (a, b, c), u in coeffs.items():
        inner_by_c.setdefault(c, []).append((a, b, u))
    # double[(a, b, d, l)] = [[e_a, e_b], e_d]^l for a < b and d outside {a, b}
    double: dict[tuple[int, int, int, int], Scalar] = {}
    for (p, q, l), v in coeffs.items():
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
    return linalg.is_zero(res, tol), res


def _slot_tables(coeffs: Mapping[Key, Scalar]):
    """(by_slot, by_pair) of the coefficient map C, both in its dict order.

    by_slot[(y, z)] lists the (x, C_xy^z) over ordered pairs (x, y), that is
    the entries in column y and row z of the matrices ad b_x; by_pair[(i, j)]
    lists the (k, C_ij^k) of the stored i < j.
    """
    by_slot: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    by_pair: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
    for (i, j, k), c in coeffs.items():
        by_slot.setdefault((j, k), []).append((i, c))
        by_slot.setdefault((i, k), []).append((j, -c))
        by_pair.setdefault((i, j), []).append((k, c))
    return by_slot, by_pair


def _moment_numerator(dim: int, by_slot, by_pair) -> list[list[int]]:
    """4 L^2 Ric_mu in integers, from the _slot_tables of N = L mu:

        -2 sum_{x, y} N_px^y N_qx^y + 2 sum_{i < j} N_ij^p N_ij^q.
    """
    r4 = [[0] * dim for _ in range(dim)]
    for group, weight in ((by_slot, -2), (by_pair, 2)):
        for entries in group.values():
            for p, x in entries:
                row, wx = r4[p - 1], weight * x
                for q, y in entries:
                    row[q - 1] += wx * y
    return r4


def _ric_exact(mu: BracketTensor) -> list[list[Fraction]]:
    """Ric_mu of an exact bracket in Fractions, from 4 L^2 Ric_mu in integers."""
    den, coeffs = mu._integer
    return linalg.fraction_rows(_moment_numerator(mu.dim, *_slot_tables(coeffs)),
                                4 * den * den)


def _ad_lists(coeffs: Mapping[Key, Scalar], dim: int) -> list[list[tuple[int, int, Scalar]]]:
    """Per basis index i, the (j, k, c) with c = mu_ij^k over ordered pairs.

    Entries follow the dict order of coeffs, each stored (p, q, k) listed as
    (q, k, c) for p and (p, k, -c) for q: [e_i, x]^k sums c x_j in that order.
    """
    out: list[list[tuple[int, int, Scalar]]] = [[] for _ in range(dim + 1)]
    for (p, q, k), c in coeffs.items():
        out[p].append((q, k, c))
        out[q].append((p, k, -c))
    return out


def _bracket_unit_int(row, x: dict[int, int]) -> dict[int, int]:
    """[e_i, x] for a sparse integer vector x ({0-based index: value})."""
    out: dict[int, int] = {}
    for j, k, c in row:
        y = x.get(j - 1)
        if y:
            out[k - 1] = out.get(k - 1, 0) + c * y
    return {k: v for k, v in out.items() if v}


def _eval_int(coeffs: Mapping[Key, int], x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """mu(x, y) for sparse integer vectors, as _bracket_unit_int indexes them."""
    out: dict[int, int] = {}
    for (i, j, k), c in coeffs.items():
        w = x.get(i - 1, 0) * y.get(j - 1, 0) - x.get(j - 1, 0) * y.get(i - 1, 0)
        if w:
            out[k - 1] = out.get(k - 1, 0) + c * w
    return {k: v for k, v in out.items() if v}


def _derived_generators(coeffs: Mapping[Key, int]) -> list[dict[int, int]]:
    """The vectors mu(e_i, e_j), i < j, that span [g, g], read off the
    integer coefficients as sparse vectors ({0-based index: value})."""
    return [{k - 1: c for k, c in e} for e in _slot_tables(coeffs)[1].values()]


def _svd_rank(m: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """(vh, rank) of the float matrix m from one SVD, rank counting the
    singular values above tol * max(1, s_0).  vh[:rank] spans the rows of m
    and the square vh[rank:] its null space: full factors only for fewer
    rows than columns, so the rows x rows factor U is never formed."""
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    return vh, int(np.count_nonzero(s > tol * max(1.0, s[0] if len(s) else 1.0)))


def _reduce_basis(vectors, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the float vectors (an array or a list of
    rows), from _svd_rank."""
    vh, rank = _svd_rank(np.atleast_2d(np.asarray(vectors, dtype=float)), tol)
    return vh[:rank]


def lower_central_series(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[int]:
    """Dimensions [dim g, dim [g,g], dim [g,[g,g]], ...].

    Stops at 0 (nilpotent) or repeats the first stabilized dimension once.
    Requires a Lie bracket; raises ValueError otherwise.
    """
    ok, res = jacobi_check(mu, tol)
    if not ok:
        raise ValueError(f"Jacobi identity fails (residual {linalg.g_text(res)})")
    return _central_series(mu, tol)


def _central_series(mu: BracketTensor, tol: float = DEFAULT_TOL) -> list[int]:
    """lower_central_series for a bracket already known to satisfy Jacobi."""
    return _series(mu, tol, central=True)


def is_solvable(mu: BracketTensor, tol: float = DEFAULT_TOL) -> bool:
    """Whether the derived series [g, g], [[g, g], [g, g]], ... reaches 0."""
    return _series(mu, tol, central=False)[-1] == 0


def _series(mu: BracketTensor, tol: float, central: bool) -> list[int]:
    """Dimensions [dim g, dim g_1, dim g_2, ...] of the lower central series
    (g_{k+1} = [g, g_k]) or of the derived series (g_{k+1} = [g_k, g_k]),
    stopping at 0 or at the first repeated dimension.

    g_1 = [g, g] is spanned by the vectors mu(e_i, e_j), i < j.  A central
    term brackets each e_i, i outer, with the basis of the previous one; a
    derived term brackets the pairs x < y of that basis.  Exact mode works
    on the integer multiple L mu: g_1 is spanned by the _derived_generators,
    a central term brackets only with the e_i whose ad is nonzero, and the
    pivot rows of linalg.echelon are the basis.  Float mode reduces by an
    SVD: the central series forms every [e_i, b], from b = e_1, ..., e_n on,
    by one einsum on the dense array; the derived series starts from the
    rows mu(e_i, e_j) of the array and brackets a basis of d vectors by two
    matrix products, one factor at a time: O(d^2 n^2 + d n^3) rather than
    the O(d^2 n^3) of one three-operand sum.
    """
    n = mu.dim
    if mu.is_exact_mode:
        coeffs = mu._integer[1]
        vectors = _derived_generators(coeffs)
        reduce = lambda vectors: list(linalg.echelon(vectors).values())
        if central:
            rows = [row for row in _ad_lists(coeffs, n) if row]
            brackets = lambda basis: [_bracket_unit_int(row, b) for row in rows for b in basis]
        else:
            brackets = lambda basis: [_eval_int(coeffs, x, y) for i, x in enumerate(basis)
                                      for y in basis[i + 1:]]
    else:
        arr = mu.to_array()
        reduce = lambda vectors: _reduce_basis(vectors, tol)
        if central:
            brackets = lambda basis: np.einsum("ijk,bj->ibk", arr, basis).reshape(-1, n)
            vectors = brackets(np.eye(n))
        else:
            vectors = arr[np.triu_indices(n, 1)]
            # (b @ arr)[i, y, k] = mu(e_i, b_y)^k; b @ that brackets each b_x with it
            brackets = lambda b: (b @ (b @ arr).reshape(n, -1)).reshape(len(b), len(b), n)[
                np.triu_indices(len(b), 1)]
    dims = [n]
    while True:
        basis = reduce(vectors)
        dims.append(len(basis))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims
        vectors = brackets(basis)


def derivations(mu: BracketTensor, tol: float = DEFAULT_TOL):
    """Basis of {a : rep(a, mu) = 0}, the derivation algebra of mu.

    Exact mode: the canonical rational basis of _exact_derivations, its
    integer numerators written out in Fractions.  Float mode: orthonormal
    null space (_svd_rank) of the system rep(E_rc, mu) = 0, laid out in one
    array: at the slot (i, j, k), column (r, c) holds [k = r] mu_ij^c -
    [i = c] mu_rj^k - [j = c] mu_ir^k, the first term assigned and the
    others subtracted.  Returns a list of n x n matrices (rows of Fractions,
    or numpy arrays).
    """
    n = mu.dim
    if mu.is_exact_mode:
        return [linalg.fraction_rows([[nums.get(r * n + c, 0) for c in range(n)]
                                      for r in range(n)], den)
                for den, nums in _exact_derivations(mu)]
    arr = mu.to_array()
    si, sj, sk = np.array(_slots(n), dtype=int).reshape(-1, 3).T - 1
    row = np.arange(len(si))
    m = np.zeros((len(si), n, n))
    m[row, sk, :] = arr[si, sj, :]
    m[row, :, si] -= arr[:, sj, sk].T
    m[row, :, sj] -= arr[si, :, sk]
    vh, rank = _svd_rank(m.reshape(len(si), n * n), tol)
    return list(vh[rank:].reshape(-1, n, n))


def _slots(n: int) -> list[Key]:
    """The keys (i, j, k), i < j, of an n-dimensional bracket in row order."""
    return [(i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for k in range(1, n + 1)]


def _exact_derivations(mu: BracketTensor) -> list[tuple[int, dict[int, int]]]:
    """The canonical derivation basis of an exact bracket as integers: per
    element D, (den, {r n + c: den D_rc}) over its nonzero entries, from
    linalg._nullspace_numerators of the integer system (_derivation_system).
    derivations writes this basis out in Fractions."""
    return linalg._nullspace_numerators(_derivation_system(mu), mu.dim ** 2)


def _derivation_system(mu: BracketTensor) -> list[dict[int, int]]:
    """The rows of rep(a, mu) = 0 for an exact bracket over the n^2 entries
    of a, one per slot (i, j, k), i < j, in the order of _slots; the zero
    rows of the slots no coefficient touches are left out.

    The system is built in integers, in one pass over the coefficients:
    Der(c mu) = Der(mu), so mu is scaled by the lcm of its coefficient
    denominators first (the cached integer view).  Entries that cancel are
    dropped, so the rows go to linalg._nullspace_numerators as they are.
    """
    n = mu.dim
    rows: dict[Key, dict[int, int]] = {}

    def add(i, j, k, col, v):
        # v at the skew slot (i, j, k) in column col; i == j adds nothing
        if i != j:
            row = rows.setdefault((i, j, k) if i < j else (j, i, k), {})
            total = row.get(col, 0) + (v if i < j else -v)
            if total:
                row[col] = total
            else:
                del row[col]

    # with the unit E_rc in column (r - 1) n + c - 1, the coefficient v
    # at (p, q, k) adds, for each t, v at (p, q, t) in rep(E_tk, mu),
    # -v at (t, q, k) in rep(E_pt, mu) and v at (t, p, k) in rep(E_qt, mu)
    for (p, q, k), v in mu._integer[1].items():
        for t in range(1, n + 1):
            add(p, q, t, (t - 1) * n + k - 1, v)
            add(t, q, k, (p - 1) * n + t - 1, -v)
            add(t, p, k, (q - 1) * n + t - 1, v)
    return [rows[s] for s in sorted(rows)]
