"""Bracket arithmetic, group actions, Jacobi and series computations."""

from fractions import Fraction

import numpy as np
import pytest

from generators import (rand_frac, random_exact_gl, random_nilpotent,
                        random_solvable, random_tensor, shuffled)
from oracles import (einsum_act_array, eval_is_solvable, eval_jacobi_residual,
                     eval_lower_central_series, identity, mat_scale, mat_sub, matmul, matvec,
                     slotwise_float_derivations)
from solvstrat import linalg
from solvstrat.bracket import (BracketTensor, act, act_array, derivations,
                               direct_sum, inner, is_nilpotent, is_solvable,
                               jacobi_residual, lower_central_series, norm_sq,
                               permutation_act, rep, rep_array)
from solvstrat.catalog import abelian, filiform4, heisenberg3, so3

H3 = heisenberg3()
N4 = filiform4()
NON_JACOBI = BracketTensor.make(4, {(1, 2, 3): 1, (1, 3, 1): 2, (2, 4, 4): Fraction(-1, 2),
                                    (3, 4, 2): Fraction(3, 4)})


def test_make_normalizes_key_order_and_sign():
    mu = BracketTensor.make(3, {(2, 1, 3): 1})
    assert mu.coeffs == {(1, 2, 3): Fraction(-1)}
    assert mu.coeff(2, 1, 3) == 1
    assert mu.coeff(1, 2, 3) == -1


def test_make_drops_zeros_and_accumulates():
    mu = BracketTensor.make(3, {(1, 2, 3): Fraction(1, 2)})
    nu = BracketTensor.make(3, {(1, 2, 3): 1, (2, 1, 3): 1})  # cancels
    assert nu.is_zero() and nu.nnz == 0
    assert mu.nnz == 1 and not mu.is_zero()


def test_make_rejects_bad_indices():
    with pytest.raises(ValueError):
        BracketTensor.make(3, {(1, 1, 2): 1})
    with pytest.raises(ValueError):
        BracketTensor.make(3, {(0, 2, 3): 1})
    with pytest.raises(ValueError):
        BracketTensor.make(3, {(1, 2, 4): 1})


def test_scalar_mode_detection():
    assert BracketTensor.make(3, {(1, 2, 3): 1}).is_exact_mode
    assert BracketTensor.make(3, {(1, 2, 3): 0.5}).scalar_mode == "float"
    assert BracketTensor.make(3, {(1, 2, 3): Fraction(1, 3)}).is_exact_mode


def test_eval_is_bilinear_and_skew():
    rng = np.random.default_rng(0)
    mu = random_nilpotent(rng, 4)
    x = [rand_frac(rng) for _ in range(4)]
    y = [rand_frac(rng) for _ in range(4)]
    z = [rand_frac(rng) for _ in range(4)]
    a = rand_frac(rng)
    left = mu.eval([xi + a * zi for xi, zi in zip(x, z)], y)
    want = [u + a * v for u, v in zip(mu.eval(x, y), mu.eval(z, y))]
    assert left == want
    assert mu.eval(x, y) == [-v for v in mu.eval(y, x)]
    assert mu.eval(x, x) == [Fraction(0)] * 4


def test_pair_matches_eval_on_basis_vectors():
    unit = identity(4)
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                assert N4.pair(i, j) == N4.eval(unit[i - 1], unit[j - 1])


def test_inner_counts_all_ordered_pairs():
    assert inner(H3, H3) == 2
    assert norm_sq(N4) == 4
    assert inner(H3, BracketTensor.make(3, {(1, 3, 2): 5})) == 0
    with pytest.raises(ValueError):
        inner(H3, N4)


def test_inner_matches_dense_contraction():
    rng = np.random.default_rng(1)
    mu = random_nilpotent(rng, 5)
    lam = random_nilpotent(rng, 5)
    dense = float(np.sum(mu.to_array() * lam.to_array()))
    assert abs(float(inner(mu, lam)) - dense) < 1e-9


def test_array_round_trip():
    arr = N4.to_array()
    back = BracketTensor.from_array(arr)
    assert back.scalar_mode == "float"
    assert {k: float(c) for k, c in N4.coeffs.items()} == back.coeffs


def test_act_identity_and_group_law():
    rng = np.random.default_rng(2)
    mu = random_nilpotent(rng, 4)
    assert act(identity(4), mu).coeffs == mu.coeffs
    g = random_exact_gl(rng, 4)
    h = random_exact_gl(rng, 4)
    assert act(g, act(h, mu)).coeffs == act(matmul(g, h), mu).coeffs


def test_act_definition_on_vectors():
    # (g.mu)(x, y) = g mu(g^-1 x, g^-1 y)
    rng = np.random.default_rng(3)
    for mu in [random_nilpotent(rng, 4) for _ in range(5)] + [NON_JACOBI]:
        g = random_exact_gl(rng, 4)
        ginv = linalg.invert(g)
        gm = act(g, mu)
        x = [rand_frac(rng) for _ in range(4)]
        y = [rand_frac(rng) for _ in range(4)]
        want = matvec(g, mu.eval(matvec(ginv, x), matvec(ginv, y)))
        assert gm.eval(x, y) == want


def test_act_array_agrees_with_exact_act():
    rng = np.random.default_rng(4)
    mu = random_nilpotent(rng, 5)
    g = random_exact_gl(rng, 5)
    exact = act(g, mu).to_array()
    gf = np.array([[float(x) for x in row] for row in g])
    dense = act_array(gf, np.linalg.inv(gf), mu.to_array())
    assert np.max(np.abs(exact - dense)) < 1e-10


def _sparse(rng, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(3):
        a[int(rng.integers(0, n))][int(rng.integers(0, n))] = rand_frac(rng)
    return a


def _elementary(rng, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    a[int(rng.integers(0, n))][int(rng.integers(0, n))] = Fraction(1)
    return a


@pytest.mark.parametrize("kind,seed", [("dense", 20), ("sparse", 21), ("elementary", 22),
                                       ("non_jacobi", 23)])
def test_rep_definition_on_vectors(kind, seed):
    # rep(a, mu)(x, y) = a mu(x, y) - mu(a x, y) - mu(x, a y), and the float
    # kernel rep_array agrees with the exact coefficients
    rng = np.random.default_rng(seed)
    for _ in range(10):
        if kind == "non_jacobi":
            mu = NON_JACOBI
            assert jacobi_residual(mu) != 0
        else:
            mu = random_nilpotent(rng, 5)
        n = mu.dim
        if kind == "sparse":
            a = _sparse(rng, n)
        elif kind == "elementary":
            a = _elementary(rng, n)
        else:
            a = [[rand_frac(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        image = rep(a, mu)
        assert image.is_exact_mode
        x = [rand_frac(rng) for _ in range(n)]
        y = [rand_frac(rng) for _ in range(n)]
        want = [u - v - w for u, v, w in zip(matvec(a, mu.eval(x, y)),
                                             mu.eval(matvec(a, x), y),
                                             mu.eval(x, matvec(a, y)))]
        assert image.eval(x, y) == want
        af = np.array([[float(v) for v in row] for row in a])
        assert np.max(np.abs(image.to_array() - rep_array(af, mu.to_array()))) < 1e-12


def test_rep_identity_is_minus_mu():
    for mu in (H3, N4, so3()):
        image = rep(identity(mu.dim), mu)
        assert image.coeffs == {k: -c for k, c in mu.coeffs.items()}


def test_rep_is_derivative_of_act():
    rng = np.random.default_rng(5)
    mu = random_nilpotent(rng, 4).to_float()
    a = rng.standard_normal((4, 4))
    t = 1e-6
    arr = mu.to_array()
    plus = act_array(_expm(a, t), _expm(a, -t), arr)
    minus = act_array(_expm(a, -t), _expm(a, t), arr)
    fd = (plus - minus) / (2 * t)
    assert np.max(np.abs(fd - rep_array(a, arr))) < 1e-7


def _expm(a: np.ndarray, t: float) -> np.ndarray:
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 16):
        term = term @ (t * a) / k
        out = out + term
    return out


def test_rep_adjoint_identity():
    # <rep(a) mu, lam> = <mu, rep(a^T) lam>
    rng = np.random.default_rng(6)
    for _ in range(10):
        mu = random_nilpotent(rng, 4)
        lam = random_nilpotent(rng, 4)
        a = [[rand_frac(rng, 3, 2) for _ in range(4)] for _ in range(4)]
        at = linalg.transpose(a)
        assert inner(rep(a, mu), lam) == inner(mu, rep(at, lam))


def test_skew_alpha_pairs_to_zero():
    # <rep(a) mu, mu> = 0 for skew a: the action of rotations preserves norms
    rng = np.random.default_rng(7)
    for _ in range(10):
        mu = random_nilpotent(rng, 5)
        a = [[rand_frac(rng, 3, 2) for _ in range(5)] for _ in range(5)]
        skew = mat_scale(Fraction(1, 2), mat_sub(a, linalg.transpose(a)))
        assert inner(rep(skew, mu), mu) == 0


def test_equivariance_of_rep_under_act():
    # act(g, rep(a, mu)) = rep(g a g^-1, act(g, mu))
    rng = np.random.default_rng(8)
    mu = random_nilpotent(rng, 4)
    g = random_exact_gl(rng, 4)
    a = [[rand_frac(rng, 2, 2) for _ in range(4)] for _ in range(4)]
    lhs = act(g, rep(a, mu))
    conj = matmul(matmul(g, a), linalg.invert(g))
    rhs = rep(conj, act(g, mu))
    assert lhs.coeffs == rhs.coeffs


def test_permutation_act_matches_matrix_action_and_preserves_norm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mu = random_nilpotent(rng, 5)
        sigma = [int(x) + 1 for x in rng.permutation(5)]
        p = [[Fraction(int(sigma[c] == r + 1)) for c in range(5)] for r in range(5)]
        assert permutation_act(sigma, mu).coeffs == act(p, mu).coeffs
        assert norm_sq(permutation_act(sigma, mu)) == norm_sq(mu)
    with pytest.raises(ValueError):
        permutation_act([1, 1, 2, 3, 4], mu)


def test_permutation_transposition_golden():
    swapped = permutation_act([2, 1, 3], H3)
    assert swapped.coeffs == {(1, 2, 3): Fraction(-1)}


def test_jacobi_residual_zero_on_lie_brackets():
    rng = np.random.default_rng(10)
    assert jacobi_residual(H3) == 0
    assert jacobi_residual(so3()) == 0
    for dim in (3, 4, 5, 6):
        assert jacobi_residual(random_nilpotent(rng, dim)) == 0


def test_jacobi_residual_detects_failure():
    bad = BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 1): 1})
    assert jacobi_residual(bad) == 1
    with pytest.raises(ValueError):
        lower_central_series(bad)


def test_sign_flipped_so3_variant_still_satisfies_jacobi():
    # all-plus coefficients on the so(3) support: a valid non-nilpotent bracket
    variant = BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 2): 1, (2, 3, 1): 1})
    assert jacobi_residual(variant) == 0
    assert lower_central_series(variant) == [3, 3]


def test_lower_central_series_goldens():
    assert lower_central_series(H3) == [3, 1, 0]
    assert lower_central_series(N4) == [4, 2, 1, 0]
    assert lower_central_series(so3()) == [3, 3]
    assert lower_central_series(abelian(5)) == [5, 0]
    assert is_nilpotent(H3) and not is_nilpotent(so3())


def test_series_invariant_under_exact_gl():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = random_nilpotent(rng, 5, transform=False)
        g = random_exact_gl(rng, 5)
        assert lower_central_series(act(g, mu)) == lower_central_series(mu)


def test_derivation_dimensions_and_membership():
    for mu, want in ((H3, 6), (N4, 7)):
        basis = derivations(mu)
        assert len(basis) == want
        for d in basis:
            assert rep(d, mu).is_zero()
        float_basis = derivations(mu.to_float())
        assert len(float_basis) == want
        for d in float_basis:
            img = rep_array(d, mu.to_array())
            assert np.max(np.abs(img)) < 1e-8


def test_float_derivations_match_the_slotwise_system():
    # the system matrix is a copy of the rep_array images, so the SVD and
    # the basis are the same floats
    rng = np.random.default_rng(13)
    cases = [H3, N4] + [random_nilpotent(rng, int(rng.integers(3, 8))) for _ in range(6)]
    cases += [random_tensor(rng, 4, exact=False) for _ in range(3)]
    for mu in cases:
        got = derivations(mu.to_float())
        want = slotwise_float_derivations(mu.to_float())
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_derivation_count_invariant_under_gl():
    rng = np.random.default_rng(12)
    mu = random_nilpotent(rng, 4, transform=False)
    g = random_exact_gl(rng, 4)
    assert len(derivations(act(g, mu))) == len(derivations(mu))


def test_direct_sum_structure():
    s = direct_sum(H3, H3)
    assert s.dim == 6 and s.nnz == 2
    assert s.coeffs[(1, 2, 3)] == 1 and s.coeffs[(4, 5, 6)] == 1
    assert norm_sq(s) == 4
    assert lower_central_series(s) == [6, 2, 0]


def test_scaled_and_float_agree_with_exact():
    rng = np.random.default_rng(13)
    mu = random_nilpotent(rng, 5)
    assert norm_sq(mu.scaled(Fraction(3, 2))) == Fraction(9, 4) * norm_sq(mu)
    a = [[rand_frac(rng, 2, 2) for _ in range(5)] for _ in range(5)]
    exact = rep(a, mu).to_array()
    af = np.array([[float(x) for x in row] for row in a])
    assert np.max(np.abs(exact - rep_array(af, mu.to_array()))) < 1e-12


def _lie_battery(rng):
    """Seeded Lie brackets in dims 2-8: exact, float and float GL-moved."""
    out = [abelian(2), BracketTensor.make(2, {(1, 2, 2): 1}), so3()]
    for dim in range(3, 9):
        for _ in range(3):
            mu = random_nilpotent(rng, dim)
            g = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))
            out += [mu, mu.to_float(), act(g, mu)]
    return out


def _tensor_battery(rng):
    """Seeded skew tensors in dims 2-8 without the Jacobi identity."""
    return [random_tensor(rng, dim, exact) for dim in range(2, 9)
            for exact in (True, False) for _ in range(4)]


LARGE_PRIMES = (10007, 65537, 999983, 2147483647)


def _prime_denominators(rng, mu):
    """mu with each coefficient divided by one of LARGE_PRIMES, so the
    denominators are large and pairwise coprime, and the lcm is huge."""
    return BracketTensor.make(mu.dim, {key: c / LARGE_PRIMES[int(rng.integers(0, 4))]
                                       for key, c in mu.coeffs.items()})


def test_jacobi_residual_matches_eval_oracle():
    rng = np.random.default_rng(40)
    battery = _lie_battery(rng) + _tensor_battery(rng)
    battery += [_prime_denominators(rng, mu) for mu in battery if mu.is_exact_mode]
    for mu in battery:
        for nu in (BracketTensor(mu.dim, dict(sorted(mu.coeffs.items())), mu.scalar_mode),
                   shuffled(rng, mu)):
            got, want = jacobi_residual(nu), eval_jacobi_residual(nu)
            if nu.is_exact_mode:
                assert got == want
            else:
                assert repr(got) == repr(want)


def test_series_match_eval_oracles():
    rng = np.random.default_rng(41)
    for mu in _lie_battery(rng):
        for nu in (mu, shuffled(rng, mu)):
            assert lower_central_series(nu) == eval_lower_central_series(nu)
            assert is_solvable(nu) == eval_is_solvable(nu)
    for mu in _tensor_battery(rng):
        assert is_solvable(mu) == eval_is_solvable(mu)


def test_integer_series_match_eval_oracles_on_rational_brackets():
    # the exact series run on the integer multiple L mu: rational brackets
    # with large coprime denominators, exact GL moves and solvable
    # non-nilpotent algebras keep the dimensions of the Fraction rref route
    rng = np.random.default_rng(44)
    primes = (10007, 65537, 999983)
    battery = [so3(), direct_sum(so3(), H3), direct_sum(H3, abelian(1))]
    for dim in range(3, 8):
        for _ in range(3):
            mu = random_nilpotent(rng, dim)
            scale = Fraction(primes[int(rng.integers(0, 3))], primes[int(rng.integers(0, 3))])
            battery += [mu.scaled(scale), act(random_exact_gl(rng, dim), mu)]
            s = random_solvable(rng, 8, max_dim_a=3).bracket
            battery += [s, act(random_exact_gl(rng, s.dim), s)]
    seen = set()
    for mu in battery:
        series = lower_central_series(mu)
        assert series == eval_lower_central_series(mu)
        assert is_solvable(mu) == eval_is_solvable(mu)
        seen.add((series[-1] == 0, is_solvable(mu)))
    for mu in _tensor_battery(rng):
        if mu.is_exact_mode:
            nu = BracketTensor.make(mu.dim, {key: c / primes[int(rng.integers(0, 3))]
                                             for key, c in mu.coeffs.items()})
            assert is_solvable(nu) == eval_is_solvable(nu)
    assert seen == {(True, True), (False, True), (False, False)}


def test_act_array_matches_the_einsum_route():
    rng = np.random.default_rng(42)
    for n in range(2, 9):
        g = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        ginv = np.linalg.inv(g)
        arr = rng.normal(size=(n, n, n))
        want = np.einsum("pi,qj,pqr,kr->ijk", ginv, ginv, arr, g, optimize=True)
        assert np.array_equal(act_array(g, ginv, arr), want)


def _act_battery():
    """(g, ginv, arr): n = 1..8, dense and 70%-zero arrays, GL and orthogonal factors."""
    rng = np.random.default_rng(43)
    for n in range(1, 9):
        for _ in range(6):
            arr = rng.normal(size=(n, n, n))
            sparse = arr * (rng.random((n, n, n)) >= 0.7)
            g = np.eye(n) + 0.3 * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            for a in (arr, sparse):
                yield g, np.linalg.inv(g), a
                yield q, q.T, a
                yield q.T, q, a


def test_act_array_is_bitwise_the_einsum_route():
    # tobytes() tells -0.0 from 0.0, which array_equal does not
    cases = 0
    for g, ginv, arr in _act_battery():
        assert act_array(g, ginv, arr).tobytes() == einsum_act_array(g, ginv, arr).tobytes()
        cases += 1
    assert cases == 8 * 6 * 6
