"""Metric solvable algebras: curvature, Einstein checks, extensions, audit."""

from fractions import Fraction

import numpy as np
import pytest

from generators import (rand_frac, random_exact_gl, random_solvable,
                        random_tensor, shuffled)
from oracles import (dense_ad, dense_ad_on_n, dense_audit_terms,
                     dense_killing_form, dense_s_ad_h, fraction_curvature,
                     fraction_einstein_check, fraction_ric,
                     fraction_standardness_audit)
from solvstrat import bracket, flow, linalg, solvable
from solvstrat.bracket import BracketTensor, act, jacobi_check, jacobi_residual
from solvstrat.catalog import (abelian, ch2, filiform4, heisenberg3,
                               nonstandard_heisenberg, rh_space, so3)
from solvstrat.flow import ricci_moment
from solvstrat.solvable import (MetricSolvableAlgebra, curvature_report,
                                einstein_check, is_standard, killing_form,
                                mean_curvature, orthonormalize_basis,
                                r_operator, rank_one_extension, ricci_operator,
                                s_ad_h, standardness_audit,
                                trace_identity_check)
from solvstrat.strata import DiagonalWeight

F = Fraction


def _diag(*xs):
    n = len(xs)
    return [[F(xs[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


def test_create_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        MetricSolvableAlgebra.create(1, 3, heisenberg3())


def test_create_rejects_bracket_escaping_n():
    with pytest.raises(ValueError, match="escapes n"):
        MetricSolvableAlgebra.create(1, 2, BracketTensor.make(3, {(2, 3, 1): 1}))


def test_create_rejects_jacobi_failure():
    with pytest.raises(ValueError, match="Jacobi"):
        MetricSolvableAlgebra.create(0, 3, BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 1): 1}))


def test_create_rejects_non_solvable():
    with pytest.raises(ValueError, match="not solvable"):
        MetricSolvableAlgebra.create(0, 3, so3())


def test_restriction_and_ad_blocks():
    s = ch2()
    assert s.mu_n().coeffs == {(1, 2, 3): F(1)}
    assert dense_ad(s, 1) == _diag(0, F(1, 2), F(1, 2), 1)
    assert dense_ad_on_n(s, 1) == _diag(F(1, 2), F(1, 2), 1)


def test_orthonormalize_identity_gram_is_noop():
    s = ch2()
    out = orthonormalize_basis(1, 3, s.bracket, np.eye(4))
    for key, val in s.bracket.coeffs.items():
        assert abs(out.coeff(*key) - float(val)) < 1e-12


def test_orthonormalize_scaled_gram_rescales_curvature():
    # metric scaled by 4 divides the Einstein constant by 4
    gram = _diag(4, 4, 4)
    s = MetricSolvableAlgebra.create(1, 2, rh_space(2).bracket, gram=gram)
    ec = einstein_check(s)
    assert ec.ok and abs(float(ec.c) + 0.5) < 1e-12


def test_orthonormalize_rejects_bad_gram():
    b = rh_space(2).bracket
    with pytest.raises(ValueError, match="must be 3 x 3"):
        orthonormalize_basis(1, 2, b, np.eye(4))
    with pytest.raises(ValueError, match="symmetric"):
        orthonormalize_basis(1, 2, b, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="positive definite"):
        orthonormalize_basis(1, 2, b, _diag(1, -1, 1))


def test_hyperbolic_space_curvature_goldens():
    s = rh_space(2)
    assert mean_curvature(s) == [F(2)]
    assert killing_form(s) == _diag(2, 0, 0)
    assert r_operator(s) == _diag(-1, 0, 0)
    assert ricci_operator(s) == _diag(-2, -2, -2)
    ec = einstein_check(s)
    assert ec.ok and ec.c == F(-2) and ec.residual == 0.0


def test_complex_hyperbolic_curvature_goldens():
    s = ch2()
    assert mean_curvature(s) == [F(2)]
    assert killing_form(s)[0][0] == F(3, 2)
    assert s_ad_h(s) == _diag(0, 1, 1, 2)
    assert ricci_operator(s) == _diag(F(-3, 2), F(-3, 2), F(-3, 2), F(-3, 2))
    ec = einstein_check(s)
    assert ec.ok and ec.c == F(-3, 2)
    assert ec.c_formula_residual == 0.0


def test_r_operator_matches_moment_ricci_when_a_is_trivial():
    s = MetricSolvableAlgebra.create(0, 3, heisenberg3())
    assert r_operator(s) == ricci_moment(heisenberg3()).ric
    assert mean_curvature(s) == []
    assert einstein_check(s).c_formula_residual is None  # unimodular


def test_flat_abelian_is_einstein_with_zero_constant():
    s = MetricSolvableAlgebra.create(0, 2, abelian(2))
    ec = einstein_check(s)
    assert ec.ok and ec.c == 0


def test_unequal_rates_break_einstein():
    coeffs = {(1, 2, 2): F(1), (1, 3, 3): F(2)}
    s = MetricSolvableAlgebra.create(1, 2, BracketTensor.make(3, coeffs))
    assert not einstein_check(s).ok


def test_is_standard():
    assert is_standard(ch2()).ok
    st = is_standard(nonstandard_heisenberg())
    assert not st.ok and st.max_violation == 1.0
    # an exact [a, a] coefficient below the float range is still a violation
    tiny = MetricSolvableAlgebra(2, 1, BracketTensor.make(3, {(1, 2, 3): F(1, 10**400)}))
    assert is_standard(tiny) == (False, 0.0)


def test_curvature_report_shape():
    rep = curvature_report(ch2())
    assert rep.einstein.ok and rep.standard.ok
    assert rep.killing_n_max == 0.0
    d = rep.to_json_dict()
    assert d["einstein"]["c"] == "-3/2"
    assert d["ricci"][0][0] == "-3/2"


def test_trace_identity_exact_on_random_algebras():
    rng = np.random.default_rng(11)
    hit_nonzero = False
    for _ in range(10):
        s = random_solvable(rng)
        d = s.dim
        e = [[rand_frac(rng) for _ in range(d)] for _ in range(d)]
        ti = trace_identity_check(s, e)
        assert ti.tr_re == ti.pairing
        assert ti.residual == 0.0
        hit_nonzero = hit_nonzero or ti.tr_re != 0
    assert hit_nonzero


def test_trace_identity_needs_no_jacobi():
    # the identity is linear-algebraic, so it holds for arbitrary tensors;
    # build the algebra directly to bypass the create() validation
    bad = BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 1): 1})
    assert jacobi_residual(bad) == 1
    s = MetricSolvableAlgebra(0, 3, bad)
    e = [[F(1), F(2), F(-1)], [F(3), F(0), F(1, 2)], [F(0), F(1), F(2)]]
    ti = trace_identity_check(s, e)
    assert ti.residual == 0.0


def test_rank_one_extension_of_heisenberg_is_complex_hyperbolic():
    ext = rank_one_extension(heisenberg3())
    assert ext.bracket.is_exact_mode
    assert ext.bracket.coeffs == ch2().bracket.coeffs
    assert einstein_check(ext).ok


def test_rank_one_extension_of_filiform():
    ext = rank_one_extension(filiform4())
    root5 = float(np.sqrt(5.0))
    expect = {(2, 3, 4): 1.0, (2, 4, 5): 1.0,
              (1, 2, 2): 0.5 / root5, (1, 3, 3): 1.0 / root5,
              (1, 4, 4): 1.5 / root5, (1, 5, 5): 2.0 / root5}
    assert set(ext.bracket.coeffs) == set(expect)
    for key, val in expect.items():
        assert abs(ext.bracket.coeffs[key] - val) < 1e-12
    ec = einstein_check(ext)
    assert ec.ok and abs(float(ec.c) + 1.5) < 1e-12


def test_rank_one_extension_of_abelian_is_hyperbolic():
    ext = rank_one_extension(abelian(3))
    assert ext.bracket.coeffs == rh_space(3).bracket.coeffs
    ext2 = rank_one_extension(abelian(2), c=F(-1, 2))
    assert ext2.bracket.coeffs == {(1, 2, 2): F(1, 2), (1, 3, 3): F(1, 2)}
    assert einstein_check(ext2).c == F(-1, 2)


def test_rank_one_extension_rejections():
    with pytest.raises(ValueError, match="negative"):
        rank_one_extension(abelian(2), c=0)
    stretched = act(np.diag([1.0, 1.0, 1.0, 2.0]), filiform4().to_float())
    with pytest.raises(ValueError, match="not a nilsoliton"):
        rank_one_extension(stretched)


def test_audit_on_complex_hyperbolic_is_exactly_zero():
    aud = standardness_audit(ch2())
    assert not aud.mu_zero_branch
    assert aud.beta.entries == (F(-1), F(-1), F(1))
    assert aud.shift_factor == F(3)
    assert aud.c == F(-3, 2)
    assert aud.lhs == 0 and aud.term1 == 0 and aud.term2 == 0 and aud.term3 == 0
    assert aud.identity_residual == 0.0
    assert aud.tr_e_sq_residual == 0.0 and aud.tr_adh_residual == 0.0
    assert aud.in_w_ok and aud.nonneg_ok
    assert aud.einstein.ok and aud.standard.ok and aud.forces_standard
    d = aud.to_json_dict()
    assert d["beta"] == ["-1", "-1", "1"] and d["terms"] == ["0", "0", "0"]


def test_audit_on_filiform_extension():
    aud = standardness_audit(rank_one_extension(filiform4()))
    assert aud.beta.entries == (F(-1), F(-1, 2), F(0), F(1, 2))
    assert abs(float(aud.lhs)) < 1e-12
    assert aud.identity_residual < 1e-12
    assert aud.forces_standard


def test_audit_zero_branch_on_hyperbolic_space():
    aud = standardness_audit(rh_space(2))
    assert aud.mu_zero_branch and aud.beta is None
    assert aud.shift_factor == F(1)
    assert aud.lhs == 0 and aud.identity_residual == 0.0
    assert aud.forces_standard


def test_audit_flags_nonstandard_complement():
    aud = standardness_audit(nonstandard_heisenberg())
    assert aud.mu_zero_branch
    assert aud.lhs == F(-1, 6)
    assert aud.term2 == F(1, 2)
    assert aud.identity_residual == pytest.approx(2 / 3)
    assert not aud.einstein.ok
    assert not aud.standard.ok
    assert not aud.forces_standard


def test_audit_detects_broken_einstein_metric():
    # stretching ad A by 11/10 leaves standardness but destroys Einstein
    coeffs = {(2, 3, 4): F(1), (1, 2, 2): F(11, 20),
              (1, 3, 3): F(11, 20), (1, 4, 4): F(11, 10)}
    s = MetricSolvableAlgebra.create(1, 3, BracketTensor.make(4, coeffs))
    aud = standardness_audit(s)
    assert aud.lhs == F(21, 100)
    assert aud.term1 == 0 and aud.term2 == 0 and aud.term3 == 0
    assert not aud.einstein.ok
    assert not aud.forces_standard


def test_audit_rejects_wrong_label_via_membership():
    aud = standardness_audit(ch2(), beta=DiagonalWeight.make([0, 0, -1]))
    assert not aud.in_w_ok


def _algebra_battery(rng):
    """Seeded algebras with dim 2-8 and dim_a 0-2, exact and float.

    Solvable Lie algebras (float ones through a random metric) and tensors
    without the Jacobi identity, built directly to bypass create().
    """
    out = []
    for _ in range(12):
        s = random_solvable(rng, 8)
        g = np.eye(s.dim) + 0.2 * rng.normal(size=(s.dim, s.dim))
        out += [s, MetricSolvableAlgebra.create(s.dim_a, s.dim_n, s.bracket, gram=g @ g.T)]
    for dim in range(2, 9):
        for dim_a in range(0, 3):
            for exact in (True, False):
                out.append(MetricSolvableAlgebra(dim_a, dim - dim_a,
                                                 random_tensor(rng, dim, exact)))
    return out


def test_killing_form_and_mean_curvature_match_dense_routes():
    rng = np.random.default_rng(50)
    for s in _algebra_battery(rng):
        mu = s.bracket
        for nu in (BracketTensor(mu.dim, dict(sorted(mu.coeffs.items())), mu.scalar_mode),
                   shuffled(rng, mu)):
            t = MetricSolvableAlgebra(s.dim_a, s.dim_n, nu)
            got, want = killing_form(t), dense_killing_form(t)
            h_want = [linalg.trace(dense_ad(t, r)) for r in range(1, t.dim_a + 1)]
            if nu.is_exact_mode:
                assert got == want and mean_curvature(t) == h_want
            else:
                assert repr(got) == repr(want) and repr(mean_curvature(t)) == repr(h_want)


def test_curvature_report_and_audit_compute_each_quantity_once(monkeypatch):
    # exact algebras compute everything in one integer kernel, float ones
    # compute each quantity once, in the float routes behind `curvature`
    calls = {}
    names = ("_curvature_numerators", "_float_killing", "ric_array", "_float_mean",
             "_float_s_ad_h")
    for name in names:
        real = getattr(solvable, name)

        def spy(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(solvable, name, spy)
    float_once = {"_float_killing": 1, "ric_array": 1, "_float_mean": 1, "_float_s_ad_h": 1}
    for make, once in ((ch2, {"_curvature_numerators": 1}),
                       (lambda: MetricSolvableAlgebra.create(1, 3, ch2().bracket.to_float()),
                        float_once)):
        curvature_report(make())
        assert calls == once
        calls.clear()
        standardness_audit(make())
        assert calls == once
        calls.clear()


def test_einstein_report_and_audit_share_one_curvature(monkeypatch):
    calls = []
    real = solvable._curvature_numerators

    def spy(s):
        calls.append(1)
        return real(s)

    monkeypatch.setattr(solvable, "_curvature_numerators", spy)
    s = ch2()
    einstein_check(s)
    curvature_report(s)
    standardness_audit(s)
    assert len(calls) == 1


def _moved_in_n(rng, s):
    """g.mu for a random g that maps n into n (zero a-rows, n-columns block)."""
    m, d = s.dim_a, s.dim
    a, n = random_exact_gl(rng, m), random_exact_gl(rng, d - m)
    g = [[a[i][j] if i < m and j < m else
          n[i - m][j - m] if i >= m and j >= m else
          rand_frac(rng) if i >= m else F(0) for j in range(d)] for i in range(d)]
    if not s.bracket.is_exact_mode:
        g = np.array(g, dtype=float) + np.diag(0.1 * rng.normal(size=d))
    return MetricSolvableAlgebra(m, d - m, act(g, s.bracket))


def test_audit_terms_and_s_ad_h_match_dense_routes():
    # exact terms are equal.  Float terms are bitwise equal on the Lie
    # algebras audited at their own label, the case `einstein --audit` runs;
    # for an arbitrary beta the summation order differs from the dense route,
    # so they agree to the a-priori bound of an nnz-term float sum.
    rng = np.random.default_rng(51)
    nonzero = 0
    for s in _algebra_battery(rng):
        mu, m = s.bracket, s.dim_a
        if s.dim_n == 0:
            continue
        # the audit lives on algebras whose bracket takes values in n
        s = MetricSolvableAlgebra(m, s.dim_n, BracketTensor(
            mu.dim, {key: c for key, c in mu.coeffs.items() if key[2] > m}, mu.scalar_mode))
        lie = jacobi_check(s.bracket)[0]
        for t in (s, _moved_in_n(rng, s)):
            exact = t.bracket.is_exact_mode
            h = mean_curvature(t)
            sh_got, sh_want = s_ad_h(t), dense_s_ad_h(t, h)
            assert sh_got == sh_want if exact else repr(sh_got) == repr(sh_want)
            betas = [DiagonalWeight.make([rand_frac(rng) for _ in range(t.dim_n)])]
            betas += [None] if lie else []
            for beta in betas:
                aud = standardness_audit(t, beta=beta)
                shift = aud.beta.shifted() if aud.beta else (F(1) if exact else 1.0,) * t.dim_n
                got = (aud.term1, aud.term2, aud.term3)
                want = dense_audit_terms(t, shift)
                if exact:
                    assert got == want
                elif beta is None:
                    assert repr(got) == repr(want)
                else:
                    e = [0.0] * m + [abs(float(x)) for x in shift]
                    scale = sum((e[i - 1] + e[j - 1] + e[k - 1]) * float(c) ** 2
                                for (i, j, k), c in t.bracket.coeffs.items())
                    bound = 2 * t.bracket.nnz * np.finfo(float).eps * scale
                    assert all(abs(x - y) <= bound for x, y in zip(got, want))
                nonzero += all(x != 0 for x in got)
    assert nonzero >= 10


LARGE_PRIMES = (10007, 65537, 999983, 2147483647)


def _kernel_battery(rng):
    """Exact algebras for the integer curvature kernel.

    The named algebras; random solvable algebras with dim_a 0-3, each with
    a copy moved by a rational g that keeps n and a copy scaled by a ratio
    of large primes; and tensors without the Jacobi identity whose
    coefficients have large coprime denominators.
    """
    out = [rh_space(2), rh_space(5), ch2(), nonstandard_heisenberg(),
           rank_one_extension(heisenberg3()), rank_one_extension(abelian(2), c=F(-1, 2)),
           MetricSolvableAlgebra.create(0, 3, heisenberg3()),
           MetricSolvableAlgebra.create(0, 4, filiform4()),
           MetricSolvableAlgebra.create(0, 2, abelian(2))]
    for _ in range(40):
        s = random_solvable(rng, 8, max_dim_a=3)
        ratio = F(LARGE_PRIMES[int(rng.integers(0, 4))], LARGE_PRIMES[int(rng.integers(0, 4))])
        out += [s, _moved_in_n(rng, s),
                MetricSolvableAlgebra(s.dim_a, s.dim_n, s.bracket.scaled(ratio))]
    for dim in range(2, 8):
        for dim_a in range(0, min(dim, 4)):
            mu = random_tensor(rng, dim, True)
            coeffs = {key: c / LARGE_PRIMES[int(rng.integers(0, 4))]
                      for key, c in mu.coeffs.items()}
            out.append(MetricSolvableAlgebra(dim_a, dim - dim_a, BracketTensor.make(dim, coeffs)))
    return out


def test_integer_curvature_kernel_matches_the_fraction_route():
    rng = np.random.default_rng(52)
    seen_dim_a, seen = set(), set()
    for s in _kernel_battery(rng):
        want = fraction_curvature(s)
        cur = s.curvature
        assert cur == want
        matrices = (cur.killing, cur.r, cur.s_ad_h, cur.ricci)
        assert all(type(x) is F for x in cur.mean + [x for m in matrices for row in m for x in row])
        assert (mean_curvature(s), killing_form(s), r_operator(s), s_ad_h(s),
                ricci_operator(s)) == (want.mean, want.killing, want.r, want.s_ad_h, want.ricci)
        assert bracket._ric_exact(s.bracket) == fraction_ric(s.bracket) == want.r
        for tol in (1e-2, solvable.EINSTEIN_TOL):
            ec, ref = einstein_check(s, tol), fraction_einstein_check(s, tol)
            assert ec == ref and repr(ec) == repr(ref)
        if all(k > s.dim_a for (_, _, k) in s.bracket.coeffs):  # the audit needs [s, s] in n
            aud, ref = standardness_audit(s), fraction_standardness_audit(s)
            assert aud == ref and repr(aud) == repr(ref)
            seen.add(("mu_zero_branch", aud.mu_zero_branch))
        seen_dim_a.add(s.dim_a)
        large = any(c.denominator > 10**4 for c in s.bracket.coeffs.values())
        seen.update({("einstein", ec.ok), ("unimodular", ec.c_formula_residual is None),
                     ("large", large)})
    assert seen_dim_a == {0, 1, 2, 3}
    assert seen == {(name, v) for name in ("einstein", "unimodular", "large", "mu_zero_branch")
                    for v in (True, False)}
