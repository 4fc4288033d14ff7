"""Metric solvable algebras: curvature, Einstein checks, extensions, audit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from generators import (abelian, ch2, filiform4, heisenberg3, nonstandard_heisenberg,
                        rand_frac, random_exact_gl, random_solvable, random_tensor,
                        rh_space, shuffled, so3)
from oracles import (coeff, dense_ad, dense_ad_on_n, dense_audit_terms,
                     dense_killing_form, dense_s_ad_h, fraction_curvature,
                     fraction_einstein_check, fraction_ric,
                     fraction_standardness_audit, trace_identity_check)
from solvstrat import bracket, cli, flow, linalg, solvable
from solvstrat.bracket import BracketTensor, act, jacobi_check, jacobi_residual
from solvstrat.flow import ricci_moment
from solvstrat.solvable import (MetricSolvableAlgebra, curvature_report,
                                einstein_check, is_standard,
                                orthonormalize_basis, rank_one_extension,
                                standardness_audit)
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
        assert abs(coeff(out, *key) - float(val)) < 1e-12


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
    assert s.curvature.mean == [F(2)]
    assert s.curvature.killing == _diag(2, 0, 0)
    assert s.curvature.r == _diag(-1, 0, 0)
    assert s.curvature.ricci == _diag(-2, -2, -2)
    ec = einstein_check(s)
    assert ec.ok and ec.c == F(-2) and ec.residual == 0.0


def test_complex_hyperbolic_curvature_goldens():
    s = ch2()
    assert s.curvature.mean == [F(2)]
    assert s.curvature.killing[0][0] == F(3, 2)
    assert s.curvature.s_ad_h == _diag(0, 1, 1, 2)
    assert s.curvature.ricci == _diag(F(-3, 2), F(-3, 2), F(-3, 2), F(-3, 2))
    ec = einstein_check(s)
    assert ec.ok and ec.c == F(-3, 2)
    assert ec.c_formula_residual == 0.0


def test_a_tiny_exact_mean_curvature_still_reports_the_c_formula():
    # ch2 times 10^-7 has tr S(ad H) = 4 10^-14: exactly nonzero, so the
    # algebra is not unimodular and the c formula is reported, however small
    t = F(1, 10 ** 7)
    s = MetricSolvableAlgebra.create(1, 3, ch2().bracket.scaled(t))
    assert linalg.trace(s.curvature.s_ad_h) == 4 * t * t
    ec = einstein_check(s)
    assert ec.ok and ec.c == F(-3, 2) * t * t
    assert ec.c_formula_residual == 0.0


def test_r_operator_matches_moment_ricci_when_a_is_trivial():
    s = MetricSolvableAlgebra.create(0, 3, heisenberg3())
    assert s.curvature.r == ricci_moment(heisenberg3()).ric
    assert s.curvature.mean == []
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
    # an exact [a, a] coefficient below the float range is still a violation,
    # and the record keeps it exactly
    tiny = MetricSolvableAlgebra(2, 1, BracketTensor.make(3, {(1, 2, 3): F(1, 10**400)}))
    assert is_standard(tiny) == (False, F(1, 10**400))


def test_curvature_report_shape():
    rep = curvature_report(ch2())
    assert rep.einstein.ok and rep.standard.ok
    assert rep.killing_n_max == 0.0
    d = cli._curvature_json(rep)
    assert d["einstein"]["c"] == "-3/2"
    assert d["ricci"][0][0] == "-3/2"


def _report_residuals(s, beta=None) -> dict:
    """The residuals that the curvature report and the audit keep."""
    rep, aud = curvature_report(s), standardness_audit(s, beta)
    return {"residual": rep.einstein.residual,
            "c_formula_residual": rep.einstein.c_formula_residual,
            "max_violation": rep.standard.max_violation,
            "killing_n_max": rep.killing_n_max,
            "identity_residual": aud.identity_residual,
            "tr_e_sq_residual": aud.tr_e_sq_residual,
            "tr_adh_residual": aud.tr_adh_residual}


def test_exact_residuals_stay_exact_beyond_the_float_range():
    # h3 scaled by 10^200 is not Einstein, with residual 2/3 10^400: every
    # residual the records keep is a Fraction, so the library forms no float
    # image that could overflow; its extension reports the c formula too
    h3 = BracketTensor.make(3, {(1, 2, 3): F(10) ** 200})
    s, ext = MetricSolvableAlgebra.create(0, 3, h3), rank_one_extension(h3)
    got = _report_residuals(s)
    assert got.pop("c_formula_residual") is None
    assert got["residual"] == F(2, 3) * F(10) ** 400
    with pytest.raises(OverflowError):
        float(got["residual"])
    assert all(type(x) is F for x in got.values())
    got = _report_residuals(ext)
    assert all(type(x) is F for x in got.values()) and len(got) == 7


def test_float_residuals_stay_float():
    # on float input the same residuals are floats; the audit's tr_e_sq
    # residual reads the label alone, which beta_of gives exactly
    h3 = BracketTensor.make(3, {(1, 2, 3): 1.5})
    for s in (MetricSolvableAlgebra.create(0, 3, h3), rank_one_extension(h3)):
        got = _report_residuals(s)
        assert type(got.pop("tr_e_sq_residual")) is F
        assert all(type(x) is float for x in got.values() if x is not None)
        beta = standardness_audit(s).beta
        fbeta = DiagonalWeight.make([float(x) for x in beta.entries])
        got = _report_residuals(s, fbeta)
        assert all(type(x) is float for x in got.values() if x is not None)
    assert got["c_formula_residual"] is not None


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


def test_trace_identity_reads_an_ndarray_through_tolist():
    # an integer array becomes exact rows, a float array float rows
    g = np.array([[1, 2, 0, 0], [0, 1, 0, 3], [0, 0, 1, 0], [1, 0, 0, 1]])
    exact, floats = trace_identity_check(ch2(), g), trace_identity_check(ch2(), g / 3)
    assert exact == (F(-5, 4), F(-5, 4), 0.0) and type(exact.tr_re) is F
    assert floats == (-0.41666666666666663,) * 2 + (0.0,) and type(floats.tr_re) is float


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


def test_rank_one_extension_takes_a_float_c_on_the_exact_zero_bracket():
    # no derivation test runs on 0, so a float c needs no float bracket
    ext = rank_one_extension(abelian(3), c=-2.5)
    assert ext.bracket.scalar_mode == "float"
    assert ext.bracket.coeffs == {(1, k, k): 2.5 / math.sqrt(7.5) for k in (2, 3, 4)}
    assert einstein_check(ext) == (True, -2.5, 0.0, 0.0, 1e-8)


def test_rank_one_extension_rejections():
    with pytest.raises(ValueError, match="negative"):
        rank_one_extension(abelian(2), c=0)
    stretched = act(np.diag([1.0, 1.0, 1.0, 2.0]), filiform4().to_float())
    with pytest.raises(ValueError, match="not a nilsoliton"):
        rank_one_extension(stretched)
    # tr D = -3c leaves the float range: sqrt(tr D) = inf would zero ad A
    with pytest.raises(ValueError, match="tr D = inf overflows the float range"):
        rank_one_extension(abelian(3), c=-1e308)


def test_rank_one_extension_takes_c_for_the_zero_bracket_only():
    # a nonzero lam fixes c = tr(Ric^2) / tr(Ric), in both modes
    for lam in (heisenberg3(), heisenberg3().to_float()):
        with pytest.raises(ValueError, match="c is fixed by a nonzero lam"):
            rank_one_extension(lam, c=F(-3, 2))


def test_sqrt_text_is_the_g_text_of_the_root_at_every_size():
    # where x is a float, the text is f"{math.sqrt(x):g}"; beyond, it keeps
    # that form with the exponent carried in integers
    for k in range(-150, 151, 3):
        x = F(3, 2) * F(100) ** k
        assert linalg.g_text(x, root=True) == f"{math.sqrt(x):g}"
    for k in (-800, -500, 500, 800):
        assert linalg.g_text(F(3, 2) * F(100) ** k, root=True) == f"1.22474e{k:+03d}"
    # a root that rounds up to 10 moves to the next exponent
    assert linalg.g_text(F(9999996, 10 ** 6) ** 2 * F(100) ** 600, root=True) == "1e+601"


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
    d = cli._audit_json(aud)
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
            got, want = t.curvature.killing, dense_killing_form(t)
            h_want = [linalg.trace(dense_ad(t, r)) for r in range(1, t.dim_a + 1)]
            if nu.is_exact_mode:
                assert got == want and t.curvature.mean == h_want
            else:
                assert repr(got) == repr(want) and repr(t.curvature.mean) == repr(h_want)


def test_float_r_and_ricci_are_the_dense_moment_and_the_float_difference():
    # R of a float algebra is ric_array's, and Ricci is R - B/2 - S(ad H)
    # formed in floats, bit for bit; at 2^-540 the Killing form is subnormal
    # and at 2^500 the squares near the top of the float range
    rng = np.random.default_rng(52)
    floats = [s for s in _algebra_battery(rng) if not s.bracket.is_exact_mode]
    assert len(floats) >= 30
    for s in floats:
        for scale in (1.0, 2.0 ** -540, 2.0 ** 500):
            mu = BracketTensor(s.dim, {key: c * scale for key, c in s.bracket.coeffs.items()},
                               "float")
            t = MetricSolvableAlgebra(s.dim_a, s.dim_n, mu)
            r = t.curvature.r
            assert repr(r) == repr(flow.ric_array(mu.to_array()).tolist())
            want = [[x - 0.5 * y - z for x, y, z in zip(rr, rb, rs)]
                    for rr, rb, rs in zip(r, t.curvature.killing, t.curvature.s_ad_h)]
            assert repr(t.curvature.ricci) == repr(want)


def test_curvature_report_and_audit_compute_each_quantity_once(monkeypatch):
    # one kernel computes everything in both modes; a float algebra takes R
    # from ric_array, an exact one from its integer view
    calls = {}
    for name in ("_curvature_numerators", "ric_array"):
        real = getattr(solvable, name)

        def spy(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(solvable, name, spy)
    for make, once in ((ch2, {"_curvature_numerators": 1}),
                       (lambda: MetricSolvableAlgebra.create(1, 3, ch2().bracket.to_float()),
                        {"_curvature_numerators": 1, "ric_array": 1})):
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
            h = t.curvature.mean
            sh_got, sh_want = t.curvature.s_ad_h, dense_s_ad_h(t, h)
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
        assert (cur.mean, cur.killing, cur.r, cur.s_ad_h,
                cur.ricci) == (want.mean, want.killing, want.r, want.s_ad_h, want.ricci)
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


def test_integer_audit_sums_match_the_fraction_route_on_any_label():
    # the integer audit sums against the Fraction route for labels other
    # than the default: random rational ones, off the chamber order, with
    # shifted entries of either sign
    rng = np.random.default_rng(53)
    seen = set()
    for s in _kernel_battery(rng)[:60]:
        if s.dim_n == 0 or any(k <= s.dim_a for (_, _, k) in s.bracket.coeffs):
            continue
        for _ in range(2):
            beta = DiagonalWeight.make([rand_frac(rng, 3, 5) for _ in range(s.dim_n)])
            if beta.norm_sq() == 0:
                continue
            aud, ref = standardness_audit(s, beta), fraction_standardness_audit(s, beta)
            assert aud == ref and repr(aud) == repr(ref)
            seen.update({("in_w", aud.in_w_ok), ("nonneg", aud.nonneg_ok)})
    assert len(seen) == 4
