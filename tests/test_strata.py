"""Weight systems, stratum labels, memberships, certificates."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from generators import filiform, free_two_step, rand_frac, random_nilpotent, random_tensor
from oracles import (dense_adbeta_gram, fraction_certify_candidate,
                     fraction_derivation_certificates, fraction_derivations)
from solvstrat import linalg, minnorm, strata
from solvstrat.bracket import (BracketTensor, _exact_derivations, act, derivations,
                               inner, permutation_act, rep)
from solvstrat.catalog import filiform4, heisenberg3, so3
from solvstrat.strata import (DiagonalWeight, beta_of, certify_candidate,
                              delta_check, derivation_certificates,
                              eigenvalue_type, in_W, in_Y, in_Z, m_degree,
                              parabolic_membership, positivity_check,
                              project_Z, sort_to_weyl_chamber, weights)

F = Fraction
H3 = heisenberg3()
N4 = filiform4()
B3 = DiagonalWeight.make([-1, -1, 1])
B4 = DiagonalWeight.make([-1, F(-1, 2), 0, F(1, 2)])


def test_weight_vector_shape():
    assert strata._integer_weight(1, 2, 3, 3) == (-1, -1, 1)
    # k coinciding with a slot index merges entries but keeps trace -1
    assert strata._integer_weight(1, 2, 2, 3) == (-1, 0, 0)
    assert sum(strata._integer_weight(2, 4, 1, 5)) == -1


def test_weights_goldens():
    assert weights(H3).points == ((F(-1), F(-1), F(1)),)
    assert set(weights(N4).points) == {(F(-1), F(-1), F(1), F(0)),
                                       (F(-1), F(0), F(-1), F(1))}
    assert set(weights(so3()).points) == {(F(-1), F(-1), F(1)),
                                          (F(-1), F(1), F(-1)),
                                          (F(1), F(-1), F(-1))}
    with pytest.raises(ValueError):
        weights(BracketTensor.make(3, {}))


def test_weights_deduplicate():
    # two coefficients sharing one weight matrix
    mu = BracketTensor.make(4, {(1, 2, 3): 1, (1, 2, 4): 1, (3, 4, 4): 1})
    assert len(weights(mu)) == 3


def test_m_degree_goldens():
    assert m_degree(H3, B3) == 3
    assert m_degree(H3, DiagonalWeight.make([F(-1, 3), F(-1, 3), F(1, 3)])) == 1
    assert m_degree(N4, DiagonalWeight.make([0, 0, 0, 1])) == 0
    assert m_degree(H3, [2 * x for x in B3.entries]) == 6  # positive homogeneity


def test_beta_goldens():
    assert beta_of(H3).entries == (F(-1), F(-1), F(1))
    assert beta_of(N4).entries == (F(-1), F(-1, 2), F(0), F(1, 2))
    assert beta_of(so3()).entries == (F(-1, 3), F(-1, 3), F(-1, 3))


def test_beta_of_runs_no_canonical_search(monkeypatch):
    # the label is the min-norm point alone; the subset search that picks a
    # canonical support never runs on the label path
    def refuse(*args):
        raise AssertionError("beta_of ran the canonical support search")

    monkeypatch.setattr(minnorm, "canonical_form", refuse)
    monkeypatch.setattr(minnorm, "itertools", SimpleNamespace(combinations=refuse))
    rng = np.random.default_rng(7)
    brackets = [H3, N4, free_two_step(3)]
    brackets += [random_nilpotent(rng, 7, transform=True) for _ in range(12)]
    for mu in brackets:
        beta = beta_of(mu)
        assert beta.trace() == -1
        assert m_degree(mu, [x / beta.norm_sq() for x in beta.entries]) == 1
    assert beta_of(H3) == B3 and beta_of(N4) == B4


def test_beta_trace_and_degree_laws():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mu = random_nilpotent(rng, int(rng.integers(3, 7)))
        beta = beta_of(mu)
        assert beta.trace() == -1
        nsq = beta.norm_sq()
        assert m_degree(mu, [x / nsq for x in beta.entries]) == 1


def test_beta_optimality_among_admissible_directions():
    # any diagonal alpha with m(mu, alpha) >= 1 satisfies |alpha|^2 >= 1/|beta|^2
    rng = np.random.default_rng(1)
    for mu in (H3, N4, random_nilpotent(rng, 5)):
        beta = beta_of(mu)
        nsq_b = beta.norm_sq()
        bound = 1 / nsq_b
        base = [x / nsq_b for x in beta.entries]
        hits = 0
        for _ in range(400):
            if rng.integers(0, 2):
                alpha = [rand_frac(rng, 3, 3) for _ in range(mu.dim)]
            else:
                alpha = [b + rand_frac(rng, 1, 4) for b in base]
            if m_degree(mu, alpha) < 1:
                continue
            hits += 1
            assert sum(x * x for x in alpha) >= bound
        assert hits > 10


def test_beta_permutation_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(15):
        dim = int(rng.integers(3, 7))
        mu = random_nilpotent(rng, dim)
        sigma = [int(x) + 1 for x in rng.permutation(dim)]
        b = beta_of(mu).entries
        moved = beta_of(permutation_act(sigma, mu)).entries
        expected = [None] * dim
        for i in range(dim):
            expected[sigma[i] - 1] = b[i]
        assert list(moved) == expected


def test_sort_to_weyl_chamber():
    sorted_b, perm = sort_to_weyl_chamber(DiagonalWeight.make([1, -1, 0]))
    assert sorted_b.entries == (F(-1), F(0), F(1))
    assert perm == (1, 2, 0)
    tied, perm2 = sort_to_weyl_chamber(DiagonalWeight.make([0, -1, -1]))
    assert tied.entries == (F(-1), F(-1), F(0))
    assert perm2 == (1, 2, 0)  # stable on the tie
    already, perm3 = sort_to_weyl_chamber(B4)
    assert already.entries == B4.entries and perm3 == (0, 1, 2, 3)


def test_membership_nesting_and_goldens():
    assert in_Z(H3, B3).ok and in_Y(H3, B3).ok and in_W(H3, B3).ok
    assert in_Z(N4, B4).ok
    assert not in_W(H3, DiagonalWeight.make([0, 0, -1])).ok
    v124 = BracketTensor.make(4, {(1, 2, 4): 1})
    assert in_W(v124, B4).ok and not in_Y(v124, B4).ok and not in_Z(v124, B4).ok
    assert in_W(v124, B4).residual == F(1, 2)
    mixed = BracketTensor.make(4, {(1, 2, 3): 1, (1, 3, 4): 1, (1, 2, 4): 1})
    assert in_W(mixed, B4).ok and in_Y(mixed, B4).ok and not in_Z(mixed, B4).ok


def test_membership_nesting_random():
    rng = np.random.default_rng(3)
    for _ in range(25):
        mu = random_nilpotent(rng, int(rng.integers(3, 7)))
        beta = beta_of(mu)
        z, y, w = in_Z(mu, beta), in_Y(mu, beta), in_W(mu, beta)
        if z.ok:
            assert y.ok
        if y.ok:
            assert w.ok


def test_project_z_filters_support():
    noisy = BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 2): 1})
    assert project_Z(noisy, B3).coeffs == H3.coeffs
    combo = BracketTensor.make(4, {(1, 2, 3): 1, (1, 3, 4): 1, (1, 2, 4): 1})
    assert project_Z(combo, B4).coeffs == N4.coeffs
    # idempotence
    once = project_Z(combo, B4)
    assert project_Z(once, B4).coeffs == once.coeffs


def test_project_z_is_the_scaling_flow_limit():
    # e^{-t(beta + |beta|^2 I)}.mu converges to the projection as t grows
    combo = BracketTensor.make(4, {(1, 2, 3): 1, (1, 3, 4): 1, (1, 2, 4): 1})
    t = 40.0
    g = np.diag(np.exp(-t * np.array([float(x) for x in B4.shifted()])))
    flowed = act(g, combo.to_float())
    target = project_Z(combo, B4)
    diff = flowed.to_array() - target.to_array()
    assert np.max(np.abs(diff)) <= 1e-8


def test_eigenvalue_type_goldens():
    t3 = eigenvalue_type(B3)
    assert t3.values == (1, 1, 2) and t3.scale == 2
    t4 = eigenvalue_type(B4)
    assert t4.values == (1, 2, 3, 4) and t4.scale == F(1, 2)
    with pytest.raises(ValueError):
        eigenvalue_type(beta_of(so3()))  # zero shift
    with pytest.raises(TypeError):
        eigenvalue_type(DiagonalWeight.make([-0.5, -0.5]))


def test_positivity_check():
    assert positivity_check(B3) and positivity_check(B4)
    assert not positivity_check(beta_of(so3()))
    assert min(B3.shifted()) == 2
    assert min(B4.shifted()) == F(1, 2)


def test_parabolic_membership():
    sorted_b3 = DiagonalWeight.make([-1, -1, 1])
    e13 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    lower = [[1, 0, 0], [2, 3, 0], [4, 5, 6]]
    assert not parabolic_membership(e13, sorted_b3)
    assert parabolic_membership(lower, sorted_b3)
    with pytest.raises(ValueError):
        parabolic_membership(lower, DiagonalWeight.make([1, -1, 0]))


def test_derivation_certificates_goldens():
    der3 = derivation_certificates(H3, B3)
    assert der3.dim_der == 6
    assert der3.adbeta_nonneg and der3.betaort_zero and der3.parabolic_all
    assert der3.trace_max_abs == 0.0
    assert der3.quadratic_min == 0.0
    der4 = derivation_certificates(N4, B4)
    assert der4.dim_der == 7
    assert der4.adbeta_nonneg and der4.betaort_zero and der4.parabolic_all


@pytest.mark.parametrize("mu", [N4, free_two_step(3)], ids=["fil4", "free3"])
def test_adbeta_quadratic_min_is_zero_with_diagonal_derivations(mu):
    # diagonal derivations D have <[beta, D], D> = 0, so the minimum is 0
    moved, chamber = _chamber_pair(mu)
    cert = certify_candidate(moved, chamber)
    assert cert.all_passed
    assert abs(cert.residuals["adbeta_quadratic_min"]) <= 1e-12
    beta = DiagonalWeight.make([float(x) for x in chamber.entries])
    assert abs(derivation_certificates(moved.to_float(), beta).quadratic_min) <= 1e-12


def test_float_quadratic_min_bounds_every_unit_derivation():
    # the float basis is orthonormal, so the smallest eigenvalue is the
    # minimum of <[beta, D], D> over unit D: no combination goes below it,
    # and its eigenvector attains it
    rng = np.random.default_rng(37)
    for mu in [N4, free_two_step(3)] + [random_nilpotent(rng, 5) for _ in range(4)]:
        moved, chamber = _chamber_pair(mu)
        b = np.array([float(x) for x in chamber.entries])
        basis = derivations(moved.to_float())
        qmin = derivation_certificates(moved.to_float(), DiagonalWeight.make(b)).quadratic_min
        gram = np.asarray(strata._adbeta_gram(basis, b), dtype=float)
        coeffs = list(rng.standard_normal((20, len(basis))))
        coeffs.append(np.linalg.eigh(gram)[1][:, 0])
        values = []
        for c in coeffs:
            d = sum(x * m for x, m in zip(c, basis))
            values.append(float(np.sum((b[:, None] - b[None, :]) * d * d)) / float(np.sum(d * d)))
        assert min(values) >= qmin - 1e-12
        assert abs(values[-1] - qmin) <= 1e-12


def test_certify_candidate_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for mu in (H3, N4, free_two_step(3)):
        moved, chamber = _chamber_pair(mu)
        assert certify_candidate(moved, chamber).all_passed
        beta = DiagonalWeight.make([float(x) for x in chamber.entries])
        assert certify_candidate(moved.to_float(), beta).all_passed


def _chamber_pair(mu):
    """mu moved so that its label is sorted, and that sorted label."""
    chamber, order = sort_to_weyl_chamber(beta_of(mu))
    sigma = [0] * mu.dim
    for pos, i in enumerate(order):
        sigma[i] = pos + 1
    return permutation_act(sigma, mu), chamber


def _gram_cases():
    named = [("h3", H3), ("fil4", N4), ("L8", filiform(8)), ("L10", filiform(10)),
             ("free3", free_two_step(3)), ("free4", free_two_step(4))]
    rng = np.random.default_rng(23)
    randoms = [(f"random{t}", random_nilpotent(rng, int(rng.integers(3, 8)),
                                               transform=bool(t % 2)))
               for t in range(50)]
    return [pytest.param(mu, id=name) for name, mu in named + randoms]


@pytest.mark.parametrize("mu", _gram_cases())
def test_adbeta_gram_matches_the_dense_form(mu):
    # the integer Gram matrix, scaled back by L den_a den_c, is the dense
    # rational form, and the certificate is the Fraction route's
    moved, chamber = _chamber_pair(mu)
    basis = derivations(moved)
    dens, nums = zip(*_exact_derivations(moved))
    n = moved.dim
    assert [[[F(e.get(r * n + c, 0), den) for c in range(n)] for r in range(n)]
            for den, e in zip(dens, nums)] == basis
    big = math.lcm(*(x.denominator for x in chamber.entries))
    bint = [int(x * big) for x in chamber.entries]
    got = strata._integer_gram(nums, bint)
    scaled = [[F(g, big * da * dc) for g, dc in zip(row, dens)] for row, da in zip(got, dens)]
    assert scaled == dense_adbeta_gram(basis, chamber.entries)
    assert derivation_certificates(moved, chamber) == fraction_derivation_certificates(
        moved, chamber)


def test_adbeta_gram_matches_the_dense_form_in_float_mode(monkeypatch):
    rng = np.random.default_rng(29)
    for mu in [N4, free_two_step(3)] + [random_nilpotent(rng, 5) for _ in range(5)]:
        moved, chamber = _chamber_pair(mu)
        beta = DiagonalWeight.make([float(x) for x in chamber.entries])
        basis = derivations(moved.to_float())
        got = strata._adbeta_gram(basis, beta.entries)
        want = dense_adbeta_gram(basis, beta.entries)
        # rounding makes the dense sum slightly asymmetric; the lower
        # triangle, which eigvalsh reads, agrees bit for bit
        for c in range(len(basis)):
            for a in range(c + 1):
                assert got[c][a] == want[c][a] and got[a][c] == got[c][a]
        with monkeypatch.context() as m:
            sparse_cert = derivation_certificates(moved.to_float(), beta)
            m.setattr(strata, "_adbeta_gram", dense_adbeta_gram)
            assert derivation_certificates(moved.to_float(), beta) == sparse_cert


def test_adbeta_gram_with_an_exact_label_on_a_float_basis():
    # stratum certifies a float limit against a rationalized label: the
    # tabulated float(b_i - b_j) must give the dense Fraction-times-float sum
    # bit for bit (repr tells -0.0 apart) on the lower triangle
    rng = np.random.default_rng(31)
    for mu in [N4, free_two_step(3)] + [random_nilpotent(rng, 5) for _ in range(5)]:
        moved, chamber = _chamber_pair(mu)
        basis = derivations(moved.to_float())
        got = strata._adbeta_gram(basis, chamber.entries)
        want = dense_adbeta_gram(basis, chamber.entries)
        for c in range(len(basis)):
            for a in range(c + 1):
                assert repr(float(got[c][a])) == repr(float(want[c][a]))
                assert got[a][c] is got[c][a]


@pytest.mark.parametrize("mu,beta,dim_der", [
    (filiform(8), [-1, F(-3, 28), F(-1, 14), F(-1, 28), 0, F(1, 28), F(1, 14), F(3, 28)], 15),
    (filiform(10), [-1, F(-1, 15), F(-1, 20), F(-1, 30), F(-1, 60), 0, F(1, 60), F(1, 30),
                    F(1, 20), F(1, 15)], 19),
    (free_two_step(4), [F(-1, 2)] * 4 + [F(1, 6)] * 6, 40),
], ids=["L8", "L10", "free4"])
def test_large_certificates_goldens(mu, beta, dim_der):
    b = beta_of(mu)
    assert b.entries == tuple(F(x) for x in beta)
    assert derivation_certificates(mu, b).dim_der == dim_der
    assert certify_candidate(mu, b).all_passed


def test_delta_check_worked_value():
    combo = BracketTensor.make(4, {(1, 2, 3): 1, (1, 3, 4): 1, (1, 2, 4): 1})
    assert delta_check(combo, B4) == 1  # only the (1,2,4) term contributes: 2 * 1 * 1/2
    assert delta_check(N4, B4) == 0
    with pytest.raises(ValueError):
        delta_check(BracketTensor.make(4, {(2, 3, 4): 1}), B4)


def test_delta_matches_rep_route():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = random_nilpotent(rng, int(rng.integers(3, 6)))
        beta = beta_of(mu)
        shift = [[beta.shifted()[i] if i == j else F(0) for j in range(mu.dim)]
                 for i in range(mu.dim)]
        assert delta_check(mu, beta) == inner(rep(shift, mu), mu)


def test_certificate_goldens():
    cert = certify_candidate(H3, B3)
    assert cert.all_passed
    assert cert.q_value == F(1, 3)
    assert cert.eigenvalue_type == (1, 1, 2) and cert.type_scale == 2
    assert set(cert.checks) == {"trace_minus_one", "in_W", "in_Z", "m_equals_one",
                                "delta_nonneg", "beta_positive_shift",
                                "derivations_in_parabolic", "adbeta_nonneg",
                                "betaort_zero"}
    cert4 = certify_candidate(N4, B4)
    assert cert4.all_passed and cert4.q_value == F(2, 3)
    assert cert4.eigenvalue_type == (1, 2, 3, 4)


def test_certificate_flags_so3():
    b = sort_to_weyl_chamber(beta_of(so3()))[0]
    cert = certify_candidate(so3(), b)
    assert not cert.checks["beta_positive_shift"]
    assert cert.eigenvalue_type is None and cert.type_scale is None
    assert not cert.all_passed


def test_certificate_rejects_zero_beta():
    with pytest.raises(ValueError):
        certify_candidate(H3, DiagonalWeight.make([0, 0, 0]))


def test_certificate_exact_on_float_support():
    # float coefficients on an exact-support bracket: memberships stay exact
    mu = BracketTensor.make(3, {(1, 2, 3): 0.9999999}).to_float()
    cert = certify_candidate(mu, B3)
    assert cert.checks["in_Z"] and cert.checks["m_equals_one"]
    assert cert.residuals["in_Z"] == 0


def test_certificate_json_round_trip_shape():
    d = certify_candidate(N4, B4).to_json_dict()
    assert d["beta"] == ["-1", "-1/2", "0", "1/2"]
    assert d["q_value"] == "2/3"
    assert d["eigenvalue_type"] == [1, 2, 3, 4]
    assert d["type_scale"] == "1/2"
    assert d["all_passed"] is True


def _certificate_battery():
    """(name, mu, sorted beta): labels of exact-label-style brackets, GL-moved
    random nilpotent brackets of dims 3-10, and random sorted rational betas
    on them (nonzero traces, derivations outside the parabolic, indefinite
    Gram matrices, ties and a constant beta whose Gram matrix vanishes)."""
    rng = np.random.default_rng(61)
    named = [("h3", H3), ("fil4", N4), ("L8", filiform(8)), ("free3", free_two_step(3))]
    randoms = [(f"label{t}", random_nilpotent(rng, int(rng.integers(3, 8)),
                                              transform=bool(t % 2)))
               for t in range(8)]
    moved = [(f"gl{d}", random_nilpotent(rng, d, transform=True)) for d in range(3, 11)]
    for name, mu in named + randoms + moved:
        mu, chamber = _chamber_pair(mu)
        yield name, mu, chamber
        if mu.dim <= 7:
            for t in range(2):
                b = sorted(rand_frac(rng, 3, 4) for _ in range(mu.dim))
                yield f"{name}_beta{t}", mu, DiagonalWeight.make(b)
            yield f"{name}_flat", mu, DiagonalWeight.make([F(-1, mu.dim)] * mu.dim)


@pytest.mark.parametrize("mu,beta", [pytest.param(mu, beta, id=name)
                                     for name, mu, beta in _certificate_battery()])
def test_exact_certificates_match_the_fraction_route(mu, beta):
    assert derivations(mu) == fraction_derivations(mu)
    assert derivation_certificates(mu, beta) == fraction_derivation_certificates(mu, beta)
    if mu.dim <= 7:  # the oracle's dense Gram form takes seconds beyond
        # exact mu against a float label keeps the float route
        fbeta = DiagonalWeight.make([float(x) for x in beta.entries])
        assert derivation_certificates(mu, fbeta) == fraction_derivation_certificates(mu, fbeta)


def _mode_battery():
    """(name, mu, beta) of _certificate_battery up to dim 7 in four modes:
    exact, float mu with the exact label, exact mu with a float label, and
    both float."""
    for name, mu, beta in _certificate_battery():
        if mu.dim <= 7:
            fbeta = DiagonalWeight.make([float(x) for x in beta.entries])
            yield f"exact-{name}", mu, beta
            yield f"float-mu-{name}", mu.to_float(), beta
            yield f"float-beta-{name}", mu, fbeta
            yield f"float-{name}", mu.to_float(), fbeta


@pytest.mark.parametrize("mu,beta", [pytest.param(mu, beta, id=name)
                                     for name, mu, beta in _mode_battery()])
def test_certificates_match_the_fraction_route(mu, beta):
    # the integer label values of exact inputs, and the inputs' arithmetic
    # otherwise, give the Fraction route's certificate, type for type
    assert repr(certify_candidate(mu, beta)) == repr(fraction_certify_candidate(mu, beta))


def test_exact_label_path_stays_in_integers(monkeypatch):
    # beta_of builds the integer scaled view of the weights itself, and an
    # exact certificate takes the null space numerators as they are
    rng = np.random.default_rng(73)
    brackets = [H3, N4, filiform(8), free_two_step(3)] + [
        random_nilpotent(rng, int(rng.integers(3, 8)), transform=bool(t % 2)) for t in range(6)]
    want = [(beta_of(mu), certify_candidate(*_chamber_pair(mu))) for mu in brackets]

    def refuse(*args, **kwargs):
        raise AssertionError("the exact label path left its integer kernels")

    monkeypatch.setattr(minnorm.PointSet, "make", staticmethod(refuse))
    monkeypatch.setattr(minnorm, "_scaled", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    got = [(beta_of(mu), certify_candidate(*_chamber_pair(mu))) for mu in brackets]
    assert repr(got) == repr(want)


def test_certificate_battery_reaches_every_verdict():
    verdicts = set()
    for _, mu, beta in _certificate_battery():
        if mu.dim <= 7:
            cert = derivation_certificates(mu, beta)
            verdicts.add(("adbeta", cert.adbeta_nonneg))
            verdicts.add(("betaort", cert.betaort_zero))
            verdicts.add(("parabolic", cert.parabolic_all))
    assert len(verdicts) == 6


def test_unsorted_exact_beta_raises_exactly_when_derivations_exist():
    # an empty basis returns before the chamber convention is consulted
    rng = np.random.default_rng(67)
    seen = set()
    for _ in range(30):
        mu = random_tensor(rng, int(rng.integers(3, 5)), exact=True)
        # rand_frac draws at least -6, so the last entry breaks the order
        beta = DiagonalWeight.make(sorted(rand_frac(rng) for _ in range(mu.dim - 1)) + [F(-7)])
        has_basis = bool(fraction_derivations(mu))
        seen.add(has_basis)
        if has_basis:
            with pytest.raises(ValueError, match="sorted"):
                derivation_certificates(mu, beta)
        else:
            assert derivation_certificates(mu, beta) == strata.DerivationCertificates(
                0, True, True, True, 0.0, 0.0)
    assert seen == {True, False}
