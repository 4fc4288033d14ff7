"""Moment map values, the descent flow, and stratum detection."""

import inspect
import warnings
from fractions import Fraction

import numpy as np
import pytest

from generators import free_two_step, random_nilpotent
from oracles import eigh_per_exponential_flow, fraction_ricci_moment, ricci_moment_via_duality
from solvstrat import flow
from solvstrat.bracket import BracketTensor, act_array, direct_sum, permutation_act
from solvstrat.catalog import filiform4, heisenberg3, so3
from solvstrat.flow import (expm_sym, flow_to_critical, ric_array, ricci_moment,
                            stratum_detect)
from solvstrat.strata import DiagonalWeight

F = Fraction
H3 = heisenberg3()
N4 = filiform4()
B4 = DiagonalWeight.make([-1, F(-1, 2), 0, F(1, 2)])


def _as_float(m) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m])


def test_ricci_goldens():
    mv = ricci_moment(H3)
    assert mv.ric == [[F(-1, 2), 0, 0], [0, F(-1, 2), 0], [0, 0, F(1, 2)]]
    assert mv.norm_mu_sq == 2
    assert mv.m_normalized == [[F(-1), 0, 0], [0, F(-1), 0], [0, 0, F(1)]]
    mv4 = ricci_moment(N4)
    assert mv4.ric == [[F(-1), 0, 0, 0], [0, F(-1, 2), 0, 0],
                       [0, 0, F(0), 0], [0, 0, 0, F(1, 2)]]
    mv_so3 = ricci_moment(so3())
    assert mv_so3.ric == [[F(-1, 2), 0, 0], [0, F(-1, 2), 0], [0, 0, F(-1, 2)]]
    assert mv_so3.m_normalized[0][0] == F(-1, 3)


def test_exact_ricci_moment_equals_the_fraction_route():
    rng = np.random.default_rng(61)
    battery = [H3, N4, free_two_step(3)]
    battery += [random_nilpotent(rng, int(rng.integers(3, 8)), transform=bool(t % 2))
                for t in range(24)]
    for mu in battery:
        got, want = ricci_moment(mu), fraction_ricci_moment(mu)
        assert got == want
        assert all(type(x) is F for m in (got.ric, got.m_normalized) for row in m for x in row)


def test_ricci_trace_law_exact():
    rng = np.random.default_rng(0)
    for _ in range(15):
        mu = random_nilpotent(rng, int(rng.integers(3, 7)))
        mv = ricci_moment(mu)
        assert sum(mv.ric[i][i] for i in range(mu.dim)) == -mv.norm_mu_sq / 4
        assert sum(mv.m_normalized[i][i] for i in range(mu.dim)) == -1


def test_ricci_two_routes_agree():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = random_nilpotent(rng, 5)
        exact = ricci_moment(mu).ric
        dual = ricci_moment_via_duality(mu)
        assert exact == dual  # both exact Fractions
        f = mu.to_float()
        assert np.max(np.abs(_as_float(ricci_moment(f).ric)
                             - ricci_moment_via_duality(f))) < 1e-10


def test_ricci_rejects_zero():
    with pytest.raises(ValueError):
        ricci_moment(BracketTensor.make(3, {}))


def test_ricci_orthogonal_equivariance():
    rng = np.random.default_rng(2)
    mu = random_nilpotent(rng, 5).to_float()
    arr = mu.to_array()
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    moved = ric_array(act_array(q, q.T, arr))
    assert np.max(np.abs(moved - q @ ric_array(arr) @ q.T)) < 1e-10


def test_ricci_permutation_equivariance_exact():
    rng = np.random.default_rng(3)
    mu = random_nilpotent(rng, 4)
    sigma = [3, 1, 4, 2]
    moved = ricci_moment(permutation_act(sigma, mu)).ric
    base = ricci_moment(mu).ric
    for i in range(4):
        for j in range(4):
            assert moved[sigma[i] - 1][sigma[j] - 1] == base[i][j]


def test_expm_sym():
    d = np.diag([1.0, -2.0, 0.5])
    assert np.max(np.abs(expm_sym(*np.linalg.eigh(d), 1.0)
                         - np.diag(np.exp([1.0, -2.0, 0.5])))) < 1e-12
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    w, q = np.linalg.eigh((a + a.T) / 2)
    assert np.max(np.abs(expm_sym(w, q, 0.3) @ expm_sym(w, q, -0.3) - np.eye(4))) < 1e-12


def test_flow_fixed_points():
    for mu, expected in ((H3, (-1.0, -1.0, 1.0)),
                         (N4, (-1.0, -0.5, 0.0, 0.5)),
                         (so3(), (-1 / 3, -1 / 3, -1 / 3))):
        fr = flow_to_critical(mu)
        assert fr.converged and fr.iterations == 0
        assert np.max(np.abs(np.array(fr.spectrum) - np.array(expected))) < 1e-12
        # to_array carries both orderings, so its Frobenius norm is |mu|
        assert abs(float(np.sqrt(np.sum(fr.limit.to_array() ** 2))) - 1.0) < 1e-12


def test_flow_from_scaled_orbit_point():
    g = np.diag([1.0, 2.0, 1.0, 1.0])
    mu = BracketTensor.from_array(act_array(g, np.linalg.inv(g), N4.to_array()))
    fr = flow_to_critical(mu)
    assert fr.converged and fr.iterations > 0
    assert np.max(np.abs(np.array(fr.spectrum) - np.array([-1, -0.5, 0, 0.5]))) < 1e-6
    assert fr.residuals["tangency"] <= 1e-10


def test_flow_halving_keeps_descent_with_large_steps():
    # an oversized step is halved until |M|^2 does not increase
    g = np.diag([1.0, 3.0, 1.0, 0.5])
    mu = BracketTensor.from_array(act_array(g, np.linalg.inv(g), N4.to_array()))
    fr = flow_to_critical(mu, step=5.0, max_iter=300, record_trace=True)
    assert fr.message != "step size underflow before tangency"
    msq = [row[1] for row in fr.trace]
    assert all(a >= b - 1e-12 for a, b in zip(msq, msq[1:]))
    assert fr.residuals["tangency"] < 1e-3


def test_flow_msq_monotone_along_trace():
    g = np.diag([1.0, 2.0, 0.5, 1.0])
    mu = BracketTensor.from_array(act_array(g, np.linalg.inv(g), N4.to_array()))
    fr = flow_to_critical(mu, record_trace=True)
    msq = [row[1] for row in fr.trace]
    assert all(a >= b - 1e-12 for a, b in zip(msq, msq[1:]))
    assert fr.trace[0][0] == 0


def _gl_moved_brackets():
    """Float GL-moved h3, fil4, free3 and h3+h3, g = I + 0.1 N(0, 1), two draws each."""
    rng = np.random.default_rng(17)
    cases = []
    for name, mu in (("h3", H3), ("fil4", N4), ("free3", free_two_step(3)),
                     ("h3+h3", direct_sum(H3, H3))):
        for draw in range(2):
            g = np.eye(mu.dim) + 0.1 * rng.standard_normal((mu.dim, mu.dim))
            moved = BracketTensor.from_array(act_array(g, np.linalg.inv(g), mu.to_array()))
            cases.append((f"{name}-{draw}", moved))
    return cases


@pytest.mark.parametrize("step", [0.1, 2.0])
@pytest.mark.parametrize("mu", [pytest.param(mu, id=name) for name, mu in _gl_moved_brackets()])
def test_flow_matches_the_eigh_per_exponential_route(mu, step):
    # one eigh per iteration and the staged act give the same floats as an
    # eigh inside every exponential and the einsum act; repr tells -0.0 apart
    got = flow_to_critical(mu, step=step, max_iter=200, record_trace=True)
    want = eigh_per_exponential_flow(mu, step=step, tol=flow.FLOW_TOL, max_iter=200,
                                     record_trace=True)
    for field in ("limit", "aligned"):
        assert repr(getattr(got, field).coeffs) == repr(getattr(want, field).coeffs)
    for field in ("spectrum", "residuals", "iterations", "converged", "message", "trace"):
        assert repr(getattr(got, field)) == repr(getattr(want, field))


def test_flow_decomposes_the_moment_once_per_iteration(monkeypatch):
    # expm_sym runs twice per attempted step (perfbench derives the attempt
    # count from those calls); eigh runs once per iteration that steps and
    # once for the final alignment
    counts = {"expm_sym": 0, "act_array": 0, "eigh": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(flow, "expm_sym", counting("expm_sym", flow.expm_sym))
    monkeypatch.setattr(flow, "act_array", counting("act_array", flow.act_array))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    halvings = 0
    for _, mu in _gl_moved_brackets():
        for step in (0.1, 2.0):
            for key in counts:
                counts[key] = 0
            fr = flow_to_critical(mu, step=step, max_iter=200)
            assert fr.message != "step size underflow before tangency"
            attempts = counts["act_array"] - 1   # one act per attempt, one to align
            assert counts["expm_sym"] == 2 * attempts
            assert counts["eigh"] == fr.iterations + 1
            halvings += attempts - fr.iterations
    assert halvings > 0


def test_flow_input_validation():
    with pytest.raises(ValueError):
        flow_to_critical(BracketTensor.make(3, {}))


def test_flow_keeps_best_iterate_on_noisy_start():
    # a non-orthogonal orbit perturbation passes near the critical point and
    # then amplifies rounding noise; the kept iterate still certifies exactly
    rng = np.random.default_rng(7)
    g = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    mu = BracketTensor.from_array(act_array(g, np.linalg.inv(g), N4.to_array()))
    det = stratum_detect(mu)
    assert det.rationalized
    assert det.certificate.beta.entries == B4.entries
    assert det.certificate.all_passed
    fr = det.flow
    assert fr.converged or "rebound" in fr.message


def test_stratum_detect_goldens():
    det3 = stratum_detect(H3)
    assert det3.rationalized and det3.certificate.all_passed
    assert det3.certificate.beta.entries == (F(-1), F(-1), F(1))
    assert det3.certificate.eigenvalue_type == (1, 1, 2)
    det4 = stratum_detect(N4)
    assert det4.rationalized and det4.certificate.all_passed
    assert det4.certificate.beta.entries == B4.entries
    assert det4.certificate.eigenvalue_type == (1, 2, 3, 4)
    assert det4.flow.residuals["z_membership"] <= 1e-10
    assert det4.flow.residuals["m_equals_one"] <= 1e-10


def test_stratum_detect_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stratum detection drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    g = np.diag([1.0, 2.0, 1.0, 1.0])
    mu = BracketTensor.from_array(act_array(g, np.linalg.inv(g), N4.to_array()))
    for bracket in (N4, mu):
        det = stratum_detect(bracket)
        assert det.certificate.all_passed and det.certificate.beta.entries == B4.entries


def test_stratum_detect_evaluates_jacobi_once(monkeypatch):
    from solvstrat import bracket

    calls = []
    real = bracket.jacobi_residual

    def spy(mu):
        calls.append(1)
        return real(mu)

    monkeypatch.setattr(bracket, "jacobi_residual", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stratum_detect(so3(), max_iter=5)
    assert any("not nilpotent" in str(w.message) for w in caught)
    assert len(calls) == 1


def test_stratum_detect_keyword_arguments():
    params = inspect.signature(stratum_detect).parameters
    assert list(params) == ["mu", "step", "tol", "max_iter", "denom_bound", "record_trace"]


def test_stratum_detect_direct_sum_under_rotation():
    rng = np.random.default_rng(8)
    hh = direct_sum(H3, H3)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    mu = BracketTensor.from_array(act_array(q, q.T, hh.to_array()))
    det = stratum_detect(mu)
    assert det.rationalized and det.certificate.all_passed
    assert det.certificate.beta.entries == (F(-1, 2),) * 4 + (F(1, 2),) * 2


def test_stratum_detect_warns_on_so3():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        det = stratum_detect(so3())
    assert any("not nilpotent" in str(w.message) for w in caught)
    assert not det.certificate.checks["beta_positive_shift"]
    assert det.certificate.beta.entries == (F(-1, 3),) * 3


def test_stratum_detect_warns_on_non_jacobi():
    bad = BracketTensor.make(3, {(1, 2, 3): 1, (1, 3, 1): 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stratum_detect(bad)
    assert any("Jacobi" in str(w.message) for w in caught)


def test_certified_limit_shift_is_a_derivation():
    # lambda in Z_beta means beta + |beta|^2 I is a derivation of the limit
    from solvstrat.bracket import rep
    det = stratum_detect(N4)
    lam = det.flow.aligned
    shift = det.certificate.beta.shifted()
    d = [[float(shift[i]) if i == j else 0.0 for j in range(4)] for i in range(4)]
    img = rep(d, lam.to_float())
    worst = max((abs(c) for c in img.coeffs.values()), default=0.0)
    assert worst <= 1e-9
