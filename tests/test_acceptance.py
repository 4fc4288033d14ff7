"""Release gates for the package, one test per gate.

Each test pins its battery size, tolerances, and a wall-clock budget, so a
plain pytest -v run reads as a pass/fail line per gate.  Exact claims are
asserted as rational equalities; float claims carry explicit tolerances.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

import numpy as np

from generators import (abelian, filiform4, heisenberg3, rand_frac, random_nilpotent,
                        random_point_set, random_solvable, rh_space, so3)
from oracles import (affinely_independent, brute_force_min_norm, ricci_moment_via_duality,
                     trace_identity_check)
from solvstrat import cli
from solvstrat.bracket import BracketTensor, act_array, permutation_act
from solvstrat.flow import ricci_moment
from solvstrat.minnorm import min_norm_point
from solvstrat.solvable import (einstein_check, is_standard,
                                rank_one_extension, standardness_audit)
from solvstrat.strata import (DiagonalWeight, beta_of, certify_candidate, m_degree,
                              stratum_label)

F = Fraction


def test_min_norm_solver_agrees_with_enumeration_oracle():
    # 500 random rational point sets, dim <= 6, <= 10 points: the active-set
    # solver and the face-enumeration oracle must return the same exact
    # point; the solver's weights certify it, on an affinely independent
    # support
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(500):
        dim = int(rng.integers(1, 7))
        count = int(rng.integers(1, 11))
        ps = random_point_set(rng, dim, count)
        res = min_norm_point(ps)
        assert res.point == brute_force_min_norm(ps).point
        res.verify(ps)
        assert affinely_independent([ps.points[i] for i in res.support])
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle battery took {elapsed:.1f}s"


def _symmetric_point_set(rng, dim: int, count: int) -> list[tuple[Fraction, ...]]:
    # count distinct points closed under p -> -p: the origin is their centroid
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        p = tuple(rand_frac(rng, 4, 3) for _ in range(dim))
        if any(p) and p not in pts:
            pts.update((p, tuple(-x for x in p)))
    return sorted(pts)


def test_minnorm_cli_on_64_points_in_dimension_11(tmp_path):
    # 20 sets of 64 points in dim 11 through the command: 10 random, every
    # other one moved off the origin by 5 along e_1, and 10 closed under
    # p -> -p, where the optimum is the origin and every point is active.
    # Each JSON result is re-verified exactly
    rng = np.random.default_rng(64)
    sets = [[(p[0] + 5 * (n % 2),) + p[1:] for p in random_point_set(rng, 11, 64).points]
            for n in range(10)]
    sets += [_symmetric_point_set(rng, 11, 64) for _ in range(10)]
    paths = []
    for n, pts in enumerate(sets):
        paths.append(tmp_path / f"ps{n}.json")
        paths[-1].write_text(json.dumps({"dim": 11, "points": [[str(x) for x in p]
                                                               for p in pts]}))
    started = time.perf_counter()
    outputs = []
    for path in paths:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["minnorm", str(path), "--format", "json"]) == 0
        outputs.append(json.loads(out.getvalue())["result"])
    elapsed = time.perf_counter() - started
    for n, (pts, result) in enumerate(zip(sets, outputs)):
        x = [Fraction(v) for v in result["point"]]
        w = [Fraction(v) for v in result["weights"]]
        nsq = sum(v * v for v in x)
        assert len(w) == 64 and sum(w) == 1 and min(w) >= 0
        assert [sum(wi * p[r] for wi, p in zip(w, pts)) for r in range(11)] == x
        assert all(sum(a * b for a, b in zip(x, p)) >= nsq for p in pts)
        assert Fraction(result["norm_sq"]) == nsq
        assert result["support"] == [i for i, wi in enumerate(w) if wi]
        assert affinely_independent([pts[i] for i in result["support"]])
        if n >= 10:
            assert nsq == 0
        elif n % 2:
            assert nsq > 0
    assert elapsed < 2.0, f"64-point minnorm gate took {elapsed:.2f}s"


def test_label_laws_on_random_nilpotent_brackets():
    # 300 random nilpotent brackets, dims 3..6: the minimum-norm label beta
    # has trace -1 exactly, degree m(mu, beta/|beta|^2) = 1 exactly, and is
    # permutation equivariant exactly
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(300):
        mu = random_nilpotent(rng, int(rng.integers(3, 7)))
        beta = beta_of(mu)
        assert sum(beta.entries) == -1
        nsq = beta.norm_sq()
        scaled = DiagonalWeight.make([x / nsq for x in beta.entries])
        assert m_degree(mu, scaled) == 1
        sigma = [int(x) for x in rng.permutation(mu.dim) + 1]
        moved = beta_of(permutation_act(sigma, mu))
        assert all(moved.entries[sigma[i] - 1] == beta.entries[i]
                   for i in range(mu.dim))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"label law battery took {elapsed:.1f}s"


def test_moment_trace_law_and_two_route_agreement():
    # 300 random brackets: trace(Ric) = -|mu|^2/4 exactly, and the entrywise
    # contraction agrees with the pairing-dual route (exactly in rational
    # mode, within 1e-10 through float arithmetic)
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(300):
        mu = random_nilpotent(rng, int(rng.integers(3, 7)))
        mv = ricci_moment(mu)
        assert 4 * sum(mv.ric[i][i] for i in range(mu.dim)) == -mv.norm_mu_sq
        assert mv.ric == ricci_moment_via_duality(mu)
        f = mu.to_float()
        diff = np.array(ricci_moment_via_duality(f)) - np.array(
            [[float(x) for x in row] for row in ricci_moment(f).ric])
        assert np.max(np.abs(diff)) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"moment battery took {elapsed:.1f}s"


def test_golden_stratum_certificates():
    h3 = heisenberg3()
    cert3 = certify_candidate(h3, beta_of(h3))
    assert cert3.beta.entries == (F(-1), F(-1), F(1))
    assert cert3.eigenvalue_type == (1, 1, 2)
    assert cert3.all_passed

    n4 = filiform4()
    cert4 = certify_candidate(n4, beta_of(n4))
    assert cert4.beta.entries == (F(-1), F(-1, 2), F(0), F(1, 2))
    assert cert4.eigenvalue_type == (1, 2, 3, 4)
    assert cert4.all_passed

    # compact simple bracket: label -I/3, shift beta + |beta|^2 I = 0 flagged
    k3 = so3()
    certk = certify_candidate(k3, beta_of(k3))
    assert certk.beta.entries == (F(-1, 3),) * 3
    assert min(certk.beta.shifted()) == 0
    assert not certk.checks["beta_positive_shift"]
    assert certk.eigenvalue_type is None


def test_curvature_golden_set_is_einstein_and_standard():
    for n in range(2, 6):
        s = rh_space(n)
        ec = einstein_check(s)
        assert ec.ok and abs(float(ec.c - F(-n))) <= 1e-9
        assert ec.c_formula_residual <= 1e-9
        assert is_standard(s).ok
    ext = rank_one_extension(heisenberg3())
    ec = einstein_check(ext)
    assert ec.ok and abs(float(ec.c - F(-3, 2))) <= 1e-9
    assert ec.c_formula_residual <= 1e-9
    assert is_standard(ext).ok


def test_curvature_trace_identity_battery():
    # tr(R E) = (1/4) <pi(E) mu, mu> for 100 random E on each of 50 random
    # solvable algebras of dimension <= 7
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_solvable(rng, max_dim=7)
        d = s.dim
        for _ in range(100):
            e = rng.standard_normal((d, d))
            ti = trace_identity_check(s, e)
            assert ti.residual <= 1e-10 * max(1.0, abs(float(ti.tr_re)))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"trace identity battery took {elapsed:.1f}s"


def test_extension_audits_force_standardness():
    # every Einstein algebra built from a certified critical bracket (or a
    # zero one) must audit clean: vanishing decomposition, exact trace
    # identities, and a standard complement
    seeds = []
    for lam in (heisenberg3(), filiform4()):
        det = stratum_label(lam.to_float())
        assert det.flow.converged and det.rationalized
        assert det.certificate.all_passed
        seeds.append(lam)
    seeds += [abelian(n) for n in range(2, 5)]
    for lam in seeds:
        ext = rank_one_extension(lam)
        assert einstein_check(ext).ok
        aud = standardness_audit(ext)
        for value in (aud.lhs, aud.term1, aud.term2, aud.term3):
            assert abs(float(value)) <= 1e-8
        assert aud.tr_e_sq_residual <= 1e-9
        assert aud.tr_adh_residual <= 1e-9
        assert aud.nonneg_ok
        assert is_standard(ext).ok
        assert aud.forces_standard


def test_flow_recovers_labels_under_orthogonal_perturbation():
    # 50 random orthogonal moves of each seed stay on the orbit; detection
    # must recover the same certified label every time, no failures allowed
    started = time.perf_counter()
    for mu0 in (heisenberg3(), filiform4()):
        expected = beta_of(mu0).entries
        arr = mu0.to_array()
        d = mu0.dim
        rng = np.random.default_rng(4)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            moved = BracketTensor.from_array(act_array(q, q.T, arr))
            det = stratum_label(moved, max_iter=200000)
            assert det.flow.converged, det.flow.message
            assert det.rationalized
            assert det.certificate.beta.entries == expected
            assert det.certificate.all_passed
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"perturbation battery took {elapsed:.1f}s"
