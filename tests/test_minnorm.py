"""Exact minimum-norm point: golden cases, invariants, oracle agreement."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from generators import random_point_set
from oracles import brute_force_min_norm, solve
from solvstrat import linalg
from solvstrat.minnorm import PointSet, canonical_form, min_norm_point

F = Fraction


def test_integer_solve_kernel_matches_fraction_elimination():
    # the fraction-free kernel used by both solvers against the plain
    # rational path, including singular and inconsistent systems
    rng = np.random.default_rng(17)
    seen_none = seen_sol = False
    for _ in range(300):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        a = [[int(rng.integers(-4, 5)) for _ in range(cols)] for _ in range(rows)]
        b = [int(rng.integers(-4, 5)) for _ in range(rows)]
        af = [[F(x) for x in row] for row in a]
        got = linalg.solve_integer(a, b)
        ref = solve(af, [F(x) for x in b])
        if ref is None or len(linalg.rref(af)[1]) < cols:
            # inconsistent, or solvable but not uniquely: both refused
            assert got is None
            seen_none = True
        else:
            assert got == ref
            seen_sol = True
    assert seen_none and seen_sol


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet.make([])
    with pytest.raises(ValueError):
        PointSet.make([(1, 0), (1,)])
    with pytest.raises(ValueError):
        PointSet.make([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        PointSet.make([(1, 0)], labels=["a", "b"])


def test_singleton_hull():
    res = min_norm_point(PointSet.make([(-1, -1, 1)]))
    assert res.point == (F(-1), F(-1), F(1))
    assert res.weights == (F(1),)
    assert res.support == (0,)


def test_symmetric_pair():
    res = min_norm_point(PointSet.make([(2, 0), (0, 2)]))
    assert res.point == (F(1), F(1))
    assert res.weights == (F(1, 2), F(1, 2))


def test_orthogonal_weight_pair():
    # the two filiform weights: orthogonal, both of norm sqrt(3)
    ps = PointSet.make([(-1, -1, 1, 0), (-1, 0, -1, 1)])
    res = min_norm_point(ps)
    assert res.point == (F(-1), F(-1, 2), F(0), F(1, 2))
    assert res.weights == (F(1, 2), F(1, 2))


def test_triangle_face():
    res = min_norm_point(PointSet.make([(1, 0), (0, 1), (1, 1)]))
    assert res.point == (F(1, 2), F(1, 2))
    assert res.support == (0, 1)


def test_origin_interior_minimal_support():
    ps = PointSet.make([(1, 0), (-1, 0), (0, 1), (0, -1), (3, 3)])
    res = canonical_form(ps, min_norm_point(ps))
    assert res.point == (F(0), F(0))
    # smallest support first: the opposite pair with lowest indices
    assert res.support == (0, 1)
    assert res.weights[0] == res.weights[1] == F(1, 2)


def test_degenerate_collinear_actives():
    # four collinear points; the optimum is an input point, support is a singleton
    ps = PointSet.make([(1, -1), (1, 0), (1, 1), (1, 2)])
    res = min_norm_point(ps)
    assert res.point == (F(1), F(0))
    assert res.support == (1,)
    assert res.weights[1] == 1


def test_midpoint_with_redundant_point_present():
    # optimum (1, 0) is both the midpoint of points 0, 1 and the point 2 itself;
    # the singleton representation wins by cardinality
    ps = PointSet.make([(1, -1), (1, 1), (1, 0)])
    res = canonical_form(ps, min_norm_point(ps))
    assert res.point == (F(1), F(0))
    assert res.support == (2,)


def test_verify_passes_and_certifies():
    # Wolfe's corral weights certify the optimum on their own; the canonical
    # form changes the support, never the point
    rng = np.random.default_rng(0)
    for _ in range(25):
        ps = random_point_set(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        res = min_norm_point(ps)
        res.verify(ps)
        nsq = res.norm_sq()
        assert all(sum(a * b for a, b in zip(res.point, p)) >= nsq for p in ps.points)
        canon = canonical_form(ps, res)
        canon.verify(ps)
        assert canon.point == res.point
        assert len(canon.support) <= len(res.support)


@pytest.mark.parametrize("field,tamper", [
    ("point", lambda r: tuple(x + 1 for x in r.point)),
    ("weights", lambda r: tuple(2 * w for w in r.weights)),
    ("support", lambda r: r.support[1:]),
])
def test_verify_raises_on_a_tampered_result(field, tamper):
    ps = PointSet.make([(F(2), F(0)), (F(0), F(2)), (F(3), F(3))])
    res = min_norm_point(ps)
    res.verify(ps)
    with pytest.raises(RuntimeError):
        dataclasses.replace(res, **{field: tamper(res)}).verify(ps)


def test_missing_canonical_support_raises(monkeypatch):
    ps = PointSet.make([(F(1), F(-2))])
    res = min_norm_point(ps)
    monkeypatch.setattr(linalg, "solve_integer", lambda a, b: None)
    with pytest.raises(RuntimeError, match="no exact convex representation"):
        canonical_form(ps, res)


def test_canonical_search_is_bounded_by_caratheodory(monkeypatch):
    # 12 points on the circle of radius 5 in dim 2, symmetric about the
    # origin: the optimum is 0 and all 12 points are active.  With every
    # solve refused, the search stops after the subsets of size <= dim + 1
    # instead of trying all 2^12 - 1
    circle = [(3, 4), (4, 3), (5, 0), (0, 5), (4, -3), (3, -4)]
    ps = PointSet.make(circle + [(-a, -b) for a, b in circle])
    res = min_norm_point(ps)
    assert res.point == (F(0), F(0)) and len(ps) == 12
    calls = []

    def refuse(a, b):
        calls.append(1)
        return None

    monkeypatch.setattr(linalg, "solve_integer", refuse)
    with pytest.raises(RuntimeError, match="no exact convex representation"):
        canonical_form(ps, res)
    assert len(calls) <= 12 + 66 + 220


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        ps = random_point_set(rng, dim, int(rng.integers(2, 8)))
        perm = [int(x) for x in rng.permutation(dim)]
        permuted = PointSet.make([tuple(p[q] for q in perm) for p in ps.points])
        a = min_norm_point(ps)
        b = min_norm_point(permuted)
        assert b.point == tuple(a.point[q] for q in perm)


def test_input_order_independence():
    rng = np.random.default_rng(2)
    ps = random_point_set(rng, 3, 8)
    res = min_norm_point(ps)
    order = [int(x) for x in rng.permutation(len(ps))]
    shuffled = PointSet.make([ps.points[i] for i in order])
    res2 = min_norm_point(shuffled)
    assert res2.point == res.point
    assert res2.norm_sq() == res.norm_sq()


def test_oracle_agreement_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        dim = int(rng.integers(1, 6))
        count = int(rng.integers(1, 10))
        ps = random_point_set(rng, dim, count)
        assert canonical_form(ps, min_norm_point(ps)) == brute_force_min_norm(ps)


def test_oracle_cap():
    rng = np.random.default_rng(4)
    ps = random_point_set(rng, 2, 13)
    with pytest.raises(ValueError):
        brute_force_min_norm(ps)
    assert brute_force_min_norm(ps, max_points=13).point == min_norm_point(ps).point
