"""Exact minimum-norm point: golden cases, invariants, oracle agreement."""

import ast
import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from generators import centred_point_set, random_nilpotent, random_point_set
import oracles
from oracles import (affinely_independent, brute_force_min_norm, fraction_min_norm_point,
                     rref, solve)
from solvstrat import linalg, minnorm, strata
from solvstrat.minnorm import MinNormResult, PointSet, min_norm_point

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
        if ref is None or len(rref(af)[1]) < cols:
            # inconsistent, or solvable but not uniquely: both refused
            assert got is None
            seen_none = True
        else:
            d, y = got
            assert d > 0 and [F(v, d) for v in y] == ref
            seen_sol = True
    assert seen_none and seen_sol


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet.make([])
    with pytest.raises(ValueError):
        PointSet.make([(1, 0), (1,)])
    with pytest.raises(ValueError):
        PointSet.make([(1, 0), (1, 0)])


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


def test_origin_interior_on_wolfes_corral():
    # the opposite pair (0, 1) carries the origin too; the result is the
    # corral Wolfe ends on, an affinely independent triangle
    ps = PointSet.make([(1, 0), (-1, 0), (0, 1), (0, -1), (3, 3)])
    res = min_norm_point(ps)
    assert res.point == (F(0), F(0))
    assert res.support == (1, 3, 4)
    assert res.weights == (F(0), F(3, 7), F(0), F(3, 7), F(1, 7))


def test_degenerate_collinear_actives():
    # four collinear points; the optimum is an input point, support is a singleton
    ps = PointSet.make([(1, -1), (1, 0), (1, 1), (1, 2)])
    res = min_norm_point(ps)
    assert res.point == (F(1), F(0))
    assert res.support == (1,)
    assert res.weights[1] == 1


def test_midpoint_with_redundant_point_present():
    # optimum (1, 0) is both the midpoint of points 0, 1 and the point 2 itself;
    # Wolfe starts at point 2, the point of least norm, and stops there
    ps = PointSet.make([(1, -1), (1, 1), (1, 0)])
    res = min_norm_point(ps)
    assert res.point == (F(1), F(0))
    assert res.support == (2,)


def test_verify_passes_and_certifies():
    # Wolfe's corral weights certify the optimum on their own
    rng = np.random.default_rng(0)
    for _ in range(25):
        ps = random_point_set(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
        res = min_norm_point(ps)
        res.verify(ps)
        nsq = res.norm_sq()
        assert all(sum(a * b for a, b in zip(res.point, p)) >= nsq for p in ps.points)


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


def test_verify_reads_a_point_whose_denominator_does_not_divide_the_scale():
    # den = 3 clears the points, the optimum (1/6, 1/6) needs q = 6
    ps = PointSet.make([(F(1, 3), F(0)), (F(0), F(1, 3)), (F(1), F(2, 3))])
    res = min_norm_point(ps)
    assert res.point == (F(1, 6), F(1, 6))
    res.verify(ps)
    for point, condition in (((F(1, 6), F(1, 7)), "weights reproduce the point"),
                             ((F(1, 12), F(1, 12)), "weights reproduce the point")):
        with pytest.raises(RuntimeError, match=condition):
            dataclasses.replace(res, point=point).verify(ps)
    # a feasible but non-optimal representation fails the optimality test
    vertex = dataclasses.replace(res, point=(F(1, 3), F(0)), weights=(F(1), F(0), F(0)),
                                 support=(0,))
    with pytest.raises(RuntimeError, match=r"<x, p> >= \|x\|\^2"):
        vertex.verify(ps)


def _shifted_point_set(rng, dim: int, count: int) -> PointSet:
    # the origin outside the hull: the first coordinate is moved above 0
    pts = random_point_set(rng, dim, count).points
    lift = 1 - min(p[0] for p in pts)
    return PointSet.make([(p[0] + lift,) + p[1:] for p in pts])


def _coprime_point_set(rng, dim: int, count: int) -> PointSet:
    primes = (101, 103, 107, 109, 113, 127, 131, 137)
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(F(int(rng.integers(-400, 401)), primes[int(rng.integers(0, 8))])
                      for _ in range(dim)))
    return PointSet.make(sorted(pts))


def _battery_sets():
    rng = np.random.default_rng(31)
    yield PointSet.make([()])
    for dim in range(1, 8):
        for _ in range(12):
            yield random_point_set(rng, dim, int(rng.integers(1, 14)))
    for dim in (2, 4, 6):
        for _ in range(3):
            yield centred_point_set(rng, dim, int(rng.integers(dim + 1, 14)))
    for dim in (2, 5, 7):
        for _ in range(6):
            yield _shifted_point_set(rng, dim, int(rng.integers(2, 14)))
    for dim in (2, 3, 5):
        for _ in range(4):
            yield _coprime_point_set(rng, dim, int(rng.integers(2, 10)))
    for dim in range(3, 8):
        for _ in range(3):
            yield strata.weights(random_nilpotent(rng, dim))


def test_random_point_set_refuses_more_points_than_exist():
    rng = np.random.default_rng(34)
    assert random_point_set(rng, 0, 1).points == ((),)
    with pytest.raises(ValueError):
        random_point_set(rng, 0, 2)
    assert len(random_point_set(rng, 1, 19)) == 19
    with pytest.raises(ValueError):
        random_point_set(rng, 1, 20)


def _spy_affine_steps(monkeypatch) -> list[tuple]:
    """Spy on the affine step of both Wolfe loops, the package's k x k
    solve and the oracle's bordered KKT solve; records each call's corral
    and its barycentric weights as Fractions (None if dependent)."""
    steps: list[tuple] = []
    package, oracle = minnorm._affine_minimizer, oracles._affine_minimizer

    def spy_package(ps, subset):
        res = package(ps, subset)
        steps.append((list(subset), None if res is None else [F(y, res[0]) for y in res[1]]))
        return res

    def spy_oracle(sc, pts, subset):
        res = oracle(sc, pts, subset)
        steps.append((list(subset), None if res is None else list(res[0])))
        return res

    monkeypatch.setattr(minnorm, "_affine_minimizer", spy_package)
    monkeypatch.setattr(oracles, "_affine_minimizer", spy_oracle)
    return steps


def test_integer_wolfe_equals_the_fraction_loop(monkeypatch):
    # same point, weights and support, and the same corrals in the same
    # order with the same affine weights: integer pricing and the k x k
    # affine step change the arithmetic, never a choice
    steps = _spy_affine_steps(monkeypatch)
    drops = 0
    for ps in _battery_sets():
        steps.clear()
        ref = fraction_min_norm_point(ps)
        ref_steps = list(steps)
        steps.clear()
        res = min_norm_point(ps)
        assert res == ref, ps
        assert steps == ref_steps
        res.verify(ps)
        # an affine step with a nonpositive weight drops a point
        drops += any(w is not None and min(w) <= 0 for _, w in steps)
    assert drops > 0


def test_affine_step_equals_the_bordered_kkt_solve():
    # (G + 1 1^T) u = 1 gives the weights of the bordered system
    # [G 1; 1^T 0] [w; t] = [0; 1], and None exactly where that system is
    # singular: on the affinely dependent corrals
    rng = np.random.default_rng(36)
    cases = []
    for t in range(240):
        dim = int(rng.integers(1, 6))
        if t % 3 == 0:
            ps = _small_integer_centred_set(rng, dim)
        elif t % 3 == 1:
            ps = random_point_set(rng, dim, int(rng.integers(2, 9)))
        else:
            # the midpoint of two points joins them: {a, b, (a + b) / 2} and
            # its supersets are dependent even in general position
            a, b, *rest = random_point_set(rng, dim, int(rng.integers(2, 7))).points
            ps = PointSet.make([a, b, [(x + y) / 2 for x, y in zip(a, b)], *rest])
            cases.append((ps, [0, 1, 2]))
        for _ in range(4):
            # up to dim + 2 points: the largest are always dependent
            size = int(rng.integers(1, min(len(ps), dim + 2) + 1))
            cases.append((ps, sorted(rng.choice(len(ps), size, replace=False).tolist())))
    dependent = 0
    for ps, subset in cases:
        want = oracles._affine_minimizer(oracles._scaled(ps), ps.points, subset)
        got = minnorm._affine_minimizer(ps, subset)
        if want is None:
            assert got is None, (ps, subset)
            dependent += 1
        else:
            e, ys = got
            assert e > 0 and [F(y, e) for y in ys] == want[0], (ps, subset)
    assert 100 < dependent < len(cases) - 300


def test_min_norm_point_makes_no_fraction_dot(monkeypatch):
    calls = []
    real = linalg.dot

    def spy(u, v):
        calls.append(1)
        return real(u, v)

    monkeypatch.setattr(linalg, "dot", spy)
    monkeypatch.setattr(minnorm, "dot", spy)
    rng = np.random.default_rng(32)
    sets = [random_point_set(rng, 4, 9) for _ in range(10)]
    sets.append(strata.weights(random_nilpotent(rng, 6, transform=True)))
    results = [min_norm_point(ps) for ps in sets]
    assert calls == []
    # the spy is live: norm_sq still takes a Fraction dot
    results[-1].norm_sq()
    assert calls == [1]


def test_min_norm_point_builds_fractions_only_for_its_result(monkeypatch):
    # Wolfe's loop and its solves run on integers; the only Fractions made
    # are the point's coordinates and the corral's weights, once, at the end
    sets = list(_battery_sets())
    made = []

    def spy(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(minnorm, "Fraction", spy)
    monkeypatch.setattr(linalg, "Fraction", spy)
    partial = 0
    for ps in sets:
        made.clear()
        res = min_norm_point(ps)
        assert len(made) == ps.dim + len(res.support), ps
        partial += len(res.support) < len(ps)
    assert partial > 0


def test_oracles_share_no_private_min_norm_helper():
    # the reference routes must not run the solver code they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "solvstrat.minnorm"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


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
        res = min_norm_point(ps)
        _check_corral(ps, res)
        assert res.point == brute_force_min_norm(ps).point


def test_oracle_cap():
    rng = np.random.default_rng(4)
    ps = random_point_set(rng, 2, 13)
    with pytest.raises(ValueError):
        brute_force_min_norm(ps)
    assert brute_force_min_norm(ps, max_points=13).point == min_norm_point(ps).point


def _check_corral(ps: PointSet, res: MinNormResult) -> None:
    """The result certifies itself, and its support is affinely independent,
    so its weights, all positive, are the only ones on it."""
    res.verify(ps)
    assert affinely_independent([ps.points[i] for i in res.support]), ps
    assert all(res.weights[i] > 0 for i in res.support)


def _degenerate_point_set(rng) -> PointSet:
    # coordinates n/d with n in -2..2 and d in {1, 2}: 7 distinct values
    dim = int(rng.integers(1, 8))
    count = int(rng.integers(1, min(12, 7 ** dim) + 1))
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(F(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
                      for _ in range(dim)))
    return PointSet.make(sorted(pts))


def _small_integer_centred_set(rng, dim: int) -> PointSet:
    # integer points in [-2, 2]^dim, scaled about their centroid: many
    # (dim + 1)-subsets are affinely dependent
    count = min(5 ** dim, int(rng.integers(dim + 2, dim + 9)))
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(int(v) for v in rng.integers(-2, 3, dim)))
    total = [sum(col) for col in zip(*pts)]
    return PointSet.make([[count * v - t for v, t in zip(p, total)] for p in sorted(pts)])


def _degenerate_simplex_set(rng, dim: int) -> PointSet:
    # a simplex p_0..p_dim about the origin, p_0 on the plane x_1 = 0, led by
    # 2 p_0 (0 lies in the affine hull of {p_0, 2 p_0}) and 2 p_0 - p_1 (p_1
    # lies in the span of {p_0, 2 p_0 - p_1})
    while True:
        tail = rng.integers(-3, 4, (dim, dim)).tolist()
        tail[-1][0] -= sum(p[0] for p in tail)
        p0 = [-sum(col) for col in zip(*tail)]
        pts = [p0, [2 * v for v in p0], [2 * v - w for v, w in zip(p0, tail[0])]] + tail
        pts += rng.integers(-3, 4, (int(rng.integers(0, 3)), dim)).tolist()
        if any(p0) and len({tuple(p) for p in pts}) == len(pts):
            return PointSet.make(pts)


def _huge_centred_set(rng, dim: int, count: int) -> PointSet:
    # coordinates above 2^64 in absolute value over coprime denominators
    primes = (97, 101, 103, 107)
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(F(int(rng.integers(1, 10)) * (-1) ** int(rng.integers(0, 2)) * (2**72 + 13),
                        primes[int(rng.integers(0, 4))]) for _ in range(dim)))
    centroid = [sum(col) / count for col in zip(*pts)]
    return PointSet.make([[x - c for x, c in zip(p, centroid)] for p in sorted(pts)])


def _square_walk_sets():
    rng = np.random.default_rng(35)
    for dim in range(2, 9):
        for _ in range(3 if dim < 8 else 1):
            yield centred_point_set(rng, dim, int(rng.integers(dim + 2, dim + 6)))
    for _ in range(40):
        yield _small_integer_centred_set(rng, int(rng.integers(1, 6)))
    for _ in range(30):
        yield _degenerate_simplex_set(rng, int(rng.integers(2, 7)))
    for dim in (2, 3, 4, 5):
        yield _huge_centred_set(rng, dim, dim + 3)


def _check_against_the_exhaustive_search(ps: PointSet) -> MinNormResult:
    """The printed form is Wolfe's corral: it certifies itself, its support
    is affinely independent, and its point is the one the enumeration of
    every affinely independent subset finds."""
    res = min_norm_point(ps)
    _check_corral(ps, res)
    assert res.point == brute_force_min_norm(ps, max_points=13).point, ps
    return res


def test_canonical_form_matches_the_exhaustive_search():
    # small-integer coordinates put many points on common flats and faces:
    # the optimum has many representations, and Wolfe's corral is one with
    # positive weights on affinely independent points
    rng = np.random.default_rng(13)
    for _ in range(300):
        _check_against_the_exhaustive_search(_degenerate_point_set(rng))


def test_canonical_form_matches_the_exhaustive_search_about_the_origin():
    # every point is active about the origin, and the corral has dim + 1
    rng = np.random.default_rng(14)
    for _ in range(3):
        ps = centred_point_set(rng, 6, 13)
        res = _check_against_the_exhaustive_search(ps)
        assert res.point == (F(0),) * 6
        assert len(res.support) == 7


def test_square_walk_matches_the_exhaustive_search():
    # sets about the origin whose (dim + 1)-subsets are often affinely
    # dependent: the corral Wolfe ends with is a full simplex on most of them
    full = 0
    for ps in _square_walk_sets():
        res = _check_against_the_exhaustive_search(ps)
        full += len(res.support) == ps.dim + 1
    assert full >= 50
