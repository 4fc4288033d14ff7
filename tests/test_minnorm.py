"""Exact minimum-norm point: golden cases, invariants, oracle agreement."""

import ast
import dataclasses
import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from generators import centred_point_set, random_nilpotent, random_point_set
import oracles
from oracles import (brute_force_min_norm, dense_nullspace,
                     exhaustive_canonical_form, fraction_min_norm_point, rref, solve)
from solvstrat import linalg, minnorm, strata
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
        if ref is None or len(rref(af)[1]) < cols:
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


def test_verify_reads_a_point_whose_denominator_does_not_divide_the_scale():
    # den = 3 clears the points, the optimum (1/6, 1/6) needs q = 6
    ps = PointSet.make([(F(1, 3), F(0)), (F(0), F(1, 3)), (F(1), F(2, 3))])
    res = min_norm_point(ps)
    assert res.point == (F(1, 6), F(1, 6))
    res.verify(ps)
    canonical_form(ps, res).verify(ps)
    for point, condition in (((F(1, 6), F(1, 7)), "weights reproduce the point"),
                             ((F(1, 12), F(1, 12)), "weights reproduce the point")):
        with pytest.raises(RuntimeError, match=condition):
            dataclasses.replace(res, point=point).verify(ps)
    # a feasible but non-optimal representation fails the optimality test
    vertex = dataclasses.replace(res, point=(F(1, 3), F(0)), weights=(F(1), F(0), F(0)),
                                 support=(0,))
    with pytest.raises(RuntimeError, match=r"<x, p> >= \|x\|\^2"):
        vertex.verify(ps)


def _spy_solves(monkeypatch) -> list[tuple]:
    """Spy on linalg.solve_integer; records each call's system and result."""
    calls: list[tuple] = []
    real = linalg.solve_integer

    def spy(a, b):
        res = real(a, b)
        calls.append(([list(row) for row in a], list(b), res))
        return res

    monkeypatch.setattr(linalg, "solve_integer", spy)
    return calls


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


def test_integer_wolfe_equals_the_fraction_loop(monkeypatch):
    # same point, weights and support, and the same KKT systems in the same
    # order: integer pricing changes the arithmetic, never a choice
    calls = _spy_solves(monkeypatch)
    drops = 0
    for ps in _battery_sets():
        calls.clear()
        ref = fraction_min_norm_point(ps)
        ref_calls = list(calls)
        calls.clear()
        res = min_norm_point(ps)
        assert res == ref, ps
        assert calls == ref_calls
        res.verify(ps)
        # a solve with a nonpositive weight (the multiplier is last) drops a point
        drops += any(sol is not None and min(sol[:-1]) <= 0 for _, _, sol in calls)
    assert drops > 0


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


def test_oracles_share_no_private_min_norm_helper():
    # the reference routes must not run the solver code they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "solvstrat.minnorm"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _circle_point_set() -> PointSet:
    # 12 points on the circle of radius 5 in dim 2, symmetric about the
    # origin: the optimum is 0 and all 12 points are active
    circle = [(3, 4), (4, 3), (5, 0), (0, 5), (4, -3), (3, -4)]
    return PointSet.make(circle + [(-a, -b) for a, b in circle])


def test_missing_canonical_support_raises(monkeypatch):
    # more active points than the corral, so the search runs and its solves
    # are reached
    ps = _circle_point_set()
    res = min_norm_point(ps)
    assert len(res.support) < len(ps)
    monkeypatch.setattr(linalg, "solve_integer", lambda a, b: None)
    with pytest.raises(RuntimeError, match="no exact convex representation"):
        canonical_form(ps, res)


def test_corral_that_is_the_whole_active_set_is_returned_unsolved(monkeypatch):
    # the active points are the corral's, affinely independent, so the
    # corral's positive weights are the only representation: no search
    sets = [PointSet.make([(1, -2)]), PointSet.make([(2, 0), (0, 2), (3, 3)])]
    rng = np.random.default_rng(33)
    sets += [_shifted_point_set(rng, 5, 9) for _ in range(6)]
    calls = _count_solves(monkeypatch)
    shortcuts = 0
    for ps in sets:
        res = min_norm_point(ps)
        x = res.point
        active = [p for p in ps.points if sum(a * b for a, b in zip(x, p)) == res.norm_sq()]
        calls.clear()
        canon = canonical_form(ps, res)
        assert canon == res
        if len(active) == len(res.support):
            assert calls == []
            shortcuts += 1
    assert shortcuts >= 3


def test_canonical_search_is_bounded_by_caratheodory(monkeypatch):
    # with every solve refused, the search stops after the subsets of size
    # <= dim + 1 instead of trying all 2^12 - 1
    ps = _circle_point_set()
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


def _count_solves(monkeypatch) -> list[int]:
    """Spy on linalg.solve_integer; records the column count of each call."""
    calls: list[int] = []
    real = linalg.solve_integer

    def spy(a, b):
        calls.append(len(a[0]))
        return real(a, b)

    monkeypatch.setattr(linalg, "solve_integer", spy)
    return calls


def _int_columns(rng, dim: int, count: int, kind: str) -> list[list[int]]:
    if kind in ("low-rank", "huge"):
        rank = int(rng.integers(1, max(2, min(dim, count))))
        left = rng.integers(-2, 3, (dim, rank))
        right = rng.integers(-2, 3, (rank, count))
        cols = (left @ right).T.tolist()
    else:
        cols = rng.integers(-3, 4, (count, dim)).tolist()
    if kind == "zero":
        for t in rng.choice(count, size=min(2, count), replace=False):
            cols[int(t)] = [0] * dim
    if kind == "repeat" and count > 1:
        src, dst = (int(t) for t in rng.choice(count, size=2, replace=False))
        cols[dst] = list(cols[src])
    cols = [[int(v) for v in c] for c in cols]
    if kind == "huge":
        # scaling a column keeps every dependence: entries of both signs
        # above 2^63 in absolute value, which no machine word holds
        cols = [[v * (-1) ** (t // 2) * (2**64 + t) for v in c] if t % 2 else c
                for t, c in enumerate(cols)]
    return cols


def test_dependent_subsets_match_brute_force_rank():
    # every k-subset whose columns have a nonzero null vector, by a dense
    # rref of each subset, in the same lex order
    rng = np.random.default_rng(11)
    for trial in range(60):
        kind = ("generic", "zero", "repeat", "low-rank", "huge")[trial % 5]
        dim = int(rng.integers(1, 6))
        # alternate tall (more coordinates than columns) and wide shapes
        count = int(rng.integers(1, dim + 1)) if trial % 8 < 4 else int(rng.integers(dim + 1, 9))
        cols = _int_columns(rng, dim, count, kind)
        for k in range(min(count, dim) + 1):
            want = [s for s in itertools.combinations(range(count), k)
                    if dense_nullspace([[F(cols[t][r]) for t in s] for r in range(dim)])]
            assert list(minnorm._dependent_subsets(cols, k)) == want, (cols, k)


def _spy(monkeypatch, owner, name) -> list[int]:
    """Count the calls of owner.name."""
    calls: list[int] = []
    real = getattr(owner, name)

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_dependent_subsets_are_lazy(monkeypatch):
    # a zero first column makes every subset through it dependent: the first
    # one comes out after at most one screened block and one exact check
    rng = np.random.default_rng(12)
    cols = [[0, 0, 0]] + rng.integers(-5, 6, (39, 3)).tolist()
    blocks = _spy(monkeypatch, minnorm, "_extend")
    exact = _spy(monkeypatch, linalg, "bareiss_triangularize")
    assert next(minnorm._dependent_subsets(cols, 3)) == (0, 1, 2)
    assert len(blocks) <= 1 and len(exact) == 1
    # the full listing does extend prefixes, so the counter is live
    assert sum(1 for _ in minnorm._dependent_subsets(cols, 3)) > 0
    assert len(blocks) > 1


def test_dependence_screen_false_positives_are_not_yielded():
    # u and v are independent over Q, but every 2x2 minor of [u v] is a
    # nonzero multiple of the screen's prime, so they are dependent mod p
    p = minnorm._PRIME
    u, v = [1, 1, 1], [1, 1 + p, 1 + 2 * p]
    assert all(m and m % p == 0 for m in (u[0] * v[1] - u[1] * v[0],
                                          u[0] * v[2] - u[2] * v[0],
                                          u[1] * v[2] - u[2] * v[1]))
    rng = np.random.default_rng(15)
    for cols in ([u, v, [2, 2, 2], [1, 0, 0]],
                 [[p, 0, 0], u, v] + rng.integers(-3, 4, (4, 3)).tolist(),
                 rng.integers(-3, 4, (3, 3)).tolist() + [u, [0, 1, -1], v]):
        for k in (1, 2, 3):
            want = [s for s in itertools.combinations(range(len(cols)), k)
                    if dense_nullspace([[F(cols[t][r]) for t in s] for r in range(3)])]
            assert list(minnorm._dependent_subsets(cols, k)) == want, (cols, k)
    assert (0, 1) not in set(minnorm._dependent_subsets([u, v, [2, 2, 2]], 2))


def _degenerate_point_set(rng) -> PointSet:
    # coordinates n/d with n in -2..2 and d in {1, 2}: 7 distinct values
    dim = int(rng.integers(1, 8))
    count = int(rng.integers(1, min(12, 7 ** dim) + 1))
    pts: set[tuple[Fraction, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(F(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
                      for _ in range(dim)))
    return PointSet.make(sorted(pts))


def test_canonical_form_matches_the_exhaustive_search():
    # small-integer sets put many points on common flats and faces, which
    # exercises the dependence filter and the monotone skip
    rng = np.random.default_rng(13)
    for _ in range(300):
        ps = _degenerate_point_set(rng)
        res = min_norm_point(ps)
        assert canonical_form(ps, res) == exhaustive_canonical_form(ps, res)


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_canonical_form_matches_the_exhaustive_search_on_weight_sets(dim):
    rng = np.random.default_rng(20 + dim)
    for _ in range(4):
        ps = strata.weights(random_nilpotent(rng, dim, transform=True))
        res = min_norm_point(ps)
        assert canonical_form(ps, res) == exhaustive_canonical_form(ps, res)


def test_canonical_form_matches_the_exhaustive_search_about_the_origin():
    rng = np.random.default_rng(14)
    for _ in range(3):
        ps = centred_point_set(rng, 6, 13)
        res = min_norm_point(ps)
        assert res.point == (F(0),) * 6
        assert canonical_form(ps, res) == exhaustive_canonical_form(ps, res)


def _spy_leaves(monkeypatch) -> list[int]:
    """Spy on minnorm._leaf; records the column count of each leaf."""
    sizes: list[int] = []
    real = minnorm._leaf

    def spy(levels, t, d, yb):
        sizes.append(len(levels) + 1)
        return real(levels, t, d, yb)

    monkeypatch.setattr(minnorm, "_leaf", spy)
    return sizes


def test_origin_inside_hull_solves_only_full_size_subsets(monkeypatch):
    # 16 generic points about the origin in dim 7: no subset of <= 7 points
    # has 0 in its affine hull, and none of them is dependent, so no subset
    # of <= 7 points is solved and every leaf of the shared walk has 8
    # points.  The exhaustive search makes 26451 solves here
    ps = centred_point_set(np.random.default_rng(1), 7, 16)
    res = min_norm_point(ps)
    calls = _count_solves(monkeypatch)
    leaves = _spy_leaves(monkeypatch)
    canon = canonical_form(ps, res)
    assert len(canon.support) == 8
    assert calls == []
    assert set(leaves) == {8}
    assert len(leaves) < 300


def test_missing_square_support_raises(monkeypatch):
    # Wolfe's corral has dim + 1 of the 8 active points, so the search ends
    # in the walk over 4-subsets; with every leaf refused it finds nothing
    ps = centred_point_set(np.random.default_rng(1), 3, 8)
    res = min_norm_point(ps)
    assert len(res.support) == 4
    leaves: list[tuple] = []
    monkeypatch.setattr(minnorm, "_leaf", lambda *args: leaves.append(args))
    with pytest.raises(RuntimeError, match="no exact convex representation"):
        canonical_form(ps, res)
    assert leaves


def _small_integer_centred_set(rng, dim: int) -> PointSet:
    # integer points in [-2, 2]^dim, scaled about their centroid: many
    # (dim + 1)-subsets are singular, prefixes lose their pivots and b
    # often lies in a prefix's span
    count = min(5 ** dim, int(rng.integers(dim + 2, dim + 9)))
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(int(v) for v in rng.integers(-2, 3, dim)))
    total = [sum(col) for col in zip(*pts)]
    return PointSet.make([[count * v - t for v, t in zip(p, total)] for p in sorted(pts)])


def _degenerate_simplex_set(rng, dim: int) -> PointSet:
    # a simplex p_0..p_dim about the origin, p_0 on the plane x_1 = 0, led by
    # 2 p_0 (0 in the affine hull of the prefix {p_0, 2 p_0}) and 2 p_0 - p_1
    # (then p_1 lies in the span of the prefix {p_0, 2 p_0 - p_1}); p_0's zero
    # first coordinate moves the walk's first pivot off the first row
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


def test_square_walk_matches_the_exhaustive_search():
    walked = 0
    for ps in _square_walk_sets():
        res = min_norm_point(ps)
        walked += len(res.support) == ps.dim + 1
        assert canonical_form(ps, res) == exhaustive_canonical_form(ps, res)
    assert walked >= 50


def test_weight_set_solve_count(monkeypatch):
    # a GL-moved dim-7 bracket: 51 active weights, Wolfe corral of 6,
    # canonical support of 4.  The exhaustive search makes 39349 solves
    mu = random_nilpotent(np.random.default_rng(7), 7)
    ps = strata.weights(mu)
    res = min_norm_point(ps)
    calls = _count_solves(monkeypatch)
    canon = canonical_form(ps, res)
    assert (len(ps), len(res.support), len(canon.support)) == (51, 6, 4)
    assert len(calls) < 400
    # the screen holds a fixed budget of residues per block, not a level of
    # the subset tree (C(51, 5) = 2349060 subsets of the corral's size less one)
    tracemalloc.start()
    try:
        assert canonical_form(ps, res) == canon
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
