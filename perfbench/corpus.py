"""Seeded corpus generator for the benchmark workloads.

Pure Python (``random.Random`` and ``fractions``), so a corpus depends only on
its seed: never on the package under test, on numpy's generator streams or on
``tests/generators.py``.  The same seed gives a byte-identical corpus
(``corpus_bytes``).

Expected labels, Einstein constants and exit codes are literals in this file.
The only computed expectations belong to the random solvable algebras of
``einstein-audit``; they come from the Ricci oracle in ``checks.py``, which
shares no code with the package.

Every workload is a list of operations in a fixed, interleaved order, built
round by round: each round holds every input class in its planned share, and
more rounds extend a corpus without changing its first rounds.  The seed
draws the values (coefficients, points, moves); the shapes follow a fixed
schedule (see ``generate``).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from checks import ricci_verdict

F = Fraction

# Stratum labels (sorted beta) of the flow seeds, pinned.
H3_LABEL = ["-1", "-1", "1"]
FIL4_LABEL = ["-1", "-1/2", "0", "1/2"]
FREE3_LABEL = ["-2/3"] * 3 + ["1/3"] * 3
FREE4_LABEL = ["-1/2"] * 4 + ["1/6"] * 6
H3R_LABEL = ["-1", "-1", "0", "1"]
H3H3_LABEL = ["-1/2"] * 4 + ["1/2"] * 2

# Bounds that keep every operation finite; see README.md for the unbounded
# cases they avoid.
MAX_DIM_RANDOM = 7        # random exact brackets, exact-label
FLOW_MAX_ITER = 300       # explicit --max-iter of every stratum call
MAX_ORIGIN_POINTS = 16    # point sets whose hull contains the origin


# --- exact helpers ------------------------------------------------------

def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rand_frac(rng: random.Random, num: int, den: int) -> Fraction:
    return F(rng.randint(-num, num), rng.randint(1, den))


def _rand_nonzero(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    while True:
        f = _rand_frac(rng, num, den)
        if f:
            return f


def _identity(n: int) -> list[list[Fraction]]:
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def rref(m):
    """Reduced row echelon form over Fractions; returns (rows, pivots)."""
    a = [list(r) for r in m]
    pivots, r = [], 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _inverse(m):
    n = len(m)
    red, pivots = rref([list(row) + e for row, e in zip(m, _identity(n))])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def nullspace(rows, cols: int):
    red, pivots = rref(rows) if rows else ([], [])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def act(g, coeffs: dict, n: int) -> dict:
    """Structure constants of g.mu, (g.mu)(x, y) = g mu(g^-1 x, g^-1 y)."""
    ginv = _inverse(g)
    cols = [[ginv[r][c] for r in range(n)] for c in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, y = cols[i], cols[j]
            v = [F(0)] * n
            for (a, b, c), val in coeffs.items():
                w = x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1]
                if w:
                    v[c - 1] += val * w
            for k in range(n):
                gv = sum(g[k][t] * v[t] for t in range(n))
                if gv:
                    out[(i + 1, j + 1, k + 1)] = gv
    return out


def random_gl(shape: random.Random, rng: random.Random, n: int):
    """Permutation * unit upper triangular (up to 3 random entries) * diagonal."""
    perm = list(range(n))
    shape.shuffle(perm)
    p = [[F(int(perm[r] == c)) for c in range(n)] for r in range(n)]
    u = _identity(n)
    slots = [(r, c) for r in range(n) for c in range(r + 1, n)]
    for r, c in shape.sample(slots, min(3, len(slots))):
        u[r][c] = _rand_nonzero(rng, 2, 2)
    pool = [F(1), F(-1), F(1, 2), F(2), F(3, 2)]
    d = [[rng.choice(pool) if r == c else F(0) for c in range(n)] for r in range(n)]
    return _matmul(_matmul(p, u), d)


# --- brackets (1-based keys (i, j, k) with i < j) -------------------------

def heisenberg3() -> dict:
    return {(1, 2, 3): F(1)}


def filiform4() -> dict:
    return {(1, 2, 3): F(1), (1, 3, 4): F(1)}


def filiform(n: int) -> dict:
    """L_n: mu(e_1, e_i) = e_{i+1}."""
    return {(1, i, i + 1): F(1) for i in range(2, n)}


def free_two_step(gens: int) -> tuple[int, dict]:
    coeffs, k = {}, gens
    for i in range(1, gens + 1):
        for j in range(i + 1, gens + 1):
            k += 1
            coeffs[(i, j, k)] = F(1)
    return k, coeffs


def direct_sum(*parts: tuple[int, dict]) -> tuple[int, dict]:
    coeffs, off = {}, 0
    for dim, c in parts:
        for (i, j, k), v in c.items():
            coeffs[(i + off, j + off, k + off)] = v
        off += dim
    return off, coeffs


# Family generators draw the support pattern from ``shape`` and the
# coefficient values from ``rng``.

def two_step(shape: random.Random, rng: random.Random, dim: int) -> dict:
    p = shape.randint(2, dim - 1)
    keys = [(i, j, k) for i in range(1, p + 1) for j in range(i + 1, p + 1)
            for k in range(p + 1, dim + 1)]
    chosen = shape.sample(keys, shape.randint(1, min(len(keys), 6)))
    return {key: _rand_nonzero(rng) for key in sorted(chosen)}


def thread(shape: random.Random, rng: random.Random, dim: int) -> dict:
    return {(1, i, i + 1): _rand_nonzero(rng) for i in range(2, dim)}


def summand(shape: random.Random, rng: random.Random, dim: int) -> dict:
    parts = [(4, filiform4())] if dim >= 4 and shape.random() < 0.5 else [(3, heisenberg3())]
    used = parts[0][0]
    if dim - used >= 3 and shape.random() < 0.5:
        parts.append((3, heisenberg3()))
        used += 3
    if dim > used:
        parts.append((dim - used, {}))
    return direct_sum(*parts)[1]


FAMILIES = {"two_step": two_step, "thread": thread, "summand": summand}


def _coeff_list(coeffs: dict, conv=_fmt) -> list:
    return [[i, j, k, conv(c)] for (i, j, k), c in sorted(coeffs.items())]


def bracket_file(dim_a: int, dim_n: int, coeffs: dict, conv=_fmt) -> dict:
    return {"dim_a": dim_a, "dim_n": dim_n,
            "brackets": [{"i": i, "j": j, "k": k, "c": c}
                         for i, j, k, c in _coeff_list(coeffs, conv)]}


# --- workloads --------------------------------------------------------

def exact_label(shape: random.Random, rng: random.Random, rounds: int = 2) -> list[dict]:
    """Structured algebras first (fixed cost, once per corpus), then
    rounds of random brackets cycling through dims fastest, then families;
    GL moves alternate.  Dim 5 comes twice, so that the median latency falls
    inside the dim-5 group rather than at a boundary between dims."""
    ops = []
    free3, free4 = free_two_step(3), free_two_step(4)
    for name, dim, coeffs, label in (("L8", 8, filiform(8), None),
                                     ("L10", 10, filiform(10), None),
                                     ("free3", free3[0], free3[1], FREE3_LABEL),
                                     ("free4", free4[0], free4[1], FREE4_LABEL)):
        ops.append({"id": name, "dim": dim, "coeffs": _coeff_list(coeffs),
                    "structured": True, "label": label})
    for r in range(rounds):
        for fam, make in FAMILIES.items():
            for idx, dim in enumerate((3, 4, 5, 5, 6, MAX_DIM_RANDOM)):
                moved = (r + idx + len(fam)) % 2 == 1
                coeffs = make(shape, rng, dim)
                if moved:
                    coeffs = act(random_gl(shape, rng, dim), coeffs, dim)
                ops.append({"id": f"r{r}-{fam}-{dim}{'-gl' if moved else ''}",
                            "dim": dim, "coeffs": _coeff_list(coeffs),
                            "structured": False, "label": None})
    return ops


def _float_move(rng: random.Random, n: int, orthogonal: bool):
    if orthogonal:
        # Cayley transform of a rational skew matrix: exactly orthogonal
        a = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = _rand_frac(rng, 3, 4)
                a[j][i] = -a[i][j]
        eye = _identity(n)
        minus = [[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
        plus = [[eye[i][j] + a[i][j] for j in range(n)] for i in range(n)]
        return _matmul(minus, _inverse(plus))
    # g = I + 0.1 N(0, 1), rounded to a 1e-4 grid so g.mu0 is computed exactly
    return [[F(int(i == j)) + F(round(1000 * rng.gauss(0.0, 1.0)), 10_000)
             for j in range(n)] for i in range(n)]


FLOW_SEEDS = (
    ("h3", (3, heisenberg3()), H3_LABEL),
    ("fil4", (4, filiform4()), FIL4_LABEL),
    ("free3", free_two_step(3), FREE3_LABEL),
    ("h3+R", direct_sum((3, heisenberg3()), (1, {})), H3R_LABEL),
    ("h3+h3", direct_sum((3, heisenberg3()), (3, heisenberg3())), H3H3_LABEL),
)


def flow_stratum(shape: random.Random, rng: random.Random, rounds: int = 20) -> list[dict]:
    """Per round, each seed once, every fourth round by an orthogonal move,
    plus one more GL-moved fil4.  Its flows (~85 iterations) fall between
    the instant and the capped ones and hold the median latency."""
    ops = []
    for r in range(rounds):
        orthogonal = r % 4 == 3
        moves = [(name, seed, label, orthogonal) for name, seed, label in FLOW_SEEDS]
        moves.append(("fil4-extra", FLOW_SEEDS[1][1], FIL4_LABEL, False))
        for name, (dim, coeffs), label, orth in moves:
            moved = act(_float_move(rng, dim, orth), coeffs, dim)
            ops.append({"id": f"r{r}-{name}{'-orth' if orth else '-gl'}",
                        "file": bracket_file(0, dim, moved, conv=float),
                        "argv": ["stratum", "{file}", "--format", "json",
                                 "--max-iter", str(FLOW_MAX_ITER)],
                        "expect": {"exit": 0, "beta": label}})
    return ops


def random_solvable(shape: random.Random, rng: random.Random) -> tuple[int, int, dict]:
    """dim_a in {0, 1, 2}; a acts on n = abelian or nilpotent by diagonal
    derivations, so a is abelian and the algebra is standard."""
    n = shape.randint(2, 5)
    if n >= 3 and shape.random() < 0.75:
        mu = FAMILIES[shape.choice(sorted(FAMILIES))](shape, rng, n)
    else:
        mu = {}
    rows = []
    for (i, j, k) in mu:
        w = [F(0)] * n
        w[i - 1] -= 1
        w[j - 1] -= 1
        w[k - 1] += 1
        rows.append(w)
    diag_basis = nullspace(rows, n) if rows else _identity(n)
    m = min(shape.randint(0, 2), len(diag_basis))
    coeffs = {(m + i, m + j, m + k): c for (i, j, k), c in mu.items()}
    for r in range(1, m + 1):
        while True:
            weights = [_rand_frac(rng, 2, 2) for _ in diag_basis]
            d = [sum(w * b[t] for w, b in zip(weights, diag_basis)) for t in range(n)]
            if any(d):
                break
        for t in range(n):
            if d[t]:
                coeffs[(r, m + t + 1, m + t + 1)] = d[t]
    return m, n, coeffs


def einstein_audit(shape: random.Random, rng: random.Random, rounds: int = 24) -> list[dict]:
    """Named algebras with pinned verdicts, then rounds of random solvable
    algebras (expectations from the independent Ricci oracle)."""
    # (tag, dim_a, dim_n, coeffs, Einstein constant, exit code, nilpotent, standard)
    named = [(f"rh{n}", 1, n, {(1, 1 + j, 1 + j): F(1) for j in range(1, n + 1)},
              str(-n), 0, False, True) for n in range(2, 9)]
    named.append(("ch2", 1, 3, {(2, 3, 4): F(1), (1, 2, 2): F(1, 2), (1, 3, 3): F(1, 2),
                                (1, 4, 4): F(1)}, "-3/2", 0, False, True))
    named.append(("nonstandard-h3", 2, 1, {(1, 2, 3): F(1)}, "-1/6", 2, True, False))
    free3, free4 = free_two_step(3), free_two_step(4)
    extend_seeds = [("h3", 3, heisenberg3(), "-3/2"), ("fil4", 4, filiform4(), "-3/2"),
                    ("free3", free3[0], free3[1], "-5/2"),
                    ("free4", free4[0], free4[1], "-7/2"),
                    ("h3+h3", 6, direct_sum((3, heisenberg3()), (3, heisenberg3()))[1], "-3/2")]
    extend_seeds += [(f"abelian{n}", n, {}, str(-n)) for n in range(2, 7)]

    def audit_ops(tag, dim_a, dim_n, coeffs, c, code, nilpotent, standard):
        f = bracket_file(dim_a, dim_n, coeffs)
        return [{"id": f"{tag}-validate", "file": f,
                 "argv": ["validate", "{file}", "--format", "json"],
                 "expect": {"exit": 0, "nilpotent": nilpotent}},
                {"id": f"{tag}-einstein", "file": f,
                 "argv": ["einstein", "{file}", "--audit", "--format", "json"],
                 "expect": {"exit": code, "c": c, "standard": standard}}]

    def extend_op(tag, dim, coeffs, c):
        return {"id": f"{tag}-extend", "file": bracket_file(0, dim, coeffs),
                "argv": ["extend", "{file}", "--format", "json"],
                "expect": {"exit": 0, "c": c}}

    ops = []
    for r in range(rounds):
        # one named algebra and one extension seed per round, then randoms
        tag, *spec = named[r % len(named)]
        ops += audit_ops(f"r{r}-{tag}", *spec)
        tag, dim, coeffs, c = extend_seeds[r % len(extend_seeds)]
        ops.append(extend_op(f"r{r}-{tag}", dim, coeffs, c))
        for t in range(6):
            m, n, coeffs = random_solvable(shape, rng)
            c, einstein = ricci_verdict(m, m + n, coeffs)
            # nilpotent iff there is no a-block: each ad A_r is a nonzero
            # diagonal map; a is abelian, so the algebra is standard
            ops += audit_ops(f"r{r}-s{t}", m, n, coeffs, _fmt(c),
                             0 if einstein else 2, m == 0, True)
    return ops


def _point_set(rng: random.Random, dim: int, count: int) -> list[list[Fraction]]:
    pts: set[tuple] = set()
    while len(pts) < count:
        pts.add(tuple(_rand_frac(rng, 4, 3) for _ in range(dim)))
    return [list(p) for p in sorted(pts)]


def minnorm_points(shape: random.Random, rng: random.Random, rounds: int = 12) -> list[dict]:
    """Per round: two oracle-sized sets (<= 12 points), one set whose hull
    contains the origin (13..16 points, dims 6..7) and eight shifted sets."""
    def op(tag, pts):
        return {"id": tag, "file": {"dim": len(pts[0]),
                                    "points": [[_fmt(x) for x in p] for p in pts]},
                "argv": ["minnorm", "{file}", "--format", "json"],
                "expect": {"exit": 0}}

    ops = []
    for r in range(rounds):
        for dim, count in ((5, 12), (6, 10)):
            ops.append(op(f"r{r}-oracle-{dim}x{count}", _point_set(rng, dim, count)))
        dim = 6 + r % 2
        count = 13 + r % (MAX_ORIGIN_POINTS - 12)
        pts = _point_set(rng, dim, count)
        centroid = [sum(p[c] for p in pts) / count for c in range(dim)]
        centered = [[x - y for x, y in zip(p, centroid)] for p in pts]
        ops.append(op(f"r{r}-origin-{dim}x{count}", centered))
        for t in range(8):
            pts = _point_set(rng, dim, count)
            lift = 1 - min(p[0] for p in pts)   # first coordinate > 0: origin outside
            ops.append(op(f"r{r}-shifted{t}-{dim}x{count}",
                          [[p[0] + lift] + p[1:] for p in pts]))
    return ops


WORKLOADS = {"exact-label": exact_label, "flow-stratum": flow_stratum,
             "einstein-audit": einstein_audit, "minnorm-points": minnorm_points}


def generate(workload: str, seed: int, rounds: int | None = None) -> list[dict]:
    """The operation list of one workload; depends only on (workload, seed,
    rounds).  Each workload's default gives a small corpus; more rounds extend
    it and leave its first rounds as they were.

    The seed draws every coefficient, point and move.  The shapes (families,
    dimensions, support patterns, move patterns, point counts) follow one
    fixed random schedule, so that runs with different seeds do the same
    kind and amount of work and their timings stay comparable."""
    shape = random.Random(f"{workload}:shape")
    rng = random.Random(f"{workload}:{seed}")
    if rounds is None:
        return WORKLOADS[workload](shape, rng)
    return WORKLOADS[workload](shape, rng, rounds)


def corpus_bytes(ops: list[dict]) -> bytes:
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
